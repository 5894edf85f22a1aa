#!/usr/bin/env bash
# AddressSanitizer gate for the IOCT binary decoder.
#
#   ./scripts/check_asan.sh [BUILD_DIR]     # default build-asan
#
# The decoder reads varints and string-table views straight out of an
# mmap'd file, so any bounds slip is an out-of-mapping read — exactly
# what ASan catches and plain ctest may not.  The IOCS snapshot decoder
# shares that mmap'd-varint surface (and chews on deliberately torn and
# bit-flipped snapshots in its tests), so its suites run here too, as
# do the IOCK checkpoint-manifest decoder and the host I/O layer
# (exhaustive bit-flip/truncation loops + fault-injected write paths).
# The serve daemon's frame decoder parses length-prefixed frames from
# untrusted socket bytes (torn, oversized, byte-at-a-time), and the
# strict CLI numeric parsers chew on junk — both run here too.  The
# analyzer counts into histogram rows by index (core/schema), so its
# suites — partitioning, coverage, the partition-inverse oracle, flag
# pairs and their per-analyzer cells, the histogram merge, the parallel
# pipeline and the variant-substitution relations — run here as well.
# This configures a full IOCOV_SANITIZE=address tree and runs the
# decoder-facing suites (binary format, binary pipeline, text format,
# snapshot) under it.
# The trace filter keeps per-pid fd and cwd state in a table keyed by
# pids read from untrusted trace files, and the re-encoding relations
# drive it with pids up to UINT32_MAX, so both suites run here too.
# The one-pass IOCT reader's late-string, damaged and every-truncation
# cases run with the binary pipeline suite, and a one-file directory
# walk of each with the directory ingest suite.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-asan}"

cmake -B "$BUILD" -G Ninja -DIOCOV_SANITIZE=address >/dev/null
cmake --build "$BUILD" -j --target \
  test_binary_format test_binary_pipeline test_text_format \
  test_batch_decode test_dir_ingest \
  test_crash_replay test_crash_oracle test_crashtest \
  test_snapshot test_snapshot_merge test_host_io test_checkpoint \
  test_serve test_cli_parse test_walk test_format_bytes \
  test_core_partition test_core_coverage test_parallel_pipeline \
  test_combos test_partition_oracle test_variant_metamorphic \
  test_filter test_encoding_metamorphic test_histogram test_pair_cells
ctest --test-dir "$BUILD" \
  -R 'Binary|TextFormat|MappedFile|BatchDecode|DirIngest|CrashReplay|CrashOracle|CrashTest|Snapshot|SnapshotMerge|HostIo|Checkpoint|IncrementalMerge|Serve|Protocol|LiveCoverage|ParseU|ParseF|Walk|FormatBytes|Partitioner|Schema|Analyzer|CoverageReport|Tcd|Untested|Merge|ParallelPipeline|ShardDriver|Sharding|ThreadPool|WorkStealing|FeasiblePairs|PairCoverage|PairCells|PartitionHistogram|PartitionOracle|VariantSubstitution|TraceFilter|ReencodeRelation' \
  --output-on-failure -j "$(nproc)"
