#!/usr/bin/env bash
# UndefinedBehaviorSanitizer gate for the fault-handling surface.
#
#   ./scripts/check_ubsan.sh [BUILD_DIR]    # default build-ubsan
#
# Fault campaigns steer the kernel model down its rarest error paths,
# and the decoders (IOCT trace, IOCS snapshot and IOCK checkpoint
# alike, plus their pinned encodings) chew on
# deliberately corrupted bytes — both are where latent UB (signed
# overflow in varint math, bad shifts, invalid enum loads) would
# hide.  This configures a full
# IOCOV_SANITIZE=undefined tree (recovery disabled, so any report is a
# hard failure) and runs the fsck, fault, campaign, and decoder suites
# under it — plus the serve frame decoder (u32 length math on hostile
# socket bytes), the live-coverage merge path, and the strict CLI
# numeric parsers (overflow rejection is exactly where UB would hide).
# The analyzer's index arithmetic (core/schema: row indices, log2
# buckets, errno tables, pair cells) runs here too: partitioning,
# coverage, the partition-inverse oracle, flag pairs, the histogram
# merge, the parallel pipeline and the variant-substitution relations.
# The trace filter's per-pid table (pids read from untrusted trace
# files) and the re-encoding relations, which renumber pids up to
# UINT32_MAX, run here too.  So do the binary pipeline and directory
# ingest suites: the one-pass IOCT reader indexes a string table and a
# binding that grow while it decodes, on late-string, damaged and
# truncated files.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-ubsan}"

cmake -B "$BUILD" -G Ninja -DIOCOV_SANITIZE=undefined >/dev/null
cmake --build "$BUILD" -j --target \
  test_fsck test_fault test_campaign test_ingest_faults \
  test_binary_format test_binary_pipeline test_dir_ingest \
  test_text_format test_batch_decode \
  test_crash_replay test_crash_oracle test_state_diff \
  test_snapshot test_snapshot_merge test_host_io \
  test_serve test_cli_parse test_walk test_checkpoint test_format_bytes \
  test_core_partition test_core_coverage test_parallel_pipeline \
  test_combos test_partition_oracle test_variant_metamorphic \
  test_filter test_encoding_metamorphic test_histogram test_pair_cells
ctest --test-dir "$BUILD" \
  -R 'Fsck|Fault|Campaign|IngestFaults|Binary|DirIngest|TextFormat|BatchDecode|CrashReplay|CrashOracle|StateDiff|Snapshot|SnapshotMerge|HostIo|Serve|Protocol|LiveCoverage|ParseU|ParseF|Walk|Checkpoint|IncrementalMerge|FormatBytes|Partitioner|Schema|Analyzer|CoverageReport|Tcd|Untested|Merge|ParallelPipeline|ShardDriver|Sharding|ThreadPool|WorkStealing|FeasiblePairs|PairCoverage|PairCells|PartitionHistogram|PartitionOracle|VariantSubstitution|TraceFilter|ReencodeRelation' \
  --output-on-failure -j "$(nproc)"
