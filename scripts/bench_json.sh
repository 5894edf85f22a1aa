#!/usr/bin/env bash
# Machine-readable analyzer/pipeline benchmark run.
#
#   ./scripts/bench_json.sh [OUT.json]     # default BENCH_analyzer.json
#
# Runs the per-event analyzer bench, the serial and sharded
# consume_text benches (1/2/4/8 worker threads), the text-vs-IOCT
# ingest comparison (BM_IngestTextSerial vs BM_IngestBinarySerial vs
# the batched BM_IngestBinaryBatched hot path), the pid-sharded and
# read-copy consume_binary benches, the IOCS snapshot benches
# (BM_SnapshotSave/Load/Merge — merge bytes/sec is against the raw
# trace bytes the snapshots replace, comparable to
# BM_IngestBinaryBatched), BM_ServeIngest and the BM_MemoryBandwidth
# roofline baseline, and writes the google-benchmark JSON to OUT.
# Paths the end-to-end bench of record (perfbench/) times, such as the
# filter and serial or mmap'd IOCT ingest, are measured there instead.
# The threaded rows (.../N/real_time) report wall-clock time; the
# other rows' items_per_second is CPU-time based.
#
# Provenance: benchmarks run off the Release build (build-release/),
# never the default RelWithDebInfo dev tree, and the run is refused
# after the fact unless the JSON's own iocov_build_type context —
# recorded by the bench binary from its NDEBUG/__OPTIMIZE__ state —
# says "release".  (The Debian libbenchmark package hard-codes
# "library_build_type": "debug" into every JSON regardless of how the
# bench binary was compiled; iocov_build_type is the field that
# actually reflects this binary.)
#
# Preflight: the ASan and UBSan gates run first so a benchmark number
# is never published off a build with a latent memory or UB bug, a
# Release (NDEBUG) build-and-test pass keeps the throwing size
# contracts honest where asserts would vanish, check_perf.sh refuses
# to publish numbers from a regressed decoder, and check_perf_ab.sh
# refuses them when the end-to-end perfbench numbers regressed against
# the parent commit.  list_unused.sh then refuses them while a src/
# function no production binary links is missing from
# scripts/unused_allowlist.txt (or an allowlisted one is linked again).
# Set IOCOV_SKIP_SANITIZERS=1 to skip them (e.g. quick local re-runs).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${IOCOV_SKIP_SANITIZERS:-0}" != "1" ]; then
  echo "preflight: ASan gate (IOCOV_SKIP_SANITIZERS=1 to skip)"
  ./scripts/check_asan.sh
  echo "preflight: UBSan gate"
  ./scripts/check_ubsan.sh
  echo "preflight: Release (NDEBUG) gate"
  ./scripts/check_release.sh
  echo "preflight: crash-consistency gate"
  ./scripts/check_crash.sh
  echo "preflight: host durability (chaos) gate"
  ./scripts/check_chaos.sh
  echo "preflight: live coverage daemon (serve) gate"
  ./scripts/check_serve.sh
fi

echo "preflight: perf regression gate"
./scripts/check_perf.sh
echo "preflight: end-to-end perf A/B gate against HEAD~1"
./scripts/check_perf_ab.sh
echo "preflight: dead-API gate (unused functions vs the allowlist)"
./scripts/list_unused.sh >/dev/null

OUT="${1:-BENCH_analyzer.json}"
BUILD=build-release
BENCH="$BUILD"/bench/perf_analyzer

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target perf_analyzer iocov_cli -j >/dev/null

"$BENCH" \
  --benchmark_filter='BM_(AnalyzerThroughput|ConsumeTextSerial|ConsumeTextParallel|IngestTextSerial|IngestBinary|ConsumeBinary|MemoryBandwidth|Snapshot|ServeIngest).*' \
  --benchmark_repetitions="${IOCOV_BENCH_REPS:-3}" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json >/dev/null

# Refuse a run whose own provenance says it was not a Release binary.
if ! python3 - "$OUT" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    ctx = json.load(f)["context"]
build_type = ctx.get("iocov_build_type")
if build_type != "release":
    print(f"error: {path} was produced by a non-Release bench binary "
          f"(iocov_build_type={build_type!r}); refusing to keep it",
          file=sys.stderr)
    sys.exit(1)
print("provenance: iocov_build_type=release")
EOF
then
  rm -f "$OUT"
  exit 1
fi

echo "wrote $OUT"
grep -o '"name": "[^"]*_median"' "$OUT" | sed 's/"name": //' || true

# Smoke the guided synthesizer end to end: a tiny crashmonkey baseline
# must still converge (exit 0) and print its before/after table.
echo "smoke: iocov guide"
"$BUILD"/tools/iocov guide --suite crashmonkey --scale 0.002 --seed 42 \
  --rounds 2 | tail -4
