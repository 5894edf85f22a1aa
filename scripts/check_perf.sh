#!/usr/bin/env bash
# Performance smoke gate: the batched IOCT decode, the serial row loop
# and the snapshot save/load/merge paths must not regress.
#
#   ./scripts/check_perf.sh
#
# Builds the Release bench binary, runs a short pass over the gated
# benches (BM_IngestBinaryBatched + BM_ConsumeBinaryParallel/1 +
# BM_Snapshot{Save,SaveDurable,Load,Merge} + BM_ServeIngest), and fails
# (exit 1) if any median throughput drops more than 20% below the
# checked-in floor (scripts/perf_floor.txt).
# BM_IngestBinaryBatched times scan + decode only; the serial row loop
# behind `iocov analyze` (decode + filter + analyze, one lane) is gated
# by BM_ConsumeBinaryParallel/1.
# BM_SnapshotSaveDurable covers the atomic temp+fsync+rename write
# path every artifact now goes through.
# BM_SnapshotMerge's floor is deliberately ≥10x the ingest floor: its
# bytes/sec is measured against the raw trace bytes the snapshots
# replace, so the gate enforces the "fleet aggregation beats
# re-ingesting" contract, not just absolute speed.
# BM_ServeIngest gates the live daemon's per-push cost (frame decode +
# incremental merge + epoch publication) so `iocov serve` ingest
# cannot silently degenerate relative to the batch path.  The
# floor itself is recorded conservatively (~0.75x a quiet-machine run)
# so scheduler noise does not trip the gate while a real regression
# still does.  Wired into scripts/bench_json.sh as a preflight so a
# regressed decoder cannot silently re-record BENCH_analyzer.json.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-release
cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target perf_analyzer -j >/dev/null

OUT=$(mktemp /tmp/iocov_check_perf.XXXXXX.json)
trap 'rm -f "$OUT"' EXIT

"$BUILD"/bench/perf_analyzer \
  --benchmark_filter='^BM_(IngestBinaryBatched|ConsumeBinaryParallel/1/real_time|SnapshotSave|SnapshotSaveDurable|SnapshotLoad|SnapshotMerge|ServeIngest)$' \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json >/dev/null

python3 - "$OUT" scripts/perf_floor.txt <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    run = json.load(f)

floors = {}
with open(sys.argv[2]) as f:
    for line in f:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.split()
        floors[name] = float(value)

medians = {
    b["name"]: b
    for b in run["benchmarks"]
    if b.get("aggregate_name") == "median"
}

failed = False
for key, floor in floors.items():
    bench, metric = key.rsplit("_bytes_per_second", 1)[0], "bytes_per_second"
    row = medians.get(bench + "_median")
    if row is None or metric not in row:
        print(f"check_perf: FAIL — no median {metric} for {bench} in run")
        failed = True
        continue
    got = float(row[metric])
    limit = 0.8 * floor
    verdict = "ok" if got >= limit else "REGRESSED"
    print(f"check_perf: {bench} {got / 1e6:.1f} MB/s "
          f"(floor {floor / 1e6:.0f}, limit {limit / 1e6:.0f}) {verdict}")
    if got < limit:
        failed = True

sys.exit(1 if failed else 0)
EOF
echo "check_perf: pass"
