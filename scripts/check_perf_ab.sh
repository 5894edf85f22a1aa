#!/usr/bin/env bash
# A/B performance gate: the working tree against a base commit, end to
# end, on the bench of record (perfbench/).
#
#   ./scripts/check_perf_ab.sh [BASE]      # BASE defaults to HEAD~1
#
# Absolute numbers drift between sessions on a shared host; only runs
# of both sides interleaved in one session compare.  So this script
# extracts BASE's committed tree into build-ab/base-REV/ (git archive:
# unlike a git worktree it leaves nothing behind in .git; kept for
# reruns) and runs `python3 perfbench/run.py --trace 0` in it and in
# the working tree, each building its own Release tree (.bench_build/).
# Every workload runs 3 times per side, alternating sides and which
# side goes first.  It fails (exit 1) if any run fails or reports
# `correct: false` or an error_rate above 0, or if the working tree's
# median of any end-to-end metric is worse than BASE's by more than
# that metric's `bound` in BENCHMARK.json.  It prints the per-run table
# that EXPERIMENTS.md sections use.  Run logs stay in build-ab/runs/.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-HEAD~1}"
RUNS=3
SEED=1
WORKLOADS="xfstests-serial fleet-dir serve-mixed"
OUT=build-ab

rev=$(git rev-parse --verify "$BASE^{commit}")
echo "perf A/B: $BASE ($rev) vs the working tree," \
     "$RUNS runs per side per workload"
base="$OUT/base-$rev"
if [ ! -d "$base" ]; then
  rm -rf "$base.tmp"
  mkdir -p "$base.tmp"
  git archive "$rev" | tar -x -C "$base.tmp"
  mv "$base.tmp" "$base"
fi
rm -rf "$OUT/runs"
mkdir -p "$OUT/runs"

run_side() {  # side workload run
  local dir=. log="$OUT/runs/$2.$1.$3.txt"
  [ "$1" = base ] && dir="$base"
  echo "  $2 run $3: $1"
  if ! (cd "$dir" && python3 perfbench/run.py --workload "$2" \
          --seed "$SEED" --trace 0) >"$log" 2>"$log.err"; then
    echo "perf A/B: $1 run of $2 failed:" >&2
    tail -5 "$log.err" >&2
  fi
}

for w in $WORKLOADS; do
  for i in $(seq 1 "$RUNS"); do
    if [ $((i % 2)) -eq 1 ]; then
      run_side base "$w" "$i"; run_side head "$w" "$i"
    else
      run_side head "$w" "$i"; run_side base "$w" "$i"
    fi
  done
done

python3 - "$OUT/runs" "$RUNS" $WORKLOADS <<'EOF'
import json, statistics, sys
from pathlib import Path

runs_dir, n = Path(sys.argv[1]), int(sys.argv[2])
workloads = sys.argv[3:]
spec = {m["name"]: m for m in
        json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
failures = []

def load(w, side, i):
    """One run's end-to-end metrics, or None if it did not finish."""
    lines = (runs_dir / f"{w}.{side}.{i}.txt").read_text().splitlines()
    if not lines or not lines[-1].startswith("{"):
        failures.append(f"{w} {side} run {i}: no result")
        return None
    result = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail: "):]) for l in lines
                  if l.startswith("detail: "))
    if not result["correct"] or detail["error_rate"] > 0:
        failures.append(f"{w} {side} run {i}: correct={result['correct']} "
                        f"error_rate={detail['error_rate']}")
    return {k: v["value"] for k, v in result["metrics"].items()}

def fmt(name, v):
    return f"{v / 1e6:.2f}" if name == "events_per_s" else (
        f"{v * 1e3:.2f}" if name == "setup_s" else f"{v:.2f}")

names = list(spec)
head = ["events_per_s (M)" if k == "events_per_s" else
        "setup_s (ms)" if k == "setup_s" else k for k in names]
print("\n| workload | side | " + " | ".join(head) + " |")
print("|---|---|" + "---|" * len(names))
verdicts = []
for w in workloads:
    medians = {}
    for side, label in (("base", "parent"), ("head", "change")):
        runs = [r for r in (load(w, side, i) for i in range(1, n + 1)) if r]
        if not runs:
            continue
        medians[side] = {k: statistics.median(r[k] for r in runs)
                         for k in names}
        cells = [", ".join(fmt(k, r[k]) for r in runs) +
                 f" → **{fmt(k, medians[side][k])}**" for k in names]
        print(f"| {w} | {label} | " + " | ".join(cells) + " |")
    if len(medians) < 2:
        continue
    for k in names:
        b, h, m = medians["base"][k], medians["head"][k], spec[k]
        change = (h - b) / b if b else 0.0
        worse = -change if m["better"] == "higher" else change
        verdicts.append(f"{w} {k}: {change:+.1%} (bound {m['bound']:.0%})")
        if worse > m["bound"]:
            failures.append(f"{w} {k}: median {change:+.1%} vs base, "
                            f"worse than its bound {m['bound']:.0%}")

print("\nmedian change vs base:")
for v in verdicts:
    print("  " + v)
if failures:
    print("\nperf A/B: FAIL", file=sys.stderr)
    for f in failures:
        print("  " + f, file=sys.stderr)
    sys.exit(1)
print("\nperf A/B: OK")
EOF
