#!/usr/bin/env bash
# Dead-API gate: the external functions of the src/ libraries that no
# production executable links, checked against a reviewed allowlist.
#
#   ./scripts/list_unused.sh [BUILD_DIR]     # default build-unused
#
# The probe:
#   1. build at -O0 -ffunction-sections -fdata-sections, tests off, so
#      inlining hides no call and every function is its own section;
#   2. link the production executables with -Wl,--gc-sections: the
#      CLI (tools/iocov), the ten figure/table/ablation harnesses,
#      perf_analyzer and the seven examples;
#   3. a function is unused when its demangled `T` symbol in iocov::
#      is defined by one of the src/ static libraries and by none of
#      those executables.
#
# It prints the unused list, then diffs it against
# scripts/unused_allowlist.txt, one `symbol  # reason` per line (blank
# lines and lines starting with # are comments).  It exits 1 on any
# difference either way: a newly unused function (delete it, or
# allowlist it with a reason), or an allowlisted one that is now
# linked or gone (drop its line).
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

BUILD="${1:-build-unused}"
ALLOW=scripts/unused_allowlist.txt
BINARIES="tools/iocov
bench/fig2_open_flags bench/table1_flag_combos bench/fig3_write_sizes
bench/fig4_output_coverage bench/fig5_tcd bench/sec2_bugstudy
bench/ablation_tcd_domain bench/ablation_partitioning
bench/ablation_variants bench/ext_pair_coverage bench/perf_analyzer
examples/quickstart examples/compare_testers examples/untested_finder
examples/trace_offline examples/diff_tester examples/fuzzer_coverage
examples/coverage_diff"

targets=()
for b in $BINARIES; do
  t=${b##*/}
  [ "$t" = iocov ] && t=iocov_cli
  targets+=("$t")
done

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  -DIOCOV_BUILD_TESTS=OFF -DIOCOV_BUILD_BENCH=ON \
  -DIOCOV_BUILD_EXAMPLES=ON >/dev/null
cmake --build "$BUILD" -j --target "${targets[@]}" >/dev/null

work="$BUILD/unused"
mkdir -p "$work"

# `nm -C` prints "ADDR TYPE NAME"; the demangled NAME may hold spaces.
mapfile -t libs < <(find "$BUILD/src" -name 'libiocov_*.a' | sort)
nm -C --defined-only "${libs[@]}" 2>/dev/null |
  sed -n 's/^[0-9a-f]* T \(iocov::.*\)$/\1/p' | sort -u >"$work/defined.txt"
for b in $BINARIES; do
  nm -C --defined-only "$BUILD/$b"
done | sed -n 's/^[0-9a-f]* [A-Za-z] \(iocov::.*\)$/\1/p' |
  sort -u >"$work/linked.txt"
comm -23 "$work/defined.txt" "$work/linked.txt" >"$work/unused.txt"

echo "unused: $(wc -l <"$work/unused.txt") of $(wc -l <"$work/defined.txt")" \
     "external functions in ${#libs[@]} libraries," \
     "$(echo $BINARIES | wc -w) executables"
cat "$work/unused.txt"

{ grep -v -e '^[[:space:]]*$' -e '^#' "$ALLOW" || true; } |
  sed 's/[[:space:]]\+#.*$//' | sort -u >"$work/allowed.txt"
bad=0
while IFS= read -r line; do
  echo "list_unused: not in $ALLOW (delete it or allowlist it): $line" >&2
  bad=1
done < <(comm -23 "$work/unused.txt" "$work/allowed.txt")
while IFS= read -r line; do
  echo "list_unused: allowlisted but linked or gone (drop its line): $line" >&2
  bad=1
done < <(comm -13 "$work/unused.txt" "$work/allowed.txt")
if [ "$bad" -ne 0 ]; then
  echo "list_unused: FAIL" >&2
  exit 1
fi
echo "list_unused: OK ($(wc -l <"$work/allowed.txt") allowlisted)"
