#!/usr/bin/env bash
# Release (NDEBUG) gate: build and run the full test suite with asserts
# compiled out.
#
#   ./scripts/check_release.sh [BUILD_DIR]     # default build-release
#
# Several size contracts (core::tcd, core::tcd_linear, stats::rmsd) used
# to be plain asserts, i.e. out-of-bounds reads in any NDEBUG build.
# They throw now, and this gate keeps it that way: the regression tests
# exercise the throwing paths in a configuration where an assert would
# have been compiled to nothing.
#
# The optimizer's view of inlined code raises warnings other builds do
# not see, so the gate also fails when the Release build warns: it
# rebuilds every file (--clean-first) and rejects a `warning:` line in
# the build log.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-release}"

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
log="$BUILD/release-build.log"
cmake --build "$BUILD" -j --clean-first 2>&1 | tee "$log"
if grep -q "warning:" "$log"; then
  echo "check_release: the Release build warns:" >&2
  grep "warning:" "$log" >&2
  exit 1
fi
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
