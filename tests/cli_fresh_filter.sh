#!/bin/sh
# Runs `iocov analyze` over two trace files at --threads 1 and 4 and
# checks the saved reports match.  pid 7 opens fd 3 in the first file
# and writes and closes it in the second; every trace file starts from
# fresh filter state, so the write and close are out of scope at any
# thread count.  Checked for text traces and for their IOCT twins.
#
#   tests/cli_fresh_filter.sh IOCOV WORKDIR
set -eu
iocov=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
cat > "$dir/a.trace" <<'TRACE'
[000000000] pid=7 tid=7 open: pathname="/mnt/test/f", flags=0x42, mode=0x1a4 = 3
[000000001] pid=8 tid=8 open: pathname="/mnt/test/g", flags=0x0, mode=0x0 = 4
TRACE
cat > "$dir/b.trace" <<'TRACE'
[000000002] pid=7 tid=7 write: fd=3, count=0x100 = 256
[000000003] pid=7 tid=7 close: fd=3 = 0
TRACE
"$iocov" convert "$dir/a.trace" "$dir/a.ioct" >/dev/null
"$iocov" convert "$dir/b.trace" "$dir/b.ioct" >/dev/null
for kind in trace ioct; do
    for threads in 1 4; do
        "$iocov" analyze --threads "$threads" --save "$dir/$kind.$threads.cov" \
            "$dir/a.$kind" "$dir/b.$kind" >/dev/null
    done
    cmp "$dir/$kind.1.cov" "$dir/$kind.4.cov"
done
cmp "$dir/trace.1.cov" "$dir/ioct.1.cov"
