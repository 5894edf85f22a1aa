#!/usr/bin/env bash
# Chaos gate for the host durability contract (DESIGN.md §12).
#
#   ./scripts/check_chaos.sh
#
# Eats our own dogfood: the same fault-injection discipline iocov
# applies to the file systems it measures is applied to iocov's own
# artifact writes, via host::FaultHook (`--self-fault` / the
# IOCOV_SELF_FAULT env).  Five stages:
#
#   1. the `chaos`-labelled unit suites (fork+SIGKILL kill loops over
#      save_snapshot_file, torn-write offsets, errno sweeps) under the
#      Release tree;
#   2. the same suites under a full ASan tree (a durability bug that
#      is also a heap bug should fail loudly here);
#   3. CLI-level chaos: >=208 randomized SIGKILL points (op-indexed and
#      torn-write-offset) into `iocov merge`, plus a full
#      ENOSPC/EIO/EINTR sweep over every host-I/O op, asserting the
#      durability oracle after every run — the output path holds the
#      prior complete artifact or a new complete artifact, never a
#      torn one;
#   4. resumable-ingest byte-identity: `iocov merge`/`iocov analyze`
#      killed mid-walk and resumed (--checkpoint/--resume) produce
#      byte-identical artifacts to an uninterrupted run, at --threads
#      1 and 4 (for analyze: the report at both, the snapshot and
#      stderr at 1), and the manifest is removed on success; two
#      `analyze --snapshot` runs over one input are byte-identical;
#   5. the live daemon's socket surface: check_serve.sh's faults stage
#      injects accept/sock-read/sock-write errnos into a running
#      `iocov serve` — connections may degrade, the daemon must not,
#      and once the faults drain re-pushing converges to the
#      byte-identical batch report.
#
# Set IOCOV_SKIP_SANITIZERS=1 to skip stage 2 (quick local re-runs);
# IOCOV_CHAOS_KILLS overrides the randomized kill-point count.
set -euo pipefail
cd "$(dirname "$0")/.."

RELEASE=build-release
cmake -B "$RELEASE" -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$RELEASE" -j --target \
  test_host_chaos test_host_io test_checkpoint iocov_cli trace_offline \
  >/dev/null

echo "chaos: unit kill-loop + fault sweeps (Release)"
ctest --test-dir "$RELEASE" -L chaos --output-on-failure -j "$(nproc)"

if [ "${IOCOV_SKIP_SANITIZERS:-0}" != "1" ]; then
  echo "chaos: unit kill-loop + fault sweeps (ASan)"
  ASAN=build-asan
  cmake -B "$ASAN" -G Ninja -DIOCOV_SANITIZE=address >/dev/null
  cmake --build "$ASAN" -j --target \
    test_host_chaos test_host_io test_checkpoint >/dev/null
  ctest --test-dir "$ASAN" -L chaos --output-on-failure -j "$(nproc)"
fi

CLI="$RELEASE"/tools/iocov
OFFLINE="$RELEASE"/examples/trace_offline
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# ---- CLI fixtures ----------------------------------------------------------
# A small text trace, transcoded to IOCT, analyzed into 6 snapshot
# shards (identical shards: merge is exact, so their order cannot
# matter), plus an IOCT directory for the analyze-resume stage.
"$OFFLINE" "$TMP/trace.txt" >/dev/null
"$CLI" convert "$TMP/trace.txt" "$TMP/trace.ioct" >/dev/null
mkdir "$TMP/shards" "$TMP/traces"
for i in 0 1 2 3 4 5; do
  "$CLI" analyze "$TMP/trace.ioct" --snapshot "$TMP/shards/s$i.iocs" \
    >/dev/null
done
for i in 0 1 2 3; do
  cp "$TMP/trace.ioct" "$TMP/traces/t$i.ioct"
done
# Damage first in walk order, so its diagnostics are in the manifest
# a resumed walk starts from.
head -c 300 "$TMP/trace.ioct" > "$TMP/traces/s0_torn.ioct"
echo "not a trace" > "$TMP/traces/s1_notes.txt"

WANT="$TMP/want.iocs"     # the new complete artifact
PRIOR="$TMP/prior.iocs"   # the prior complete artifact being replaced
OUT="$TMP/out.iocs"
"$CLI" merge --threads 1 -o "$WANT" "$TMP/shards" >/dev/null
"$CLI" merge --threads 1 -o "$PRIOR" "$TMP/shards/s0.iocs" >/dev/null
cmp -s "$WANT" "$PRIOR" && { echo "chaos: fixture degenerate"; exit 1; }

# The durability oracle.  $1 = context string.
oracle() {
  if cmp -s "$OUT" "$PRIOR" || cmp -s "$OUT" "$WANT"; then
    return 0
  fi
  # Neither generation byte-for-byte (e.g. a read-side fault dropped a
  # shard): still must be a *complete* decodable snapshot, never torn.
  if ! "$CLI" analyze --strict "$OUT" >/dev/null 2>&1; then
    echo "chaos: ORACLE VIOLATION ($1): $OUT is torn or missing" >&2
    exit 1
  fi
}

# Crash debris (orphaned temp files) is acceptable after SIGKILL;
# start each point clean so debris from one run cannot mask another.
clean_debris() { rm -f "$TMP"/.*.tmp.* 2>/dev/null || true; }

# Runs a self-faulted CLI command that is expected to die by SIGKILL.
# The two-statement subshell forces a real fork (bash would otherwise
# exec a lone command), so the shell that reaps the killed child — and
# would print "Killed" — has its stderr redirected away.
faulted() {
  ( "$@" >/dev/null 2>&1
    exit $? ) 2>/dev/null
}

# Probe the host-op space of one full merge run (stats clause = count
# every consulted op, fire nothing).
IOCOV_SELF_FAULT="stats:$TMP/stats.txt" \
  "$CLI" merge --threads 1 -o "$OUT" "$TMP/shards" >/dev/null
TOTAL=$(awk '$1 == "total" {print $2}' "$TMP/stats.txt")
NWRITES=$(awk '$1 == "write" {print $2}' "$TMP/stats.txt")
WBYTES=$(awk '$1 == "write_bytes" {print $2}' "$TMP/stats.txt")
[ "${TOTAL:-0}" -ge 7 ] || { echo "chaos: op probe failed"; exit 1; }

# ---- stage 3a: randomized SIGKILL points -----------------------------------
KILLS="${IOCOV_CHAOS_KILLS:-160}"
TORN=64
echo "chaos: $KILLS op-indexed + $TORN torn-write SIGKILL points" \
     "over $TOTAL host ops"
RANDOM=1337
for i in $(seq 1 "$KILLS"); do
  k=$(( (RANDOM % TOTAL) + 1 ))
  cp "$PRIOR" "$OUT"; clean_debris
  rc=0
  faulted "$CLI" merge --threads 1 --self-fault "kill:any:$k" \
    -o "$OUT" "$TMP/shards" || rc=$?
  [ "$rc" -eq 137 ] || {
    echo "chaos: kill:any:$k exited $rc, expected SIGKILL(137)" >&2
    exit 1
  }
  oracle "kill:any:$k"
done
for i in $(seq 1 "$TORN"); do
  w=$(( (RANDOM % NWRITES) + 1 ))
  off=$(( RANDOM % (WBYTES + 1) ))
  cp "$PRIOR" "$OUT"; clean_debris
  rc=0
  faulted "$CLI" merge --threads 1 --self-fault "kill:write:$w:$off" \
    -o "$OUT" "$TMP/shards" || rc=$?
  [ "$rc" -eq 137 ] || {
    echo "chaos: kill:write:$w:$off exited $rc, expected 137" >&2
    exit 1
  }
  oracle "kill:write:$w:$off"
  # A torn temp write never reaches the destination at all.
  cmp -s "$OUT" "$PRIOR" || {
    echo "chaos: kill:write:$w:$off mutated the destination" >&2
    exit 1
  }
done

# ---- stage 3b: full errno sweep over every op ------------------------------
echo "chaos: ENOSPC/EIO/EINTR sweep over all $TOTAL ops"
for err in ENOSPC EIO; do
  for k in $(seq 1 "$TOTAL"); do
    cp "$PRIOR" "$OUT"; clean_debris
    rc=0
    "$CLI" merge --threads 1 --self-fault "errno:any:$err:$k" \
      -o "$OUT" "$TMP/shards" >/dev/null 2>&1 || rc=$?
    # 0 = fault hit a tolerated read (shard diagnosed + skipped) or a
    # post-rename sync; 3 = structured I/O failure.  Anything else —
    # including a crash — is a bug.
    case "$rc" in 0|3) ;; *)
      echo "chaos: errno:any:$err:$k exited $rc" >&2; exit 1 ;;
    esac
    oracle "errno:any:$err:$k"
    if [ "$rc" -eq 0 ]; then
      "$CLI" analyze --strict "$OUT" >/dev/null 2>&1 || {
        echo "chaos: errno:any:$err:$k: exit 0 but torn output" >&2
        exit 1
      }
    fi
  done
done
for k in $(seq 1 "$TOTAL"); do
  cp "$PRIOR" "$OUT"; clean_debris
  "$CLI" merge --threads 1 --self-fault "errno:any:EINTR:$k" \
    -o "$OUT" "$TMP/shards" >/dev/null 2>&1 || {
    echo "chaos: errno:any:EINTR:$k was not retried to success" >&2
    exit 1
  }
  cmp -s "$OUT" "$WANT" || {
    echo "chaos: errno:any:EINTR:$k changed the output bytes" >&2
    exit 1
  }
done

# ---- stage 4: kill + resume byte-identity ----------------------------------
echo "chaos: merge/analyze --resume byte-identity after SIGKILL"
CK="$TMP/walk.iock"
IOCOV_SELF_FAULT="stats:$TMP/stats_ck.txt" \
  "$CLI" merge --threads 1 --checkpoint "$CK" --checkpoint-every 1 \
  -o "$OUT" "$TMP/shards" >/dev/null
TOTAL_CK=$(awk '$1 == "total" {print $2}' "$TMP/stats_ck.txt")
rm -f "$CK"

for threads in 1 4; do
  "$CLI" merge --threads "$threads" -o "$TMP/want_t.iocs" "$TMP/shards" \
    >/dev/null
  cmp "$TMP/want_t.iocs" "$WANT"   # thread-count invariance
  for frac in 4 2 1; do
    k=$(( TOTAL_CK * frac / 5 + 1 ))
    rm -f "$CK"; cp "$PRIOR" "$OUT"; clean_debris
    rc=0
    faulted "$CLI" merge --threads "$threads" --checkpoint "$CK" \
      --checkpoint-every 1 --resume --self-fault "kill:any:$k" \
      -o "$OUT" "$TMP/shards" || rc=$?
    [ "$rc" -eq 137 ] || {
      echo "chaos: resume fixture kill:any:$k exited $rc" >&2; exit 1
    }
    clean_debris
    "$CLI" merge --threads "$threads" --checkpoint "$CK" --resume \
      -o "$OUT" "$TMP/shards" >/dev/null
    cmp "$OUT" "$WANT" || {
      echo "chaos: resumed merge differs (threads=$threads k=$k)" >&2
      exit 1
    }
    [ ! -e "$CK" ] || {
      echo "chaos: manifest not removed after successful merge" >&2
      exit 1
    }
  done
done

# analyze DIR/ --resume: the resumed report matches the uninterrupted
# run's at any --threads; at --threads 1 the snapshot and stderr match
# too (with more lanes, a snapshot records the widest segment's lane
# count).
"$CLI" analyze "$TMP/traces" --threads 1 --save "$TMP/want_report.txt" \
  --snapshot "$TMP/want_an.iocs" >/dev/null 2>"$TMP/want_an.err"
IOCOV_SELF_FAULT="stats:$TMP/stats_an.txt" \
  "$CLI" analyze "$TMP/traces" --threads 1 --checkpoint "$CK" \
  --checkpoint-every 1 --save "$TMP/r.txt" >/dev/null 2>&1
TOTAL_AN=$(awk '$1 == "total" {print $2}' "$TMP/stats_an.txt")
rm -f "$CK"
for threads in 1 4; do
  k=$(( TOTAL_AN / 2 + 1 ))
  rm -f "$CK" "$TMP/r.txt" "$TMP/r.iocs"; clean_debris
  rc=0
  faulted "$CLI" analyze "$TMP/traces" --threads "$threads" \
    --checkpoint "$CK" --checkpoint-every 1 --resume \
    --self-fault "kill:any:$k" --save "$TMP/r.txt" \
    --snapshot "$TMP/r.iocs" || rc=$?
  [ "$rc" -eq 137 ] || {
    echo "chaos: analyze kill:any:$k exited $rc" >&2; exit 1
  }
  clean_debris
  "$CLI" analyze "$TMP/traces" --threads "$threads" --checkpoint "$CK" \
    --resume --save "$TMP/r.txt" --snapshot "$TMP/r.iocs" \
    >/dev/null 2>"$TMP/r.err"
  cmp "$TMP/r.txt" "$TMP/want_report.txt" || {
    echo "chaos: resumed analyze report differs (threads=$threads)" >&2
    exit 1
  }
  if [ "$threads" -eq 1 ]; then
    cmp "$TMP/r.iocs" "$TMP/want_an.iocs" || {
      echo "chaos: resumed analyze snapshot differs (threads=1)" >&2
      exit 1
    }
    cmp "$TMP/r.err" "$TMP/want_an.err" || {
      echo "chaos: resumed analyze stderr differs (threads=1)" >&2
      exit 1
    }
  fi
  [ ! -e "$CK" ] || {
    echo "chaos: manifest not removed after successful analyze" >&2
    exit 1
  }
done

# A snapshot holds no wall-clock time, so two runs over the same
# input write byte-identical snapshots.
"$CLI" analyze "$TMP/traces" --threads 1 --snapshot "$TMP/run1.iocs" \
  >/dev/null 2>&1
"$CLI" analyze "$TMP/traces" --threads 1 --snapshot "$TMP/run2.iocs" \
  >/dev/null 2>&1
cmp "$TMP/run1.iocs" "$TMP/run2.iocs" || {
  echo "chaos: two analyze --snapshot runs differ" >&2
  exit 1
}

# ---- stage 5: live daemon socket-errno sweep -------------------------------
echo "chaos: serve socket-errno sweep (check_serve.sh faults stage)"
IOCOV_SERVE_STAGE=faults ./scripts/check_serve.sh

echo "chaos gate: OK ($((KILLS + TORN)) kill points, full errno sweep)"
