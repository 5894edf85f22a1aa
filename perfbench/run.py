#!/usr/bin/env python3
"""Bench of record for iocov: `iocov analyze` and `iocov serve`, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the iocov CLI and the
perfbench helper (Release) into $CARGO_TARGET_DIR (default .bench_build),
generates the workload's inputs from the seed (cached per workload, seed
and generator version), then:

  --trace 0  times the CLI or the daemon as a black box and prints the
             end-to-end metrics;
  --trace 1  runs the traced in-process replay, the CLI once more for
             its overhead, and a daemon pass, and prints the per-layer
             metrics.

Every output is checked for correctness.  Human-readable lines and a
`detail:` JSON line come first; the last line of stdout is the result.
README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import re
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("xfstests-serial", "fleet-dir", "serve-mixed")

SETUPS_PER_RUN = 3         # batch setup_s: header-only runs per timed run
SERVE_SETUP_REPEATS = 21   # serve setup_s: daemon spawns
MIN_TIMED_RUNS = 3         # batch CLI runs, at least, per measured window
CLI_OVERHEAD_REPEATS = 3   # traced run: CLI --threads 1 runs
CACHED_INPUT_SETS = 3      # generated input sets kept per workload
DAEMON_FLAGS = ["--checkpoint", "serve.iock", "--checkpoint-every", "16",
                "--delta-dir", "deltas", "--delta-every", "64"]


class BenchError(Exception):
    """The benchmark cannot run (no sources, build failure, bad build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def lanes():
    """Worker threads for the parallel workloads: nproc, at most 4."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def sh(args, timeout, cwd=None):
    """Runs a helper command, returning its stdout; raises on failure."""
    p = subprocess.run([str(a) for a in args], cwd=cwd, timeout=timeout,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if p.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args))} exited "
                         f"{p.returncode}: {p.stderr.strip()[-2000:]}")
    return p.stdout


def run_timed(args, timeout, stderr, cwd=None):
    """Runs one black-box command: (wall seconds, peak RSS MB, exit code).

    Wall time spans spawn to reap; peak RSS is the child's ru_maxrss
    from wait4.  A command past `timeout` is killed (and fails).
    """
    t0 = time.perf_counter()
    p = subprocess.Popen([str(a) for a in args], cwd=cwd,
                         stdout=subprocess.DEVNULL, stderr=stderr)
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, p.returncode


# ---- build and provenance --------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"iocov sources not found in {ROOT}")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir.mkdir(parents=True, exist_ok=True)
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
            *gen], timeout=300)
    sh(["cmake", "--build", bdir, "--target", "perfbench", "iocov_cli",
        "--parallel", str(len(os.sched_getaffinity(0)))], timeout=850)
    return bdir


def provenance(bdir, perfbench, seed):
    """Refuses a non-Release build, like scripts/bench_json.sh does."""
    cache = (bdir / "CMakeCache.txt").read_text()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    build_type = m.group(1).strip() if m else ""
    helper = json.loads(sh([perfbench, "provenance"], timeout=30))
    if build_type != "Release" or helper["build_type"] != "release":
        raise BenchError(f"refusing to benchmark a non-Release build "
                         f"(CMAKE_BUILD_TYPE={build_type!r}, helper "
                         f"{helper['build_type']})")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = sh(["git", "-C", ROOT, "rev-parse", "HEAD"],
                        timeout=30).strip()
        except (BenchError, OSError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "lanes": lanes(),
            "build_type": build_type, "commit": commit, "seed": seed,
            "gen_version": helper["gen_version"]}


# ---- inputs ----------------------------------------------------------------

def read_manifest(d):
    lines = (d / "manifest.tsv").read_text().splitlines()
    keys = lines[0].split("\t")
    rows = [dict(zip(keys, line.split("\t"))) for line in lines[1:]]
    for r in rows:
        for k in ("events", "bytes", "pids", "noise_events"):
            r[k] = int(r[k])
    return rows


def inputs(bdir, perfbench, workload, seed, gen_version):
    """Generated inputs, cached by workload, seed and generator version."""
    base = bdir / "perfbench-inputs"
    d = base / f"{workload}-s{seed}-g{gen_version}"
    if not (d / "manifest.tsv").is_file():
        tmp = base / (d.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        sh([perfbench, "gen", "--workload", workload, "--seed", seed,
            "--out", tmp, "--threads", lanes()], timeout=150)
        shutil.rmtree(d, ignore_errors=True)
        tmp.rename(d)
        sets = sorted(base.glob(f"{workload}-s*-g*[0-9]"),
                      key=lambda p: p.stat().st_mtime)
        for old in sets[:-CACHED_INPUT_SETS]:
            shutil.rmtree(old, ignore_errors=True)
    os.utime(d)
    return d, read_manifest(d)


# What `iocov analyze` runs on, per workload (paths relative to the
# input directory), and the manifest kinds those paths hold.
ANALYZE_ARGS = {
    "xfstests-serial": (["trace/trace.ioct"], ("trace",)),
    "fleet-dir": (["shards"], ("shard",)),
    "serve-mixed": (["small", "large"], ("small", "large")),
}


def describe_inputs(manifest, kinds):
    files = [r for r in manifest if r["kind"] in kinds]
    events = sum(r["events"] for r in files)
    noise = sum(r["noise_events"] for r in files)
    return {"files": len(files), "events": events,
            "bytes": sum(r["bytes"] for r in files),
            "pids_per_file_max": max(r["pids"] for r in files),
            "out_of_scope_share": noise / events if events else 0.0}


# ---- run bookkeeping -------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the names of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            log(f"perfbench: FAILED: {what}")
        return ok

    def count(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")


def analyze_cmd(iocov, threads, save, snapshot, targets):
    cmd = [iocov, "analyze", "--threads", threads, "--save", save]
    if snapshot:
        cmd += ["--snapshot", snapshot]
    return cmd + list(targets)


# ---- batch workloads -------------------------------------------------------

def batch_e2e(ctx, seconds, tally):
    """xfstests-serial / fleet-dir: the CLI run repeatedly for `seconds`."""
    w, work, gdir, iocov = ctx["workload"], ctx["work"], ctx["inputs"], ctx["iocov"]
    threads = 1 if w == "xfstests-serial" else lanes()
    snapshot = work / "out.iocs" if w == "fleet-dir" else None
    rel, kinds = ANALYZE_ARGS[w]
    targets = [gdir / r for r in rel]
    out = work / "out.cov"
    err = open(work / "cli.err", "ab")

    reference = work / "reference.cov"
    sh([ctx["perfbench"], "reference", "--inputs", gdir, "--out", reference],
       timeout=120)
    expected = reference.read_bytes()

    setup_cmd = analyze_cmd(iocov, threads, work / "setup.cov",
                            work / "setup.iocs" if snapshot else None,
                            [gdir / "empty.ioct"])
    cmd = analyze_cmd(iocov, threads, out, snapshot, targets)
    run_timed(cmd, 120, err)  # warm the page cache; not measured
    events = ctx["input_stats"]["events"]
    walls, rss, setups = [], [], []
    end = time.perf_counter() + seconds
    while len(walls) < MIN_TIMED_RUNS or time.perf_counter() < end:
        # Set-up runs are spread over the window, so a burst of load on
        # the host does not land on all of them.
        for _ in range(SETUPS_PER_RUN):
            wall, _, rc = run_timed(setup_cmd, 60, err)
            tally.op(rc == 0, f"setup run exited {rc}")
            setups.append(wall)
        out.unlink(missing_ok=True)
        wall, peak, rc = run_timed(cmd, 120, err)
        ok = rc == 0 and out.is_file() and out.read_bytes() == expected
        tally.op(ok, f"analyze exited {rc} or its report differs from "
                     f"core::save_report of a fresh IOCov")
        walls.append(wall)
        rss.append(peak)
    err.close()
    rates = [events / x for x in walls]
    return {
        "events_per_s": statistics.median(rates),
        "request_p50_ms": statistics.median(walls) * 1e3,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }, {"cli_runs": len(walls), "setup_runs": len(setups),
        "events_per_run": events, "threads": threads}


# ---- the daemon ------------------------------------------------------------

def frame(tag, body=b""):
    return struct.pack("<I", 1 + len(body)) + bytes([tag]) + body


def recv_exact(s, n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        buf += chunk
    return buf


def roundtrip(sock_path, request, timeout=30):
    """One framed request; returns (tag, body) of the reply."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(request)
        (length,) = struct.unpack("<I", recv_exact(s, 4))
        payload = recv_exact(s, length)
        return payload[0], payload[1:]


class Daemon:
    """One `iocov serve` process with its own directory."""

    def __init__(self, iocov, directory):
        self.dir = directory
        shutil.rmtree(directory, ignore_errors=True)
        (directory / "deltas").mkdir(parents=True)
        # Relative, so a deep checkout cannot overflow sun_path.
        self.sock = os.path.relpath(directory / "serve.sock")
        self.err = open(directory / "serve.err", "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(iocov), "serve", "--socket", "serve.sock", *DAEMON_FLAGS],
            cwd=directory, stdout=subprocess.DEVNULL, stderr=self.err)

    def wait_ready(self, timeout=20):
        """Seconds from spawn until the first `ping` is answered."""
        deadline = self.t0 + timeout
        while True:
            try:
                tag, body = roundtrip(self.sock, frame(0x02, b"ping"))
                if tag != 0x81 or not body.endswith(b"pong"):
                    raise BenchError("daemon answered ping with an error")
                return time.perf_counter() - self.t0
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise BenchError("iocov serve exited during start-up")
                if time.perf_counter() > deadline:
                    raise BenchError("iocov serve did not start")
                time.sleep(0.0005)

    def proc_status(self, key):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
        raise BenchError(f"no {key} for the daemon")

    def cpu_seconds(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout=60):
        """Graceful STOP; returns the exit code."""
        try:
            roundtrip(self.sock, frame(0x03))
            return self.proc.wait(timeout=timeout)
        finally:
            self.close()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.err.close()


def serve_pass(ctx, cycle, seconds, seed, tally, setup_repeats=1):
    """Starts daemons (the last one serves), drives the load generator,
    then checks the daemon's counters and outputs.

    cycle=True is the serve-mixed traffic mix; cycle=False pushes every
    analyzed input once through one connection.
    """
    work, iocov, gdir = ctx["work"], ctx["iocov"], ctx["inputs"]
    setups = []
    daemon = None
    try:
        for k in range(setup_repeats):
            daemon = Daemon(iocov, work / f"daemon{k}")
            setups.append(daemon.wait_ready())
            tally.op(True, "daemon start")
            if k + 1 < setup_repeats:
                tally.op(daemon.stop() == 0, "daemon stop exit code")
                daemon = None
        ddir = daemon.dir
        cpu0 = daemon.cpu_seconds()
        load_args = [ctx["perfbench"], "load", "--inputs", gdir, "--socket",
                     "serve.sock", "--seconds", seconds, "--seed", seed,
                     "--names-out", "pushed.tsv"]
        if not cycle:
            load_args.append("--once")
        load = json.loads(sh(load_args, timeout=seconds + 120, cwd=ddir))
        cpu = daemon.cpu_seconds() - cpu0
        hwm_mb = daemon.proc_status("VmHWM") / 1024.0

        for series in ("push_small", "push_large", "ping", "report"):
            tally.count(load[series]["attempted"], load[series]["failed"],
                        f"{series} requests")

        status = dict(line.split(" ", 1) for line in
                      sh([iocov, "query", "--socket", "serve.sock", "status"],
                         timeout=60, cwd=ddir).splitlines() if " " in line)
        status = {k: int(v) for k, v in status.items()}
        tally.op(status["pushes_accepted"] == load["pushes_accepted"],
                 "daemon pushes_accepted != producers' accepted pushes")
        tally.op(status["pushes_duplicate"] == 0 and
                 status["pushes_rejected"] == 0 and
                 status["torn_frames"] == 0 and status["sock_errors"] == 0,
                 "daemon reported duplicate/rejected pushes, torn frames "
                 "or socket errors")
        sh([iocov, "query", "--socket", "serve.sock", "--save",
            "quiesced.cov", "report"], timeout=60, cwd=ddir)
        tally.op(daemon.stop() == 0, "daemon stop exit code")
        daemon = None

        # The same shards through batch analyze, and the delta IOCS files
        # merged, must both reproduce the daemon's quiesced report.
        pushed = ddir / "pushed"
        pushed.mkdir()
        for line in (ddir / "pushed.tsv").read_text().splitlines():
            name, target = line.split("\t")
            os.symlink(Path(target).resolve(), pushed / name)
        quiesced = (ddir / "quiesced.cov").read_bytes()
        sh(analyze_cmd(iocov, lanes(), ddir / "batch.cov", None, [pushed]),
           timeout=150)
        tally.op((ddir / "batch.cov").read_bytes() == quiesced,
                 "quiesced report differs from analyze over the pushed shards")
        sh([iocov, "merge", "--threads", lanes(), "-o", ddir / "merged.iocs",
            ddir / "deltas"], timeout=60)
        sh(analyze_cmd(iocov, 1, ddir / "deltas.cov", None,
                       [ddir / "merged.iocs"]), timeout=60)
        tally.op((ddir / "deltas.cov").read_bytes() == quiesced,
                 "merged delta snapshots differ from the quiesced report")
    finally:
        if daemon is not None:
            daemon.close()
    return {"setups": setups, "load": load, "status": status,
            "daemon_cpu_s": cpu, "daemon_hwm_mb": hwm_mb,
            "quiesced": quiesced}


def reported(p):
    """A percentile from the load generator, or None when fewer than ten
    samples lie beyond it (it is then not reported)."""
    return p["value"] if p["reportable"] else None


def serve_e2e(ctx, seconds, seed, tally):
    s = serve_pass(ctx, True, seconds, seed, tally,
                      setup_repeats=SERVE_SETUP_REPEATS)
    load = s["load"]
    push_p50 = reported(load["push_small"]["p50"])
    if push_p50 is None:
        raise BenchError("too few small pushes for a median: "
                         f"{load['push_small']['attempted']}")
    metrics = {
        "events_per_s": load["events_accepted"] / load["push_wall_s"],
        "request_p50_ms": push_p50,
        "peak_rss_mb": s["daemon_hwm_mb"],
        "setup_s": statistics.median(s["setups"]),
    }
    detail = {
        "push_small_p50_ms": push_p50,
        "push_small_p99_ms": reported(load["push_small"]["p99"]),
        "ping_p99_ms": reported(load["ping"]["p99"]),
        "report_p50_ms": reported(load["report"]["p50"]),
        "gen_late_p99_ms": reported(load["gen_late"]),
        "push_large_p50_ms": load["push_large"]["p50"]["value"],
        "samples": {k: load[k]["attempted"] for k in
                    ("push_small", "push_large", "ping", "report")},
        "gen_late_samples": load["gen_late"]["samples"],
        "pushes_accepted": load["pushes_accepted"],
        "setup_runs": len(s["setups"]),
    }
    return metrics, detail


# ---- traced run ------------------------------------------------------------

def traced(ctx, seconds, seed, tally):
    w, work, gdir, iocov = ctx["workload"], ctx["work"], ctx["inputs"], ctx["iocov"]
    replay_lanes = 1 if w == "xfstests-serial" else lanes()
    rel, _ = ANALYZE_ARGS[w]
    replay = json.loads(sh(
        [ctx["perfbench"], "replay", "--inputs", gdir, "--targets", ",".join(rel),
         "--work", work, "--lanes", replay_lanes, "--seconds", seconds,
         "--spans", work / "spans.tsv", "--report", work / "replay.cov"],
        timeout=170))
    tally.op(replay["reconciled"],
             f"stage self times miss the traced wall time by "
             f"{replay['worst_stage_gap']:.4f} (> {replay['stage_sum_tolerance']})")
    reference = work / "reference.cov"
    sh([ctx["perfbench"], "reference", "--inputs", gdir, "--out", reference],
       timeout=120)
    expected = reference.read_bytes()
    tally.op((work / "replay.cov").read_bytes() == expected,
             "stage-by-stage replay report differs from a fresh IOCov's")

    # CLI overhead: the CLI, serial, on the replay's analyze inputs.
    cmd = analyze_cmd(iocov, 1, work / "cli.cov", work / "cli.iocs",
                      [gdir / r for r in rel])
    err = open(work / "cli.err", "ab")
    walls = []
    for _ in range(CLI_OVERHEAD_REPEATS):
        wall, _, rc = run_timed(cmd, 120, err)
        tally.op(rc == 0 and (work / "cli.cov").read_bytes() == expected,
                 "traced-run CLI exited non-zero or its report differs")
        walls.append(wall)
    err.close()

    # Daemon pass: the serve-mixed mix, or every input pushed once.
    s = serve_pass(ctx, w == "serve-mixed", seconds, seed, tally)
    if w != "serve-mixed":
        tally.op(s["quiesced"] == expected,
                 "daemon report over the inputs differs from a fresh IOCov's")
    load = s["load"]
    m = dict(replay["metrics"])
    m["trace_overhead_ratio"] = replay["trace_overhead_ratio"]
    m["cli.overhead_ms"] = statistics.median(walls) * 1e3 - replay["untraced_analyze_ms"]
    m["serve.daemon_cpu_ratio"] = s["daemon_cpu_s"] / load["push_wall_s"]
    m["serve.pushes_accepted"] = s["status"]["pushes_accepted"]
    m["serve.pushes_rejected"] = s["status"]["pushes_rejected"]
    m["serve.torn_frames"] = s["status"]["torn_frames"]
    detail = {"replay_iterations": replay["iterations"],
              "replay_lanes": replay["lanes"],
              "stage_sum_tolerance": replay["stage_sum_tolerance"],
              "worst_stage_gap": replay["worst_stage_gap"],
              "clock_read_ns": replay["clock_read_ns"],
              "untraced_replay_ms": replay["untraced_ms"],
              "untraced_analyze_ms": replay["untraced_analyze_ms"],
              "cli_serial_ms": statistics.median(walls) * 1e3,
              "spans": str((work / "spans.tsv").relative_to(ROOT))
              if (work / "spans.tsv").is_relative_to(ROOT) else None}
    return m, detail


# ---- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build()
    perfbench = bdir / "perfbench"
    iocov = bdir / "iocov" / "tools" / "iocov"
    prov = provenance(bdir, perfbench, args.seed)
    gdir, manifest = inputs(bdir, perfbench, args.workload, args.seed,
                            prov["gen_version"])
    work = bdir / "perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stats = describe_inputs(manifest, ANALYZE_ARGS[args.workload][1])
    ctx = {"workload": args.workload, "work": work, "inputs": gdir,
           "iocov": iocov, "perfbench": perfbench, "input_stats": stats}

    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={prov['nproc']} lanes={prov['lanes']} "
          f"build={prov['build_type']} commit={prov['commit']}")
    print(f"inputs: {stats['files']} files, {stats['events']} events, "
          f"{stats['bytes']} bytes, up to {stats['pids_per_file_max']} pids "
          f"per file, out-of-scope share {stats['out_of_scope_share']:.3f}")

    tally = Tally()
    if args.trace:
        metrics, detail = traced(ctx, args.seconds, args.seed, tally)
    elif args.workload == "serve-mixed":
        metrics, detail = serve_e2e(ctx, args.seconds, args.seed, tally)
    else:
        metrics, detail = batch_e2e(ctx, args.seconds, tally)
    detail["error_rate"] = tally.failed / max(tally.attempted, 1)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for m in wanted:
        print(f"  {m['name']:34s} {metrics[m['name']]:.6g} {m['unit']}")
    for k, v in detail.items():
        if k.endswith("_ms") or k == "error_rate":
            print(f"  {k:34s} " + ("not reported (under ten samples beyond)"
                                    if v is None else f"{v:.6g}"))
    print("detail: " + json.dumps({"provenance": prov, "inputs": stats,
                                   "failures": tally.failures, **detail}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
