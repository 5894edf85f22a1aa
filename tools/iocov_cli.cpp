// iocov — command-line front end for the library.
//
//   iocov analyze  [--mount DIR] [--syz] [--strict] [--max-errors N]
//                  [--save FILE] [--snapshot FILE] TRACE...
//   iocov convert  IN OUT                       (text <-> IOCT binary)
//   iocov merge    [--threads N] -o OUT.iocs INPUT...
//                                              (fleet snapshot merge)
//   iocov trend    [--window SECS] [--by-label] DIR
//                                              (coverage-over-time JSON)
//   iocov report   [--untested] [--under N] [--summary] FILE
//   iocov diff     BEFORE AFTER
//   iocov tcd      [--target N] [--arg BASE.KEY] FILE
//   iocov demo     [--suite NAME] [--scale S]   (run a simulator)
//   iocov campaign [--suite NAME] [--scale S] [--seed N] [--runs N]
//                  [--save FILE]               (fault-space exploration)
//   iocov guide    [--suite NAME] [--scale S] [--seed N] [--rounds N]
//                  [--budget N] [--per-gap N] [--target N]
//                  [--baseline FILE] [--save FILE]
//                                              (gap-driven synthesis)
//   iocov crashtest [--workloads a,b | --list] [--seed N] [--reorders N]
//                  [--no-torn] [--max-points N] [--target N]
//                  [--inject-skip-barrier K] [--json FILE]
//                                              (crash-consistency testing)
//   iocov bugstudy [--scale S] [--export]       (Section 2 study/dataset)
//
// `analyze` consumes one or more traces — LTTng-style text or IOCT
// binary, autodetected per file by the "IOCT" magic (or, with --syz,
// syzkaller programs) — and prints the coverage summary; --save writes
// the report in the persistent format `report`/`diff`/`tcd` consume.
// `convert` transcodes between the two trace formats (direction is
// inferred from the input's magic).  `demo` exists so the tool is
// explorable without captured traces: it runs one of the built-in
// suite simulators end to end.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bugstudy/study.hpp"
#include "core/combos.hpp"
#include "trace/binary_format.hpp"
#include "trace/text_format.hpp"
#include "core/diff.hpp"
#include "core/iocov.hpp"
#include "core/live.hpp"
#include "core/report_io.hpp"
#include "core/snapshot.hpp"
#include "core/tcd.hpp"
#include "core/untested.hpp"
#include "core/walk.hpp"
#include "exec/alloc_hook.hpp"
#include "exec/thread_pool.hpp"
#include "host/fault.hpp"
#include "host/io.hpp"
#include "host/parse.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "report/table.hpp"
#include "report/trend.hpp"
#include "syscall/kernel.hpp"
#include "testers/campaign.hpp"
#include "testers/crash/tester.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "testers/guided/loop.hpp"
#include "vfs/filesystem.hpp"

namespace {

using namespace iocov;  // NOLINT

// Exit-code taxonomy (documented in --help and README):
//   0  success
//   1  findings — regressions, bugs, or an exceeded error budget
//   2  usage error (bad flags/arguments)
//   3  I/O or artifact error — an input could not be read, an output
//      could not be written durably, or an artifact failed to decode
constexpr int kExitOk = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

int usage() {
    std::fprintf(
        stderr,
        "usage:\n"
        "  iocov analyze [--mount DIR] [--syz] [--extended] [--threads N]\n"
        "                [--strict] [--max-errors N] [--stats]\n"
        "                [--checkpoint FILE] [--checkpoint-every N]\n"
        "                [--resume] [--save FILE] [--snapshot FILE]\n"
        "                TRACE...\n"
        "      TRACE format is autodetected per file: IOCT binary (by\n"
        "      its \"IOCT\" magic), IOCS coverage snapshot (\"IOCS\"\n"
        "      magic — merged directly, no re-ingest; a version this\n"
        "      build cannot read is a structured error), or LTTng-style\n"
        "      text.  A TRACE that is a directory analyzes every IOCT\n"
        "      file in it (sorted by name; non-IOCT entries are\n"
        "      diagnosed and skipped), with files scheduled onto\n"
        "      --threads N work-stealing workers.  Malformed input is\n"
        "      skipped and diagnosed; --max-errors N fails the run when\n"
        "      more than N inputs were dropped, --strict is\n"
        "      --max-errors 0.  --stats prints what this run decoded\n"
        "      (events, bytes, files, steady-state allocations) and its\n"
        "      own wall time; IOCS snapshots and resumed checkpoint\n"
        "      state are merged, not decoded, and are counted on a\n"
        "      separate line.  --snapshot writes the final state as a\n"
        "      compact binary .iocs snapshot for `iocov merge` /\n"
        "      `iocov trend`.  Every trace file starts from fresh fd\n"
        "      state, so the result does not depend on --threads.\n"
        "  iocov convert IN OUT\n"
        "      transcode text -> IOCT binary or IOCT binary -> text\n"
        "      (direction inferred from IN's magic)\n"
        "  iocov merge   [--threads N] [--strict] [--max-errors N]\n"
        "                [--label L] [--timestamp T] [--json FILE]\n"
        "                [--checkpoint FILE] [--checkpoint-every N]\n"
        "                [--resume] -o OUT.iocs INPUT...\n"
        "      fleet aggregation: load every .iocs snapshot from the\n"
        "      INPUTs (directories are scanned non-recursively, sorted\n"
        "      by name), merge them (--threads N workers; merge is\n"
        "      exact, so the output is byte-identical at any thread\n"
        "      count and input order), and write the merged snapshot to\n"
        "      OUT.iocs.  Unreadable/foreign/version-skewed entries are\n"
        "      diagnosed per file and counted against --max-errors.\n"
        "      --json writes a deterministic per-space summary.\n"
        "  iocov trend   [--window SECS] [--by-label] [--target N]\n"
        "                [--threads N] [--json FILE] DIR\n"
        "      coverage movement over a snapshot directory: slice the\n"
        "      snapshots by capture-time window (--window) or by label\n"
        "      (--by-label), merge each slice, and emit per-slice TCD +\n"
        "      gap counts as deterministic JSON (stdout, or --json FILE).\n"
        "  iocov report  [--untested] [--under N] FILE\n"
        "  iocov diff    BEFORE AFTER\n"
        "  iocov tcd     [--target N] [--arg BASE.KEY] FILE\n"
        "  iocov serve   [--socket PATH] [--tcp PORT] [--mount DIR]\n"
        "                [--extended] [--threads N] [--delta-dir DIR]\n"
        "                [--delta-every N] [--label L]\n"
        "                [--checkpoint FILE] [--checkpoint-every N]\n"
        "                [--resume]\n"
        "      live coverage daemon: a single epoll event loop accepts\n"
        "      framed IOCT shards from many concurrent producers on a\n"
        "      Unix-domain socket (--socket) and/or 127.0.0.1 TCP port\n"
        "      (--tcp; 0 binds an ephemeral port, printed at startup)\n"
        "      and answers queries *while ingesting*.  Each shard is\n"
        "      analyzed in isolation and merged, so after any pushes\n"
        "      `iocov query report` is byte-identical to `iocov analyze\n"
        "      DIR/` over the same files; shard names deduplicate, so\n"
        "      re-pushing after a crash + --resume converges to the\n"
        "      uninterrupted result.  --delta-dir emits durable IOCS\n"
        "      delta snapshots every --delta-every pushes (and at\n"
        "      shutdown; merging all deltas of a run reproduces the\n"
        "      full state); --checkpoint writes a resumable IOCK\n"
        "      manifest (mode serve) every --checkpoint-every pushes.\n"
        "      SIGTERM/SIGINT/`iocov query stop` shut down gracefully\n"
        "      (final delta + checkpoint).\n"
        "  iocov push    [--socket PATH | --tcp PORT] [--timeout-ms N]\n"
        "                FILE...\n"
        "      stream IOCT trace files to a serve daemon over one\n"
        "      connection, one acknowledged push per file (the shard\n"
        "      name is the file's basename — the daemon's dedup key).\n"
        "  iocov query   [--socket PATH | --tcp PORT] [--timeout-ms N]\n"
        "                [--target N] [--arg BASE.KEY] [--save FILE]\n"
        "                report|gaps|tcd|status|ping|stop\n"
        "      query a serve daemon: `report` returns the saved-report\n"
        "      text (with --save, byte-identical to `analyze --save`\n"
        "      over the pushed shards), `gaps` the untested partitions,\n"
        "      `tcd` the coverage deviation for --arg/--target,\n"
        "      `status` daemon counters, `stop` a graceful shutdown.\n"
        "      Every answer is one epoch-tagged consistent state — an\n"
        "      exact prefix of the accepted pushes, never a torn\n"
        "      histogram, even mid-ingest.\n"
        "  iocov demo    [--suite crashmonkey|xfstests|ltp] [--scale S]\n"
        "  iocov campaign [--suite crashmonkey|xfstests|ltp] [--scale S]\n"
        "                 [--seed N] [--samples N] [--runs N] [--chaos N]\n"
        "                 [--permille N] [--extended] [--save FILE]\n"
        "      replay the suite once fault-free, then once per (op,\n"
        "      errno, k-th occurrence) fault point (EIO/ENOMEM/EINTR/\n"
        "      ENOSPC), fsck'ing the file system and checking errno\n"
        "      surfacing after every run; --runs bounds the sweep,\n"
        "      --chaos adds seeded probabilistic runs.  Exits 1 on any\n"
        "      fsck or faithfulness violation.\n"
        "  iocov guide   [--suite crashmonkey|xfstests|ltp] [--scale S]\n"
        "                [--seed N] [--rounds N] [--budget N] [--per-gap N]\n"
        "                [--target N] [--extended] [--baseline FILE]\n"
        "                [--save FILE]\n"
        "      close the coverage loop: measure the baseline's untested\n"
        "      partitions (TCD-ranked), synthesize syscalls + fault\n"
        "      injections aimed at each gap, re-measure, and iterate\n"
        "      until the TCD plateaus or the call budget runs out.\n"
        "      --baseline guides from a saved report instead of\n"
        "      replaying a suite; --save writes the merged final report.\n"
        "      Prints a before/after table per coverage space.\n"
        "  iocov crashtest [--workloads a,b | --list] [--seed N]\n"
        "                  [--reorders N] [--no-torn] [--max-points N]\n"
        "                  [--target N] [--inject-skip-barrier K]\n"
        "                  [--json FILE]\n"
        "      coverage-guided crash-consistency testing: run the\n"
        "      crashmonkey-baseline workloads, log durable effects,\n"
        "      enumerate bounded crash states (barrier points, partial\n"
        "      in-order tails, seeded reordered tails, torn writes) and\n"
        "      check each recovered state against the persisted-prefix\n"
        "      oracle plus fsck.  Deterministic for a fixed --seed.\n"
        "      --inject-skip-barrier K seeds a lost-barrier bug into the\n"
        "      replayer to validate the oracle (exits 0 iff caught);\n"
        "      otherwise exits 1 when any bug is found.\n"
        "  iocov bugstudy [--scale S] [--export]\n"
        "\n"
        "durability: every file the tool writes (reports, snapshots,\n"
        "json, checkpoints) is published atomically — full write +\n"
        "fsync to a temp file in the destination directory, then\n"
        "rename + directory fsync — so a crash or fault at any instant\n"
        "leaves the previous complete artifact or the new complete\n"
        "artifact, never a torn file.\n"
        "\n"
        "checkpoints: `merge --checkpoint FILE` and (single-directory)\n"
        "`analyze --checkpoint FILE` run the same walk on --threads N\n"
        "workers in segments of --checkpoint-every N inputs (default\n"
        "8), writing a resumable IOCK manifest after each but the last;\n"
        "--resume continues an interrupted walk.  The output is byte-\n"
        "identical to an uncheckpointed run's (a snapshot records the\n"
        "widest segment's worker count).  The manifest is removed once\n"
        "the walk completes.\n"
        "\n"
        "strictness: numeric flag operands are parsed whole — junk,\n"
        "embedded signs, overflow, or a missing operand is a usage\n"
        "error (exit 2), never a silent 0 or a saturated value.\n"
        "`trend --window 0` and `merge --timestamp 0` are rejected as\n"
        "degenerate (see their descriptions above).\n"
        "\n"
        "exit codes:\n"
        "  0  success\n"
        "  1  findings (coverage regression, bugs found, --max-errors\n"
        "     budget exceeded)\n"
        "  2  usage error\n"
        "  3  I/O or artifact error (unreadable input, undecodable\n"
        "     artifact, an output that could not be written durably, or\n"
        "     a stdout consumer that closed the pipe early — SIGPIPE is\n"
        "     ignored and the truncation reported here instead)\n");
    return kExitUsage;
}

/// The first bytes of `path`, enough to sniff a magic and version
/// without reading the whole file.
std::string file_head(const char* path) {
    std::ifstream in(path, std::ios::binary);
    char head[8] = {};
    in.read(head, sizeof head);
    return std::string(head, static_cast<std::size_t>(in.gcount()));
}

std::optional<core::CoverageReport> load(const char* path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "iocov: cannot open %s\n", path);
        return std::nullopt;
    }
    auto report = core::load_report(in);
    if (!report)
        std::fprintf(stderr, "iocov: %s is not a coverage report\n", path);
    return report;
}

/// Writes `data` to `path` durably and atomically; on failure prints
/// the structured I/O error (path, phase, strerror, errno) to stderr
/// and returns false — the previous artifact at `path`, if any, is
/// untouched.
bool write_artifact(const char* path, std::string_view data) {
    if (auto err = host::write_file_atomic(path, data)) {
        std::fprintf(stderr, "iocov: %s\n", err->to_string().c_str());
        return false;
    }
    return true;
}

// ---- strict flag parsing ----------------------------------------------
//
// Every numeric operand goes through host::parse_* (whole-string,
// overflow-checked).  The historical strtoul/atof sites silently
// turned junk into 0 and saturated overflow (`--threads junk` ran
// serial, `--seed 18446744073709551616` became UINT64_MAX), and a
// flag left dangling at the end of the line fell through to the
// positional arguments.  Each helper matches one `--flag VALUE` pair;
// a bad or missing operand prints a one-line diagnostic and flips
// `bad`, which the command loops turn into exit 2.

/// Matches `--name` and pulls its operand; nullptr operand (with
/// `bad` set) when the flag dangles at the end of the line.
const char* flag_operand(int argc, char** argv, int& i, const char* name,
                         bool& bad) {
    if (i + 1 >= argc) {
        std::fprintf(stderr, "iocov: %s: missing operand\n", name);
        bad = true;
        return nullptr;
    }
    return argv[++i];
}

/// Matches `--name VALUE` for a string operand (`out` is a
/// `const char*` or a std::string).
template <class String>
bool flag_str(int argc, char** argv, int& i, const char* name, String& out,
              bool& bad) {
    if (std::strcmp(argv[i], name) != 0) return false;
    if (const char* text = flag_operand(argc, argv, i, name, bad))
        out = text;
    return true;
}

bool flag_u64(int argc, char** argv, int& i, const char* name,
              std::uint64_t& out, bool& bad) {
    if (std::strcmp(argv[i], name) != 0) return false;
    if (const char* text = flag_operand(argc, argv, i, name, bad)) {
        if (!host::parse_u64(text, out)) {
            std::fprintf(stderr,
                         "iocov: %s: invalid value '%s' (want a decimal "
                         "integer in [0, 2^64-1])\n",
                         name, text);
            bad = true;
        }
    }
    return true;
}

bool flag_u32(int argc, char** argv, int& i, const char* name,
              unsigned& out, bool& bad) {
    if (std::strcmp(argv[i], name) != 0) return false;
    if (const char* text = flag_operand(argc, argv, i, name, bad)) {
        std::uint32_t v = 0;
        if (!host::parse_u32(text, v)) {
            std::fprintf(stderr,
                         "iocov: %s: invalid value '%s' (want a decimal "
                         "integer in [0, 2^32-1])\n",
                         name, text);
            bad = true;
        } else {
            out = v;
        }
    }
    return true;
}

bool flag_f64(int argc, char** argv, int& i, const char* name,
              double& out, bool& bad) {
    if (std::strcmp(argv[i], name) != 0) return false;
    if (const char* text = flag_operand(argc, argv, i, name, bad)) {
        if (!host::parse_f64(text, out)) {
            std::fprintf(stderr,
                         "iocov: %s: invalid value '%s' (want a finite "
                         "decimal number)\n",
                         name, text);
            bad = true;
        }
    }
    return true;
}

bool flag_u64_opt(int argc, char** argv, int& i, const char* name,
                  std::optional<std::uint64_t>& out, bool& bad) {
    std::uint64_t v = 0;
    if (!flag_u64(argc, argv, i, name, v, bad)) return false;
    if (!bad) out = v;
    return true;
}

void print_summary(const core::CoverageReport& report) {
    std::printf("events: %llu tracked / %llu seen\n\n",
                static_cast<unsigned long long>(report.events_tracked),
                static_cast<unsigned long long>(report.events_seen));
    std::vector<std::vector<std::string>> rows;
    for (const auto& row : core::summarize(report)) {
        rows.push_back({row.arg.empty() ? row.base + " (output)"
                                        : row.base + "." + row.arg,
                        std::to_string(row.declared),
                        std::to_string(row.tested),
                        report::fixed(100 * row.fraction, 1) + "%"});
    }
    std::printf("%s", report::render_table(
                          {"space", "partitions", "tested", "coverage"},
                          rows)
                          .c_str());
    const auto* flags = report.find_input("open", "flags");
    if (flags) {
        const auto pc = core::open_flag_pair_coverage(*flags);
        std::printf("\nopen-flag pair coverage: %zu/%zu (%.1f%%)\n",
                    pc.tested, pc.feasible, 100 * pc.fraction);
    }
}

/// Shared --checkpoint/--checkpoint-every/--resume parsing for the
/// analyze and merge walks.
bool checkpoint_flag(int argc, char** argv, int& i,
                     core::Checkpointing& checkpointing, bool& bad) {
    if (!std::strcmp(argv[i], "--resume")) {
        checkpointing.resume = true;
        return true;
    }
    return flag_str(argc, argv, i, "--checkpoint", checkpointing.path, bad) ||
           flag_u64(argc, argv, i, "--checkpoint-every", checkpointing.every,
                    bad);
}

/// Snapshot state an analyze run merged instead of decoding (IOCS
/// inputs, resumed checkpoint blocks).  `--stats` subtracts it from
/// IngestStats so the "decoded" lines describe this run alone.
struct MergedState {
    std::uint64_t snapshots = 0;
    core::IngestStats ingest;  ///< summed counters; `threads` unused

    void add(const core::IngestStats& merged) {
        ++snapshots;
        ingest += merged;
    }
};

int cmd_analyze(int argc, char** argv) {
    std::string mount = "/mnt/test";
    bool syz = false;
    bool extended = false;
    bool stats = false;
    unsigned threads = 1;
    const char* save_path = nullptr;
    const char* snapshot_path = nullptr;
    // Error budget: how many dropped inputs (malformed lines, corrupt
    // records, lost shards) the run tolerates before failing.  Default
    // is unbounded, matching the historical skip-and-continue behavior.
    std::optional<std::uint64_t> max_errors;
    core::Checkpointing checkpointing;
    std::vector<const char*> traces;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (flag_str(argc, argv, i, "--mount", mount, bad)) {
        } else if (!std::strcmp(argv[i], "--syz")) {
            syz = true;
        } else if (!std::strcmp(argv[i], "--extended")) {
            extended = true;
        } else if (flag_u32(argc, argv, i, "--threads", threads, bad)) {
            // 0 = auto (hardware concurrency); 1 = serial.
        } else if (!std::strcmp(argv[i], "--stats")) {
            stats = true;
        } else if (!std::strcmp(argv[i], "--strict")) {
            max_errors = 0;
        } else if (flag_u64_opt(argc, argv, i, "--max-errors", max_errors,
                                bad)) {
        } else if (checkpoint_flag(argc, argv, i, checkpointing, bad)) {
        } else if (flag_str(argc, argv, i, "--save", save_path, bad)) {
        } else if (flag_str(argc, argv, i, "--snapshot", snapshot_path, bad)) {
        } else {
            traces.push_back(argv[i]);
        }
        if (bad) return kExitUsage;
    }
    if (traces.empty()) return usage();
    if (checkpointing.resume && checkpointing.path.empty()) return usage();

    core::IOCov iocov(trace::FilterConfig::mount_point(mount),
                      extended ? core::extended_syscall_registry()
                               : core::syscall_registry());
    MergedState merged;
    // Checkpointed mode only defines resume semantics for one directory
    // of IOCT traces (the fleet drop-box shape).
    std::error_code dir_ec;
    if (!checkpointing.path.empty() &&
        (syz || traces.size() != 1 ||
         !std::filesystem::is_directory(traces[0], dir_ec) || dir_ec))
        return usage();
    const auto t0 = std::chrono::steady_clock::now();
    for (const char* path : traces) {
        if (!syz && std::filesystem::is_directory(path, dir_ec)) {
            // Directory of IOCT traces: the work-stealing walk,
            // bit-identical to analyzing the files one by one in name
            // order (each file gets its own filter state), however
            // --checkpoint cuts it into segments.
            const auto entries = core::list_inputs({path});
            if (!entries) {
                std::fprintf(stderr, "iocov: cannot open directory %s\n",
                             path);
                return kExitIo;
            }
            core::SnapshotError err;
            const auto dir = core::analyze_walk(iocov, *entries, threads,
                                                checkpointing, &err);
            if (!dir) {  // only the manifest can fail the walk
                std::fprintf(stderr, "iocov: %s: %s\n",
                             checkpointing.path.c_str(),
                             err.to_string().c_str());
                return kExitIo;
            }
            if (dir->resumed.files > 0) merged.add(dir->resumed);
            std::printf("%s: analyzed %zu IOCT files (%zu non-IOCT "
                        "rejected, %zu torn records skipped)\n",
                        path, dir->files, dir->rejected, dir->dropped);
            continue;
        }
        // An IOCS snapshot of any version: a version this build cannot
        // read is a structured error at load, not a text trace.
        if (!syz && core::iocs_version(file_head(path))) {
            // IOCS coverage snapshot: the analyzer state itself — merge
            // it directly, no event re-ingest.
            core::SnapshotError err;
            const auto snap = core::load_snapshot_file(path, &err);
            if (!snap) {
                std::fprintf(stderr, "iocov: %s: %s\n", path,
                             err.to_string().c_str());
                return kExitIo;
            }
            iocov.merge(*snap);
            merged.add(snap->ingest);
            std::printf("%s: merged [IOCS snapshot] (%llu events seen)\n",
                        path,
                        static_cast<unsigned long long>(
                            snap->report.events_seen));
            continue;
        }
        if (!syz && trace::is_ioct(file_head(path))) {
            // IOCT binary trace: mmap'd zero-copy ingestion.
            const auto dropped = iocov.consume_binary_file(path, threads);
            if (!dropped) {
                std::fprintf(stderr, "iocov: cannot open %s\n", path);
                return kExitIo;
            }
            std::printf("%s: analyzed [IOCT] (%zu torn records skipped)\n",
                        path, *dropped);
            continue;
        }
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "iocov: cannot open %s\n", path);
            return kExitIo;
        }
        if (syz) {
            const auto parsed = iocov.consume_syz(in);
            std::printf("%s: %zu syscalls parsed (input coverage only)\n",
                        path, parsed);
        } else {
            // --threads shards by pid; pid-sharded analysis is
            // bit-identical to serial for a fresh IOCov per run.
            const auto dropped = iocov.consume_text_parallel(in, threads);
            std::printf("%s: analyzed (%zu malformed lines skipped)\n",
                        path, dropped);
        }
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Listed by position, as analyze has always printed them.
    trace::ParseDiagnostics diags;
    diags.merge(iocov.diagnostics());
    if (max_errors && diags.total() > *max_errors) {
        std::fprintf(stderr,
                     "iocov: error budget exceeded (%llu dropped > "
                     "--max-errors %llu)\n%s",
                     static_cast<unsigned long long>(diags.total()),
                     static_cast<unsigned long long>(*max_errors),
                     diags.to_string().c_str());
        return kExitFindings;
    }
    if (diags.total() > 0)
        std::fprintf(stderr, "%s", diags.to_string().c_str());
    std::printf("\n");
    print_summary(iocov.report());
    if (stats) {
        const auto& is = iocov.ingest_stats();
        const std::uint64_t events = is.events - merged.ingest.events;
        const std::uint64_t bytes = is.bytes - merged.ingest.bytes;
        const double secs = wall > 0 ? wall : 1e-9;
        std::printf(
            "\ningest stats (binary paths):\n"
            "  events:   %llu decoded (%.2fM events/s)\n"
            "  bytes:    %llu ingested (%.1f MB/s)\n"
            "  files:    %llu across %u thread(s), %.3fs wall\n",
            static_cast<unsigned long long>(events),
            static_cast<double>(events) / secs / 1e6,
            static_cast<unsigned long long>(bytes),
            static_cast<double>(bytes) / secs / 1e6,
            static_cast<unsigned long long>(is.files - merged.ingest.files),
            threads ? threads : exec::ThreadPool::default_thread_count(),
            wall);
        if (merged.snapshots > 0) {
            std::printf("  snapshots: %llu merged (%llu events, not "
                        "re-decoded)\n",
                        static_cast<unsigned long long>(merged.snapshots),
                        static_cast<unsigned long long>(
                            merged.ingest.events));
        }
        if (exec::has_allocation_counting()) {
            std::printf("  allocs:   %llu in the steady-state decode "
                        "loop\n",
                        static_cast<unsigned long long>(
                            iocov.hot_loop_allocs()));
        } else {
            std::printf("  allocs:   (allocation counting unavailable "
                        "in this build)\n");
        }
    }
    if (save_path) {
        std::ostringstream out;
        core::save_report(out, iocov.report());
        if (!write_artifact(save_path, out.str())) return kExitIo;
        std::printf("\nreport saved to %s\n", save_path);
    }
    if (snapshot_path) {
        core::SnapshotError err;
        if (!core::save_snapshot_file(snapshot_path, iocov.snapshot(),
                                      &err)) {
            std::fprintf(stderr, "iocov: %s: %s\n", snapshot_path,
                         err.to_string().c_str());
            return kExitIo;
        }
        std::printf("\nsnapshot saved to %s\n", snapshot_path);
    }
    return kExitOk;
}

int cmd_merge(int argc, char** argv) {
    unsigned threads = 0;  // auto
    std::optional<std::uint64_t> max_errors;
    const char* out_path = nullptr;
    const char* json_path = nullptr;
    const char* label = nullptr;
    core::Checkpointing checkpointing;
    std::optional<std::uint64_t> timestamp;
    std::vector<const char*> inputs;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (flag_u32(argc, argv, i, "--threads", threads, bad)) {
        } else if (!std::strcmp(argv[i], "--strict"))
            max_errors = 0;
        else if (flag_u64_opt(argc, argv, i, "--max-errors", max_errors,
                              bad)) {
        } else if (flag_str(argc, argv, i, "--label", label, bad)) {
        } else if (flag_u64_opt(argc, argv, i, "--timestamp", timestamp,
                              bad)) {
            if (timestamp && *timestamp == 0) {
                // 0 is the "unset" sentinel inside a snapshot: `trend`
                // would silently drop the snapshot from every time
                // window.  Stamping it explicitly is always a mistake.
                std::fprintf(stderr,
                             "iocov: --timestamp: 0 means 'no capture "
                             "time' and would exclude the snapshot from "
                             "every trend window; use a real Unix "
                             "timestamp\n");
                bad = true;
            }
        } else if (flag_str(argc, argv, i, "--json", json_path, bad)) {
        } else if (checkpoint_flag(argc, argv, i, checkpointing, bad)) {
        } else if (flag_str(argc, argv, i, "-o", out_path, bad)) {
        } else
            inputs.push_back(argv[i]);
        if (bad) return kExitUsage;
    }
    if (!out_path || inputs.empty()) return usage();
    if (checkpointing.resume && checkpointing.path.empty()) return usage();

    // Snapshots load in walk order: argument order, each directory
    // contributing its name-sorted contents.  The merged bytes do not
    // depend on that order; which diagnostics are retained does.
    std::string failed;
    const auto entries = core::list_inputs({inputs.begin(), inputs.end()},
                                           &failed);
    if (!entries) {
        std::fprintf(stderr, "iocov: cannot open directory %s\n",
                     failed.c_str());
        return kExitIo;
    }
    core::SnapshotError err;
    auto walk = core::merge_walk(*entries, threads, checkpointing, &err);
    if (!walk) {  // only the manifest can fail the walk
        std::fprintf(stderr, "iocov: %s: %s\n", checkpointing.path.c_str(),
                     err.to_string().c_str());
        return kExitIo;
    }
    if (max_errors && walk->rejected > *max_errors) {
        std::fprintf(stderr,
                     "iocov: error budget exceeded (%llu rejected > "
                     "--max-errors %llu)\n%s",
                     static_cast<unsigned long long>(walk->rejected),
                     static_cast<unsigned long long>(*max_errors),
                     walk->diags.to_string().c_str());
        return kExitFindings;
    }
    if (walk->rejected > 0)
        std::fprintf(stderr, "%s", walk->diags.to_string().c_str());

    core::MergeBlock merged;
    for (auto& b : walk->blocks) merged.absorb(std::move(b));
    if (label) merged.snapshot.label = label;
    if (timestamp) merged.snapshot.timestamp = *timestamp;
    if (!core::save_snapshot_file(out_path, merged.snapshot, &err)) {
        std::fprintf(stderr, "iocov: %s: %s\n", out_path,
                     err.to_string().c_str());
        return kExitIo;
    }
    std::printf("%s: merged %llu snapshots (%llu rejected, %llu events "
                "seen)\n",
                out_path, static_cast<unsigned long long>(merged.leaves),
                static_cast<unsigned long long>(walk->rejected),
                static_cast<unsigned long long>(
                    merged.snapshot.report.events_seen));
    if (json_path) {
        if (!write_artifact(json_path,
                            core::merge_summary_json(
                                static_cast<std::size_t>(merged.leaves),
                                static_cast<std::size_t>(walk->rejected),
                                merged.snapshot)))
            return kExitIo;
        std::printf("json summary saved to %s\n", json_path);
    }
    return kExitOk;
}

int cmd_trend(int argc, char** argv) {
    report::TrendOptions opts;
    unsigned threads = 0;  // auto
    const char* json_path = nullptr;
    const char* dir = nullptr;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (flag_u64(argc, argv, i, "--window", opts.window_seconds,
                     bad)) {
            if (!bad && opts.window_seconds == 0) {
                // A zero-second window is degenerate — every snapshot
                // would land in its own empty-width slice.  Omitting
                // --window already gives the "one all-time slice" view.
                std::fprintf(stderr,
                             "iocov: --window: a 0-second window is "
                             "degenerate; omit --window for a single "
                             "all-time slice\n");
                bad = true;
            }
        } else if (!std::strcmp(argv[i], "--by-label"))
            opts.by_label = true;
        else if (flag_f64(argc, argv, i, "--target", opts.target, bad)) {
        } else if (flag_u32(argc, argv, i, "--threads", threads, bad)) {
        } else if (flag_str(argc, argv, i, "--json", json_path, bad)) {
        } else
            dir = argv[i];
        if (bad) return kExitUsage;
    }
    if (!dir) return usage();
    auto load = core::load_snapshot_dir(dir, threads);
    if (!load) {
        std::fprintf(stderr, "iocov: cannot open directory %s\n", dir);
        return kExitIo;
    }
    if (load->rejected > 0)
        std::fprintf(stderr, "%s", load->diags.to_string().c_str());
    const auto json =
        report::trend_json(load->snapshots, opts, threads);
    if (json_path) {
        if (!write_artifact(json_path, json)) return kExitIo;
        std::printf("trend (%zu snapshots, %zu rejected) saved to %s\n",
                    load->snapshots.size(), load->rejected, json_path);
    } else {
        std::printf("%s", json.c_str());
    }
    return kExitOk;
}

int cmd_serve(int argc, char** argv) {
    serve::ServeOptions opts;
    std::string mount = "/mnt/test";
    bool extended = false;
    bool have_tcp = false;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        std::uint64_t port = 0;
        if (flag_str(argc, argv, i, "--socket", opts.unix_path, bad)) {
        } else if (flag_u64(argc, argv, i, "--tcp", port, bad)) {
            if (!bad && port > 65535) {
                std::fprintf(stderr,
                             "iocov: --tcp: port %llu out of range "
                             "(0..65535; 0 = ephemeral)\n",
                             static_cast<unsigned long long>(port));
                bad = true;
            } else if (!bad) {
                opts.tcp_port = static_cast<int>(port);
                have_tcp = true;
            }
        } else if (flag_str(argc, argv, i, "--mount", mount, bad)) {
        } else if (!std::strcmp(argv[i], "--extended")) {
            extended = true;
        } else if (flag_u32(argc, argv, i, "--threads", opts.threads,
                            bad)) {
        } else if (flag_str(argc, argv, i, "--delta-dir", opts.delta_dir,
                            bad)) {
        } else if (flag_u64(argc, argv, i, "--delta-every",
                            opts.delta_every, bad)) {
        } else if (flag_str(argc, argv, i, "--label", opts.delta_label, bad)) {
        } else if (flag_str(argc, argv, i, "--checkpoint",
                            opts.checkpoint_path, bad)) {
        } else if (flag_u64(argc, argv, i, "--checkpoint-every",
                            opts.checkpoint_every, bad)) {
            if (opts.checkpoint_every == 0) opts.checkpoint_every = 1;
        } else if (!std::strcmp(argv[i], "--resume")) {
            opts.resume = true;
        } else {
            return usage();
        }
        if (bad) return kExitUsage;
    }
    if (opts.unix_path.empty() && !have_tcp) return usage();
    if (opts.resume && opts.checkpoint_path.empty()) return usage();
    opts.install_signal_handlers = true;

    core::LiveCoverage live(trace::FilterConfig::mount_point(mount),
                            extended ? core::extended_syscall_registry()
                                     : core::syscall_registry());
    serve::Server server(live, opts);
    if (auto err = server.start()) {
        std::fprintf(stderr, "iocov: %s\n", err->to_string().c_str());
        return kExitIo;
    }
    if (!opts.unix_path.empty())
        std::printf("serving on unix:%s\n", opts.unix_path.c_str());
    if (server.tcp_port() >= 0)
        std::printf("serving on tcp:127.0.0.1:%d\n", server.tcp_port());
    if (opts.resume && live.epoch() > 0)
        std::printf("resumed %llu shards from %s\n",
                    static_cast<unsigned long long>(live.epoch()),
                    opts.checkpoint_path.c_str());
    // Producers poll for these lines (and scripts parse the ephemeral
    // TCP port from them) before pushing; make sure they are visible
    // before the loop blocks.
    std::fflush(stdout);
    server.run();

    const auto& st = server.stats();
    std::printf("serve: %llu connections, %llu pushes (%llu duplicate, "
                "%llu rejected), %llu queries, %llu deltas, %llu "
                "checkpoints\n",
                static_cast<unsigned long long>(st.connections),
                static_cast<unsigned long long>(st.pushes_accepted),
                static_cast<unsigned long long>(st.pushes_duplicate),
                static_cast<unsigned long long>(st.pushes_rejected),
                static_cast<unsigned long long>(st.queries),
                static_cast<unsigned long long>(st.deltas),
                static_cast<unsigned long long>(st.checkpoints));
    if (st.torn_frames + st.sock_errors > 0)
        std::fprintf(stderr,
                     "iocov: serve: %llu torn frames, %llu socket "
                     "errors\n%s",
                     static_cast<unsigned long long>(st.torn_frames),
                     static_cast<unsigned long long>(st.sock_errors),
                     server.diagnostics().to_string().c_str());
    return kExitOk;
}

/// Shared --socket/--tcp/--timeout-ms parsing for push/query; returns
/// false on a diagnosed bad flag.
bool client_flag(int argc, char** argv, int& i, serve::Endpoint& ep,
                 std::uint64_t& timeout_ms, bool& matched, bool& bad) {
    matched = true;
    std::uint64_t port = 0;
    if (flag_str(argc, argv, i, "--socket", ep.unix_path, bad)) {
    } else if (flag_u64(argc, argv, i, "--tcp", port, bad)) {
        if (!bad && (port == 0 || port > 65535)) {
            std::fprintf(stderr,
                         "iocov: --tcp: port %llu out of range "
                         "(1..65535)\n",
                         static_cast<unsigned long long>(port));
            bad = true;
        } else if (!bad) {
            ep.tcp_port = static_cast<int>(port);
        }
    } else if (flag_u64(argc, argv, i, "--timeout-ms", timeout_ms, bad)) {
    } else {
        matched = false;
    }
    return !bad;
}

int cmd_push(int argc, char** argv) {
    serve::Endpoint ep;
    std::uint64_t timeout_ms = 5000;
    std::vector<const char*> files;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        bool matched = false;
        if (!client_flag(argc, argv, i, ep, timeout_ms, matched, bad))
            return kExitUsage;
        if (!matched) files.push_back(argv[i]);
    }
    if (files.empty()) return usage();
    if (ep.unix_path.empty() && ep.tcp_port < 0) return usage();

    host::IoError err;
    auto client = serve::Client::connect(
        ep, static_cast<int>(std::min<std::uint64_t>(timeout_ms, 1 << 30)),
        &err);
    if (!client) {
        std::fprintf(stderr, "iocov: connect: %s\n",
                     err.to_string().c_str());
        return kExitIo;
    }
    int rc = kExitOk;
    for (const char* path : files) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "iocov: cannot open %s\n", path);
            return kExitIo;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string shard = buf.str();
        // The shard name is the basename: the same key a batch
        // `analyze DIR/` walk would use, and the daemon's dedup key.
        const std::string name =
            std::filesystem::path(path).filename().string();
        const auto reply = client->push(name, shard, &err);
        if (!reply) {
            std::fprintf(stderr, "iocov: push %s: %s\n", path,
                         err.to_string().c_str());
            return kExitIo;
        }
        if (!reply->ok) {
            std::fprintf(stderr, "iocov: push %s: %s\n", path,
                         reply->text.c_str());
            rc = kExitIo;
            continue;
        }
        std::printf("%s: %s [epoch %llu]\n", path, reply->text.c_str(),
                    static_cast<unsigned long long>(reply->epoch));
    }
    return rc;
}

int cmd_query(int argc, char** argv) {
    serve::Endpoint ep;
    std::uint64_t timeout_ms = 5000;
    double target = 1000;
    std::string arg = "open.flags";
    const char* save_path = nullptr;
    const char* what = nullptr;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        bool matched = false;
        if (!client_flag(argc, argv, i, ep, timeout_ms, matched, bad))
            return kExitUsage;
        if (matched) continue;
        if (flag_f64(argc, argv, i, "--target", target, bad)) {
        } else if (flag_str(argc, argv, i, "--arg", arg, bad)) {
        } else if (flag_str(argc, argv, i, "--save", save_path, bad)) {
        } else if (what)
            return usage();
        else
            what = argv[i];
        if (bad) return kExitUsage;
    }
    if (!what) return usage();
    if (ep.unix_path.empty() && ep.tcp_port < 0) return usage();

    std::string q;
    if (!std::strcmp(what, "report") || !std::strcmp(what, "gaps") ||
        !std::strcmp(what, "status") || !std::strcmp(what, "ping") ||
        !std::strcmp(what, "stop")) {
        q = what;
    } else if (!std::strcmp(what, "tcd")) {
        char spec[256];
        std::snprintf(spec, sizeof spec, "tcd %s %g", arg.c_str(), target);
        q = spec;
    } else {
        return usage();
    }

    host::IoError err;
    auto client = serve::Client::connect(
        ep, static_cast<int>(std::min<std::uint64_t>(timeout_ms, 1 << 30)),
        &err);
    if (!client) {
        std::fprintf(stderr, "iocov: connect: %s\n",
                     err.to_string().c_str());
        return kExitIo;
    }
    const auto reply = q == "stop" ? client->stop(&err)
                                   : client->query(q, &err);
    if (!reply) {
        std::fprintf(stderr, "iocov: query: %s\n", err.to_string().c_str());
        return kExitIo;
    }
    if (!reply->ok) {
        std::fprintf(stderr, "iocov: query: %s\n", reply->text.c_str());
        return kExitIo;
    }
    if (save_path) {
        // `query report --save F` writes exactly the bytes `analyze
        // --save F` would for the same shards — the byte-identity the
        // gates compare.
        if (!write_artifact(save_path, reply->text)) return kExitIo;
        std::printf("%s saved to %s [epoch %llu]\n", what, save_path,
                    static_cast<unsigned long long>(reply->epoch));
    } else {
        std::fputs(reply->text.c_str(), stdout);
        if (!reply->text.empty() && reply->text.back() != '\n')
            std::printf("\n");
    }
    return kExitOk;
}

int cmd_convert(int argc, char** argv) {
    if (argc != 2) return usage();
    const char* in_path = argv[0];
    const char* out_path = argv[1];

    if (trace::is_ioct(file_head(in_path))) {
        // IOCT binary -> text.
        host::IoError ioerr;
        auto mapped = trace::MappedFile::open(
            in_path, trace::MappedFile::Mode::Auto, &ioerr);
        if (!mapped) {
            std::fprintf(stderr, "iocov: %s\n", ioerr.to_string().c_str());
            return kExitIo;
        }
        std::size_t dropped = 0;
        const auto events = trace::decode_trace(mapped->data(), &dropped);
        std::string out;
        for (const auto& ev : events) {
            out += trace::format_event(ev);
            out += '\n';
        }
        if (!write_artifact(out_path, out)) return kExitIo;
        std::printf("%s -> %s: %zu events to text (%zu torn records "
                    "dropped)\n",
                    in_path, out_path, events.size(), dropped);
        return kExitOk;
    }

    // Text -> IOCT binary.
    std::ifstream in(in_path);
    if (!in) {
        std::fprintf(stderr, "iocov: cannot open %s\n", in_path);
        return kExitIo;
    }
    std::size_t dropped = 0;
    const auto events = trace::parse_stream(in, &dropped);
    if (!write_artifact(out_path, trace::encode_trace(events)))
        return kExitIo;
    std::printf("%s -> %s: %zu events to IOCT (%zu malformed lines "
                "dropped)\n",
                in_path, out_path, events.size(), dropped);
    return kExitOk;
}

int cmd_report(int argc, char** argv) {
    bool untested = false;
    std::uint64_t under = 0;
    const char* path = nullptr;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--untested")) untested = true;
        else if (flag_u64(argc, argv, i, "--under", under, bad)) {
        } else path = argv[i];
        if (bad) return kExitUsage;
    }
    if (!path) return usage();
    auto report = load(path);
    if (!report) return kExitIo;

    if (untested) {
        for (const auto& gap : core::find_untested(*report))
            std::printf("%-8s %-10s %-18s %s\n",
                        gap.kind == core::UntestedPartition::Kind::Input
                            ? "input"
                            : "output",
                        gap.base.c_str(), gap.partition.c_str(),
                        gap.suggestion.c_str());
        return 0;
    }
    if (under > 0) {
        for (const auto& gap : core::find_under_tested(*report, under))
            std::printf("%-10s %-18s under-tested\n", gap.base.c_str(),
                        gap.partition.c_str());
        return 0;
    }
    print_summary(*report);
    return 0;
}

int cmd_diff(int argc, char** argv) {
    if (argc != 2) return usage();
    auto before = load(argv[0]);
    auto after = load(argv[1]);
    if (!before || !after) return kExitIo;
    const auto deltas = core::diff_reports(*before, *after);
    for (const auto& d : deltas)
        std::printf("%-9s %s%s%s [%s] %llu -> %llu\n",
                    core::delta_kind_name(d.kind).c_str(), d.base.c_str(),
                    d.arg.empty() ? "" : ".", d.arg.c_str(),
                    d.partition.c_str(),
                    static_cast<unsigned long long>(d.before),
                    static_cast<unsigned long long>(d.after));
    const bool regressed = core::has_coverage_regression(*before, *after);
    std::printf("%zu deltas; regression: %s\n", deltas.size(),
                regressed ? "YES" : "no");
    // A regression is a *finding*, not an I/O failure — exit 1 so
    // scripts can tell "coverage went backwards" from "could not read
    // the reports" (exit 3).
    return regressed ? kExitFindings : kExitOk;
}

int cmd_tcd(int argc, char** argv) {
    double target = 1000;
    std::string arg = "open.flags";
    const char* path = nullptr;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (flag_f64(argc, argv, i, "--target", target, bad)) {
        } else if (flag_str(argc, argv, i, "--arg", arg, bad)) {
        } else path = argv[i];
        if (bad) return kExitUsage;
    }
    if (!path) return usage();
    auto report = load(path);
    if (!report) return kExitIo;
    const auto dot = arg.find('.');
    if (dot == std::string::npos) return usage();
    const auto* in = report->find_input(arg.substr(0, dot),
                                        arg.substr(dot + 1));
    if (!in) {
        std::fprintf(stderr, "iocov: no input space %s\n", arg.c_str());
        return 1;
    }
    std::printf("TCD(%s, target=%g) = %.4f\n", arg.c_str(), target,
                core::tcd_uniform(in->hist, target));
    return 0;
}

int cmd_demo(int argc, char** argv) {
    std::string suite = "xfstests";
    double scale = 0.01;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (flag_str(argc, argv, i, "--suite", suite, bad)) {
        } else if (flag_f64(argc, argv, i, "--scale", scale, bad)) {
        } else
            return usage();
        if (bad) return kExitUsage;
    }
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    core::IOCov iocov;
    syscall::Kernel kernel(fs, &iocov.live_sink());
    if (suite == "crashmonkey")
        testers::run_crashmonkey(kernel, fx, scale, 42);
    else if (suite == "ltp")
        testers::run_ltp(kernel, fx, scale, 42);
    else
        testers::run_xfstests(kernel, fx, scale, 42);
    std::printf("suite: %s at scale %g\n\n", suite.c_str(), scale);
    print_summary(iocov.report());
    return 0;
}

int cmd_campaign(int argc, char** argv) {
    testers::CampaignConfig cfg;
    const char* save_path = nullptr;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (flag_str(argc, argv, i, "--suite", cfg.suite, bad)) {
        } else if (flag_f64(argc, argv, i, "--scale", cfg.scale, bad)) {
        } else if (flag_u64(argc, argv, i, "--seed", cfg.seed, bad)) {
        } else if (flag_u32(argc, argv, i, "--samples",
                            cfg.occurrences_per_point, bad)) {
        } else if (flag_u64(argc, argv, i, "--runs", cfg.max_runs, bad)) {
        } else if (flag_u32(argc, argv, i, "--chaos", cfg.chaos_runs,
                            bad)) {
        } else if (flag_u32(argc, argv, i, "--permille",
                            cfg.chaos_permille, bad)) {
        } else if (flag_str(argc, argv, i, "--mount", cfg.mount, bad)) {
        } else if (!std::strcmp(argv[i], "--extended"))
            cfg.extended_registry = true;
        else if (flag_str(argc, argv, i, "--save", save_path, bad)) {
        } else
            return usage();
        if (bad) return kExitUsage;
    }
    if (cfg.suite != "crashmonkey" && cfg.suite != "xfstests" &&
        cfg.suite != "ltp") {
        std::fprintf(stderr, "iocov: unknown suite %s\n", cfg.suite.c_str());
        return 2;
    }
    const auto result = testers::run_campaign(cfg);
    std::printf("suite: %s at scale %g, seed %llu\n\n", cfg.suite.c_str(),
                cfg.scale,
                static_cast<unsigned long long>(cfg.seed));
    std::printf("%s\n", result.summary().c_str());
    print_summary(result.aggregate);
    if (save_path) {
        std::ostringstream out;
        core::save_report(out, result.aggregate);
        if (!write_artifact(save_path, out.str())) return kExitIo;
        std::printf("\naggregate report saved to %s\n", save_path);
    }
    return result.clean() ? kExitOk : kExitFindings;
}

int cmd_guide(int argc, char** argv) {
    testers::guided::GuideConfig cfg;
    const char* baseline_path = nullptr;
    const char* save_path = nullptr;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (flag_str(argc, argv, i, "--suite", cfg.suite, bad)) {
        } else if (flag_f64(argc, argv, i, "--scale", cfg.scale, bad)) {
        } else if (flag_u64(argc, argv, i, "--seed", cfg.seed, bad)) {
        } else if (flag_u32(argc, argv, i, "--rounds", cfg.max_rounds,
                            bad)) {
        } else if (flag_u64(argc, argv, i, "--budget", cfg.call_budget,
                            bad)) {
        } else if (flag_u64(argc, argv, i, "--per-gap", cfg.calls_per_gap,
                            bad)) {
        } else if (flag_f64(argc, argv, i, "--target", cfg.target, bad)) {
        } else if (flag_str(argc, argv, i, "--mount", cfg.mount, bad)) {
        } else if (!std::strcmp(argv[i], "--extended"))
            cfg.extended_registry = true;
        else if (flag_str(argc, argv, i, "--baseline", baseline_path, bad)) {
        } else if (flag_str(argc, argv, i, "--save", save_path, bad)) {
        } else
            return usage();
        if (bad) return kExitUsage;
    }
    if (cfg.suite != "crashmonkey" && cfg.suite != "xfstests" &&
        cfg.suite != "ltp") {
        std::fprintf(stderr, "iocov: unknown suite %s\n", cfg.suite.c_str());
        return 2;
    }
    testers::guided::GuideResult result;
    if (baseline_path) {
        auto baseline = load(baseline_path);
        if (!baseline) return kExitIo;
        result = testers::guided::run_guide_on_baseline(*baseline, cfg);
    } else {
        result = testers::guided::run_guide(cfg);
    }
    std::printf("%s\n", result.summary().c_str());
    std::printf("%s", result.table().c_str());
    if (save_path) {
        std::ostringstream out;
        core::save_report(out, result.final_report);
        if (!write_artifact(save_path, out.str())) return kExitIo;
        std::printf("\nmerged report saved to %s\n", save_path);
    }
    return kExitOk;
}

int cmd_crashtest(int argc, char** argv) {
    testers::crash::CrashTestConfig cfg;
    const char* json_path = nullptr;
    bool list = false;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--list")) {
            list = true;
        } else if (std::string arg;
                   flag_str(argc, argv, i, "--workloads", arg, bad)) {
            // Comma-separated workload names.
            std::size_t pos = 0;
            while (pos <= arg.size()) {
                const std::size_t comma = arg.find(',', pos);
                const std::string name =
                    arg.substr(pos, comma == std::string::npos
                                        ? std::string::npos
                                        : comma - pos);
                if (!name.empty()) cfg.workloads.push_back(name);
                if (comma == std::string::npos) break;
                pos = comma + 1;
            }
        } else if (flag_u64(argc, argv, i, "--seed", cfg.seed, bad)) {
        } else if (flag_u32(argc, argv, i, "--reorders",
                            cfg.reorder_variants, bad)) {
        } else if (!std::strcmp(argv[i], "--no-torn")) {
            cfg.torn_writes = false;
        } else if (flag_u64(argc, argv, i, "--max-points",
                            cfg.max_points_per_workload, bad)) {
        } else if (flag_f64(argc, argv, i, "--target", cfg.tcd_target,
                            bad)) {
        } else if (flag_u64_opt(argc, argv, i, "--inject-skip-barrier",
                                cfg.inject_skip_barrier, bad)) {
        } else if (flag_str(argc, argv, i, "--json", json_path, bad)) {
        } else {
            return usage();
        }
        if (bad) return kExitUsage;
    }
    if (list) {
        for (const auto& wl : testers::crash::crashmonkey_baseline())
            std::printf("%-22s %s\n", wl.name.c_str(),
                        wl.description.c_str());
        return 0;
    }
    for (const auto& name : cfg.workloads) {
        bool known = false;
        for (const auto& wl : testers::crash::crashmonkey_baseline())
            known = known || wl.name == name;
        if (!known) {
            std::fprintf(stderr, "iocov: unknown workload %s "
                                 "(try --list)\n",
                         name.c_str());
            return 2;
        }
    }
    const auto report = testers::crash::run_crashtest(cfg);
    std::printf("%s", report.to_string().c_str());
    if (json_path) {
        if (!write_artifact(json_path, report.to_json())) return kExitIo;
        std::printf("json report saved to %s\n", json_path);
    }
    if (cfg.inject_skip_barrier) {
        // Validation mode: the seeded lost-barrier bug must be caught.
        const bool caught = report.total_bugs > 0;
        std::printf("seeded skip-barrier bug: %s\n",
                    caught ? "CAUGHT" : "MISSED");
        return caught ? kExitOk : kExitFindings;
    }
    return report.total_bugs == 0 ? kExitOk : kExitFindings;
}

int cmd_bugstudy(int argc, char** argv) {
    double scale = 0.01;
    bool export_dataset = false;
    bool bad = false;
    for (int i = 0; i < argc; ++i) {
        if (flag_f64(argc, argv, i, "--scale", scale, bad)) {
        } else if (!std::strcmp(argv[i], "--export"))
            export_dataset = true;
        else
            return usage();
        if (bad) return kExitUsage;
    }
    if (export_dataset) {
        // The dataset the paper promises to release: per-bug coverage
        // sites, classification, and trigger.
        std::printf("%s", bugstudy::render_bug_dataset().c_str());
        return 0;
    }
    const auto r = bugstudy::run_bug_study({scale, 42});
    std::printf("bug study (%d bugs: %d ext4 + %d btrfs), xfstests-sim at "
                "scale %g\n\n",
                r.total, r.ext4, r.btrfs, scale);
    std::printf("detected: %d\n", r.detected);
    std::printf("covered-but-missed: line %d (%.0f%%), function %d "
                "(%.0f%%), branch %d (%.0f%%)\n",
                r.line_cbm, r.pct(r.line_cbm), r.fn_cbm, r.pct(r.fn_cbm),
                r.branch_cbm, r.pct(r.branch_cbm));
    std::printf("classification: input %d (%.0f%%), output %d (%.0f%%), "
                "either %d (%.0f%%)\n\n",
                r.input_bugs, r.pct(r.input_bugs), r.output_bugs,
                r.pct(r.output_bugs), r.either_bugs, r.pct(r.either_bugs));
    std::printf("%-14s %-4s %-4s %-6s %-8s %s\n", "id", "line", "fn",
                "branch", "detected", "description");
    for (const auto& o : r.outcomes)
        std::printf("%-14s %-4s %-4s %-6s %-8s %.60s\n",
                    o.bug->id.c_str(), o.line_covered ? "y" : "-",
                    o.fn_covered ? "y" : "-", o.branch_covered ? "y" : "-",
                    o.detected ? "FOUND" : "-",
                    o.bug->description.c_str());
    return 0;
}

}  // namespace

namespace {

int dispatch(const std::string& cmd, int argc, char** argv) {
    if (cmd == "analyze") return cmd_analyze(argc, argv);
    if (cmd == "convert") return cmd_convert(argc, argv);
    if (cmd == "merge") return cmd_merge(argc, argv);
    if (cmd == "trend") return cmd_trend(argc, argv);
    if (cmd == "report") return cmd_report(argc, argv);
    if (cmd == "diff") return cmd_diff(argc, argv);
    if (cmd == "tcd") return cmd_tcd(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "push") return cmd_push(argc, argv);
    if (cmd == "query") return cmd_query(argc, argv);
    if (cmd == "demo") return cmd_demo(argc, argv);
    if (cmd == "campaign") return cmd_campaign(argc, argv);
    if (cmd == "guide") return cmd_guide(argc, argv);
    if (cmd == "crashtest") return cmd_crashtest(argc, argv);
    if (cmd == "bugstudy") return cmd_bugstudy(argc, argv);
    return usage();
}

}  // namespace

int main(int argc, char** argv) {
    // A consumer that stops reading early (`iocov analyze ... | head`)
    // must surface as a reported error, not a SIGPIPE kill: ignore the
    // signal process-wide so every write fails with EPIPE instead, and
    // map a truncated stdout to the I/O exit code below.
    host::ignore_sigpipe();
    // Self-fault injection into the host I/O layer: IOCOV_SELF_FAULT
    // in the environment, plus any number of hidden `--self-fault
    // SPEC` pairs (stripped here, accepted anywhere on the command
    // line) — the chaos harness's handle for errno sweeps and
    // kill-point placement.  See src/host/fault.hpp for the grammar.
    host::FaultHook::configure_from_env();
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        const char* spec = nullptr;
        bool bad = false;
        if (flag_str(argc, argv, i, "--self-fault", spec, bad)) {
            if (bad) return kExitUsage;
            if (auto err = host::FaultHook::configure(spec)) {
                std::fprintf(stderr, "iocov: --self-fault: %s\n",
                             err->c_str());
                return kExitUsage;
            }
            continue;
        }
        args.push_back(argv[i]);
    }
    argc = static_cast<int>(args.size());
    argv = args.data();
    if (argc < 2) return usage();
    int rc = dispatch(argv[1], argc - 2, argv + 2);
    // Flush before exiting so a closed-pipe consumer is detected here,
    // while we can still report it, rather than lost in exit teardown.
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        std::fprintf(stderr,
                     "iocov: stdout: %s (output truncated)\n",
                     std::strerror(errno ? errno : EPIPE));
        if (rc == kExitOk) rc = kExitIo;
    }
    return rc;
}
