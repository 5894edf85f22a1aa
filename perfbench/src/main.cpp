// perfbench — the benchmark's helper binary.  run.py drives it; each
// subcommand prints one JSON object (or writes the named file).
//
//   perfbench provenance
//   perfbench gen       --workload W --seed N --out DIR [--threads T]
//   perfbench reference --inputs DIR --out REPORT
//   perfbench replay    --inputs DIR --targets A[,B...] --work DIR
//                       --lanes N --seconds S [--spans OUT.tsv]
//                       [--report OUT.cov]
//   perfbench load      --inputs DIR --socket PATH --seconds S --seed N
//                       [--once] [--names-out FILE]
//
// DIR is a directory `gen` wrote; its manifest says which files the
// workload analyzes and pushes.  --targets are the `iocov analyze`
// operands for those files, relative to DIR.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/iocov.hpp"
#include "core/report_io.hpp"
#include "gen.hpp"
#include "load.hpp"
#include "replay.hpp"
#include "span.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::map<std::string, std::string> kv;
    bool flag(const std::string& k) const { return kv.count(k) != 0; }
    const std::string& get(const std::string& k) const {
        auto it = kv.find(k);
        if (it == kv.end()) throw std::invalid_argument("missing --" + k);
        return it->second;
    }
    std::string get(const std::string& k, const std::string& dflt) const {
        auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }
};

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0) throw std::invalid_argument("bad arg " + k);
        k = k.substr(2);
        const bool has_value = i + 1 < argc &&
                               std::string(argv[i + 1]).rfind("--", 0) != 0;
        a.kv[k] = has_value ? argv[++i] : "";
    }
    return a;
}

/// Files of a generated input directory, by manifest kind.
std::map<std::string, std::vector<ReplayFile>> load_manifest(
    const std::string& dir) {
    std::ifstream in(dir + "/manifest.tsv");
    if (!in) throw std::runtime_error("no manifest in " + dir);
    std::map<std::string, std::vector<ReplayFile>> out;
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string kind, path;
        std::uint64_t events = 0;
        ls >> kind >> path >> events;
        ReplayFile f;
        f.path = dir + "/" + path;
        f.name = std::filesystem::path(path).filename().string();
        f.events = events;
        out[kind].push_back(f);
    }
    for (auto& [kind, files] : out)
        std::sort(files.begin(), files.end(),
                  [](const ReplayFile& a, const ReplayFile& b) {
                      return a.path < b.path;
                  });
    return out;
}

/// What `iocov analyze` runs on in each workload (name order): the
/// trace, the fleet directory, or the serve pool (small/ then large/).
std::vector<ReplayFile> analyze_files(
    const std::map<std::string, std::vector<ReplayFile>>& m) {
    std::vector<ReplayFile> out;
    for (const char* kind : {"trace", "shard", "small", "large"}) {
        auto it = m.find(kind);
        if (it != m.end())
            out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return out;
}

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

int cmd_provenance() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    std::printf("{\"build_type\": \"%s\", \"gen_version\": %d}\n", build,
                kGenVersion);
    return 0;
}

int cmd_gen(const Args& a) {
    const auto files = generate(a.get("workload"), std::stoull(a.get("seed")),
                                a.get("out"), 1.0,
                                static_cast<unsigned>(
                                    std::stoul(a.get("threads", "1"))));
    std::printf("{\"files\": %zu}\n", files.size());
    return 0;
}

/// core::save_report of fresh in-process IOCovs over the inputs: one
/// per file (as directory ingest keeps fd state per file), merged in
/// name order.
int cmd_reference(const Args& a) {
    const auto files = analyze_files(load_manifest(a.get("inputs")));
    iocov::core::IOCov acc;
    for (const auto& f : files) {
        iocov::core::IOCov one;
        if (!one.consume_binary_file(f.path, 1))
            throw std::runtime_error("cannot read " + f.path);
        acc.merge(one);
    }
    std::ofstream out(a.get("out"), std::ios::binary);
    iocov::core::save_report(out, acc.report());
    return out ? 0 : 1;
}

int cmd_replay(const Args& a) {
    const auto m = load_manifest(a.get("inputs"));
    ReplayInputs in;
    in.analyze = analyze_files(m);
    in.push = in.analyze;
    if (auto it = m.find("probe"); it != m.end())
        in.push.insert(in.push.end(), it->second.begin(), it->second.end());
    std::istringstream targets(a.get("targets"));
    for (std::string t; std::getline(targets, t, ',');)
        in.targets.push_back(a.get("inputs") + "/" + t);
    in.work_dir = a.get("work");
    in.clock_ns = clock_read_ns();
    const unsigned lanes = static_cast<unsigned>(std::clamp<std::size_t>(
        std::stoul(a.get("lanes")), 1, std::max<std::size_t>(in.analyze.size(), 1)));
    const double seconds = std::stod(a.get("seconds"));

    std::map<std::string, std::vector<double>> metrics;
    std::vector<double> untraced_ms, untraced_analyze_ms, overhead;
    double worst_gap = 0;
    std::string report;
    Tracer last;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (int iter = 0; iter < 2 || now_ns() < deadline; ++iter) {
        // Alternate which pass goes first so neither always runs warm.
        ReplayResult plain, traced;
        Tracer serial;
        if (iter % 2 == 0) {
            plain = replay(in, nullptr);
            traced = replay(in, &serial);
        } else {
            traced = replay(in, &serial);
            plain = replay(in, nullptr);
        }
        if (traced.report != plain.report)
            throw std::runtime_error("traced and untraced replays disagree");
        report = plain.report;
        Tracer parallel;
        replay_parallel(in, lanes, parallel);
        for (const auto& [k, v] :
             layer_metrics(serial, traced, parallel, lanes, plain.ingest_ms))
            metrics[k].push_back(v);
        untraced_ms.push_back(plain.total_ms);
        untraced_analyze_ms.push_back(plain.analyze_ms);
        overhead.push_back(traced.total_ms / plain.total_ms);
        worst_gap = std::max(worst_gap,
                             std::abs(1.0 - metrics["stage_sum_ratio"].back()));
        last = std::move(serial);
    }
    if (a.flag("spans")) {
        std::ofstream out(a.get("spans"));
        last.write_tsv(out);
    }
    if (a.flag("report")) {
        std::ofstream out(a.get("report"), std::ios::binary);
        out << report;
    }

    std::printf("{\"iterations\": %zu, \"lanes\": %u, \"reconciled\": %s, "
                "\"stage_sum_tolerance\": %s, \"worst_stage_gap\": %s, "
                "\"clock_read_ns\": %s, "
                "\"untraced_ms\": %s, \"untraced_analyze_ms\": %s, "
                "\"trace_overhead_ratio\": %s, \"metrics\": {",
                untraced_ms.size(), lanes,
                worst_gap <= kStageSumTolerance ? "true" : "false",
                fmt(kStageSumTolerance).c_str(), fmt(worst_gap).c_str(),
                fmt(in.clock_ns).c_str(),
                fmt(median(untraced_ms)).c_str(),
                fmt(median(untraced_analyze_ms)).c_str(),
                fmt(median(overhead)).c_str());
    bool first = true;
    for (const auto& [k, v] : metrics) {
        std::printf("%s\"%s\": %s", first ? "" : ", ", k.c_str(),
                    fmt(median(v)).c_str());
        first = false;
    }
    std::printf("}}\n");
    return 0;
}

int cmd_load(const Args& a) {
    const auto m = load_manifest(a.get("inputs"));
    LoadOptions opt;
    opt.socket = a.get("socket");
    opt.seconds = std::stod(a.get("seconds"));
    opt.seed = std::stoull(a.get("seed"));
    opt.names_out = a.get("names-out", "");
    opt.cycle = !a.flag("once");
    if (opt.cycle) {
        if (!m.count("small") || !m.count("large"))
            throw std::invalid_argument("load: inputs have no serve pool");
        opt.small = m.at("small");
        opt.large = m.at("large");
    } else {
        opt.small = analyze_files(m);
    }
    std::printf("%s\n", run_load(opt).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perfbench provenance|gen|reference|replay|load "
                     "[--flag value]...\n");
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args a = parse(argc, argv);
        if (cmd == "provenance") return cmd_provenance();
        if (cmd == "gen") return cmd_gen(a);
        if (cmd == "reference") return cmd_reference(a);
        if (cmd == "replay") return cmd_replay(a);
        if (cmd == "load") return cmd_load(a);
        std::fprintf(stderr, "perfbench: unknown command %s\n", cmd.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
}
