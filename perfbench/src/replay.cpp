#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/iocov.hpp"
#include "core/live.hpp"
#include "core/report_io.hpp"
#include "core/snapshot.hpp"
#include "exec/thread_pool.hpp"
#include "host/io.hpp"
#include "serve/protocol.hpp"
#include "trace/binary_format.hpp"
#include "trace/filter.hpp"

namespace perfbench {
namespace {

using namespace iocov;

/// decode_batch chunk size, as in the library's ingest loop.
constexpr std::size_t kBatchRows = 512;

/// Ids of spans that belong to no single input (report, snapshot, ...).
constexpr std::uint64_t kNoInput = 0;
/// Push and frame spans are numbered after the analyze files.
constexpr std::uint64_t kPushIdBase = 1u << 20;

const trace::FilterConfig& filter_config() {
    static const trace::FilterConfig kConfig =
        trace::FilterConfig::mount_point("/mnt/test");
    return kConfig;
}

trace::MappedFile map_file(const std::string& path, Tracer* tr,
                           std::uint64_t id) {
    Scope s(tr, "host.map", id);
    auto mapped = trace::MappedFile::open(path);
    if (!mapped) throw std::runtime_error("cannot map " + path);
    return std::move(*mapped);
}

void write_atomic(const std::string& path, const std::string& bytes,
                  Tracer* tr) {
    Scope s(tr, "host.atomic_write", kNoInput);
    if (auto err = host::write_file_atomic(path, bytes))
        throw std::runtime_error(path + ": " + err->to_string());
}

struct FileOutcome {
    core::IOCovSnapshot state;
    std::uint64_t decoded = 0;
    std::uint64_t admitted = 0;
};

/// Takes the calibrated clock cost of `intervals` intervals out of a
/// stage's summed time (never below zero) and returns what it took.
std::int64_t take_probe(std::int64_t& ns, std::uint64_t intervals,
                        double clock_ns) {
    const auto cost = std::min<std::int64_t>(
        ns, std::llround(clock_ns * static_cast<double>(intervals)));
    ns -= cost;
    return cost;
}

/// One trace file through scan -> setup -> decode -> materialize ->
/// filter -> analyze, with a fresh filter and analyzer (what directory
/// ingest builds per file), each stage timed.
FileOutcome ingest(std::string_view data, Tracer& tr, std::uint64_t id,
                   double clock_ns) {
    trace::IoctScan scan;
    {
        Scope s(&tr, "trace.scan", id);
        scan = trace::scan_ioct(data);
    }
    std::optional<trace::TraceFilter> filter;
    std::optional<core::Analyzer> analyzer;
    std::vector<core::SyscallTable::Binding> bindings;
    {
        Scope s(&tr, "core.setup", id);
        filter.emplace(filter_config());
        analyzer.emplace(core::syscall_registry());
        bindings = analyzer->table().bind_all(scan.strings);
    }
    trace::EventBatch batch;
    trace::EventScratch scratch;
    trace::ParseDiagnostics diags;
    std::size_t dropped = scan.dropped;
    FileOutcome out;
    const auto n = scan.events.size();
    for (std::size_t i = 0; i < n; i += kBatchRows) {
        const std::size_t chunk = std::min(kBatchRows, n - i);
        batch.clear();
        {
            Scope s(&tr, "trace.decode", id);
            trace::decode_batch(data, scan.strings, scan.events.data() + i,
                                chunk, batch, &dropped, &diags);
        }
        const std::size_t rows = batch.rows.size();
        std::uint64_t admitted = 0;
        // Chained clock reads: each stage's interval starts where the
        // previous one ended, so the three sums tile the loop.
        std::int64_t materialize_ns = 0, filter_ns = 0, analyze_ns = 0;
        std::int64_t t0 = now_ns();
        for (std::size_t r = 0; r < rows; ++r) {
            const trace::TraceEvent& ev =
                scratch.materialize(batch, r, scan.strings);
            const std::int64_t t1 = now_ns();
            const bool admit = filter->admit(ev);
            const std::int64_t t2 = now_ns();
            materialize_ns += t1 - t0;
            filter_ns += t2 - t1;
            t0 = t2;
            if (admit) {
                analyzer->consume(ev, bindings[batch.rows[r].name_id]);
                ++admitted;
                t0 = now_ns();
                analyze_ns += t0 - t2;
            }
        }
        // Each interval takes in one clock read; that time goes to a
        // stage of its own, so the stages keep tiling the loop.
        const std::int64_t probe_ns =
            take_probe(materialize_ns, rows, clock_ns) +
            take_probe(filter_ns, rows, clock_ns) +
            take_probe(analyze_ns, admitted, clock_ns);
        tr.add_summed("trace.materialize", id, materialize_ns, rows);
        tr.add_summed("trace.filter", id, filter_ns, rows);
        tr.add_summed("core.analyze", id, analyze_ns, admitted);
        tr.add_summed("probe.clock", id, probe_ns, 2 * rows + admitted);
        out.decoded += rows;
        out.admitted += admitted;
    }
    out.state.report = analyzer->take_report();
    out.state.filtered_out = out.decoded - out.admitted;
    out.state.dropped = dropped;
    return out;
}

void checkpoint(const core::LiveCoverage& live, const std::string& path,
                Tracer* tr) {
    std::string bytes;
    {
        Scope s(tr, "core.checkpoint_encode", kNoInput);
        core::Checkpoint cp;
        cp.mode = core::CheckpointMode::Serve;
        cp.consumed = live.consumed();
        cp.blocks.push_back({static_cast<std::uint64_t>(cp.consumed.size()),
                             live.read()->state});
        bytes = core::encode_checkpoint(cp);
    }
    write_atomic(path, bytes, tr);
}

std::int64_t total_ns(const std::map<std::string, StageTotal>& t,
                      const std::string& name) {
    auto it = t.find(name);
    return it == t.end() ? 0 : it->second.total_ns;
}

std::uint64_t count_of(const std::map<std::string, StageTotal>& t,
                       const std::string& name) {
    auto it = t.find(name);
    return it == t.end() ? 0 : it->second.count;
}

/// Mean span duration of `name` in `unit` nanoseconds (0 when absent).
double mean(const std::map<std::string, StageTotal>& t,
            const std::string& name, double unit) {
    const auto c = count_of(t, name);
    return c ? static_cast<double>(total_ns(t, name)) / unit /
                   static_cast<double>(c)
             : 0.0;
}

}  // namespace

ReplayResult replay(const ReplayInputs& in, Tracer* tr) {
    ReplayResult res;
    const std::int64_t t_start = now_ns();
    Scope root(tr, "replay", kNoInput);
    {
        Scope phase(tr, "analyze", kNoInput);
        core::IOCov acc(filter_config());
        if (!tr) {
            // The CLI's own calls on its own operands, serial.
            const std::int64_t t0 = now_ns();
            for (const auto& target : in.targets) {
                const bool ok = std::filesystem::is_directory(target)
                                    ? acc.consume_binary_dir(target, 1)
                                          .has_value()
                                    : acc.consume_binary_file(target, 1)
                                          .has_value();
                if (!ok) throw std::runtime_error("cannot analyze " + target);
            }
            res.ingest_ms = static_cast<double>(now_ns() - t0) / 1e6;
        } else {
            for (std::size_t i = 0; i < in.analyze.size(); ++i) {
                const std::uint64_t id = i + 1;
                Scope file(tr, "file", id);
                const std::int64_t t0 = now_ns();
                const auto mapped = map_file(in.analyze[i].path, tr, id);
                const FileOutcome out =
                    ingest(mapped.data(), *tr, id, in.clock_ns);
                res.ingest_ms += static_cast<double>(now_ns() - t0) / 1e6;
                res.decoded += out.decoded;
                res.admitted += out.admitted;
                res.dropped += out.state.dropped;
                Scope s(tr, "core.merge", id);
                acc.merge(out.state);
            }
        }
        {
            Scope s(tr, "core.report_render", kNoInput);
            std::ostringstream os;
            core::save_report(os, acc.report());
            res.report = os.str();
        }
        write_atomic(in.work_dir + "/replay.cov", res.report, tr);
        core::IOCovSnapshot snap;
        {
            Scope s(tr, "core.snapshot", kNoInput);
            snap = acc.snapshot();
        }
        std::string bytes;
        {
            Scope s(tr, "core.snapshot_encode", kNoInput);
            bytes = core::encode_snapshot(snap);
        }
        write_atomic(in.work_dir + "/replay.iocs", bytes, tr);
    }
    res.analyze_ms = static_cast<double>(now_ns() - t_start) / 1e6;
    {
        Scope phase(tr, "live", kNoInput);
        core::LiveCoverage live(filter_config());
        std::uint64_t accepted = 0;
        for (std::size_t j = 0; j < in.push.size(); ++j) {
            const ReplayFile& f = in.push[j];
            const std::uint64_t id = kPushIdBase + j;
            Scope push(tr, "push", id);
            const auto mapped = map_file(f.path, tr, id);
            core::LiveCoverage::PushResult r;
            {
                Scope s(tr,
                        f.events >= kLargeShardEvents
                            ? "core.live_push_large"
                            : "core.live_push_small",
                        id);
                r = live.push(f.name, mapped.data());
            }
            if (!r.accepted || r.events != f.events)
                throw std::runtime_error("live push of " + f.name +
                                         " did not account every event");
            if (++accepted % kCheckpointEvery == 0)
                checkpoint(live, in.work_dir + "/replay.iock", tr);
        }
        checkpoint(live, in.work_dir + "/replay.iock", tr);
    }
    {
        Scope phase(tr, "frame", kNoInput);
        for (std::size_t j = 0; j < in.push.size(); ++j) {
            const ReplayFile& f = in.push[j];
            const std::uint64_t id = kPushIdBase + j;
            const auto mapped = map_file(f.path, tr, id);
            Scope s(tr, "serve.frame", id);
            const std::string frame = serve::encode_push(f.name, mapped.data());
            serve::FrameDecoder dec;
            dec.feed(frame);
            serve::Frame out;
            std::string name;
            std::string_view shard;
            if (dec.next(out) != serve::FrameDecoder::Status::Frame ||
                !serve::decode_push(out.body, name, shard) || name != f.name ||
                shard.size() != mapped.data().size())
                throw std::runtime_error("frame round trip failed for " +
                                         f.name);
            res.frame_bytes += frame.size();
        }
    }
    res.total_ms = static_cast<double>(now_ns() - t_start) / 1e6;
    return res;
}

void replay_parallel(const ReplayInputs& in, unsigned lanes, Tracer& tracer) {
    const std::size_t n = in.analyze.size();
    lanes = static_cast<unsigned>(
        std::clamp<std::size_t>(lanes, 1, std::max<std::size_t>(n, 1)));
    std::vector<Span> items(n);
    const auto root = tracer.open("exec.parallel", kNoInput);
    auto run_file = [&](std::size_t i) {
        Span s;
        s.name = "exec.item";
        s.id = i + 1;
        s.start_ns = now_ns();
        core::IOCov one(filter_config());
        if (!one.consume_binary_file(in.analyze[i].path, 1))
            throw std::runtime_error("cannot read " + in.analyze[i].path);
        s.end_ns = now_ns();
        items[i] = s;
    };
    if (lanes == 1) {
        for (std::size_t i = 0; i < n; ++i) run_file(i);
    } else {
        exec::ThreadPool pool(lanes);
        std::vector<std::uint64_t> weights;
        for (const auto& f : in.analyze)
            weights.push_back(std::filesystem::file_size(f.path));
        exec::parallel_for_stealing(pool, weights, run_file);
    }
    for (const auto& s : items) tracer.add(s);
    tracer.close(root);
}

std::map<std::string, double> layer_metrics(const Tracer& serial,
                                            const ReplayResult& result,
                                            const Tracer& parallel,
                                            unsigned lanes,
                                            double serial_ingest_ms) {
    const auto t = stage_totals(serial.spans());
    const double decoded = static_cast<double>(std::max<std::uint64_t>(
        result.decoded, 1));
    const double admitted = static_cast<double>(std::max<std::uint64_t>(
        result.admitted, 1));
    const auto per_event = [&](const char* name, double n) {
        return static_cast<double>(total_ns(t, name)) / n;
    };
    std::map<std::string, double> m;
    m["trace.scan_ns_per_event"] = per_event("trace.scan", decoded);
    m["trace.decode_ns_per_event"] = per_event("trace.decode", decoded);
    m["trace.materialize_ns_per_event"] =
        per_event("trace.materialize", decoded);
    m["trace.filter_ns_per_event"] = per_event("trace.filter", decoded);
    m["trace.filter_admit_ratio"] =
        static_cast<double>(result.admitted) / decoded;
    m["trace.dropped_records"] = static_cast<double>(result.dropped);
    m["core.analyze_ns_per_event"] = per_event("core.analyze", admitted);
    m["core.setup_us_per_file"] = mean(t, "core.setup", 1e3);
    m["core.merge_us_per_file"] = mean(t, "core.merge", 1e3);
    m["core.snapshot_us"] = mean(t, "core.snapshot", 1e3);
    m["core.snapshot_encode_us"] = mean(t, "core.snapshot_encode", 1e3);
    m["core.checkpoint_encode_us"] = mean(t, "core.checkpoint_encode", 1e3);
    m["core.live_push_small_ms"] = mean(t, "core.live_push_small", 1e6);
    m["core.live_push_large_ms"] = mean(t, "core.live_push_large", 1e6);
    m["core.report_render_ms"] = mean(t, "core.report_render", 1e6);
    m["host.map_us_per_file"] = mean(t, "host.map", 1e3);
    m["host.atomic_write_ms"] = mean(t, "host.atomic_write", 1e6);
    m["serve.frame_ns_per_byte"] =
        static_cast<double>(total_ns(t, "serve.frame")) /
        static_cast<double>(std::max<std::uint64_t>(result.frame_bytes, 1));

    // Parallel pass: lane occupancy, and wall-clock speedup over the
    // untraced serial ingest of the same files.
    const auto p = stage_totals(parallel.spans());
    const double par_wall = static_cast<double>(
        std::max<std::int64_t>(total_ns(p, "exec.parallel"), 1));
    m["exec.lane_busy_ratio"] = static_cast<double>(total_ns(p, "exec.item")) /
                                (par_wall * lanes);
    m["exec.speedup"] = serial_ingest_ms * 1e6 / par_wall;

    // Reconciliation: stage (dotted-name) self times over the root.
    std::int64_t stage_self = 0;
    for (const auto& [name, total] : t)
        if (name.find('.') != std::string::npos) stage_self += total.self_ns;
    m["stage_sum_ratio"] =
        static_cast<double>(stage_self) /
        static_cast<double>(std::max<std::int64_t>(total_ns(t, "replay"), 1));
    return m;
}

}  // namespace perfbench
