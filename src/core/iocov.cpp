#include "core/iocov.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "core/detail/shard_driver.hpp"
#include "core/schema.hpp"
#include "core/snapshot.hpp"
#include "core/walk.hpp"
#include "exec/alloc_hook.hpp"
#include "exec/thread_pool.hpp"
#include "trace/syz_format.hpp"
#include "trace/text_format.hpp"

namespace iocov::core {
namespace {

/// Rows decoded per decode_batch() chunk: large enough to amortize the
/// loop setup, small enough that the SoA scratch stays cache-resident.
constexpr std::size_t kBatchRows = 512;

}  // namespace

IngestStats& IngestStats::operator+=(const IngestStats& other) {
    events += other.events;
    bytes += other.bytes;
    files += other.files;
    threads = std::max(threads, other.threads);
    return *this;
}

IOCov::Tally& IOCov::Tally::operator+=(const Tally& other) {
    filtered_out += other.filtered_out;
    shards_lost += other.shards_lost;
    ingest += other.ingest;
    hot_loop_allocs += other.hot_loop_allocs;
    return *this;
}

IOCov::IOCov(trace::FilterConfig filter_config,
             const std::vector<SyscallSpec>& registry)
    : IOCov(std::move(filter_config), Schema::of(registry)) {}

IOCov::IOCov(trace::FilterConfig filter_config,
             std::shared_ptr<const Schema> schema)
    : filter_config_(std::move(filter_config)),
      filter_(filter_config_),
      analyzer_(std::move(schema)),
      live_sink_([this](const trace::TraceEvent& ev) { consume(ev); }) {}

void IOCov::consume(const trace::TraceEvent& event) {
    if (filter_.admit(event)) analyzer_.consume(event);
    else ++tally_.filtered_out;
}

void IOCov::consume_all(const std::vector<trace::TraceEvent>& events) {
    for (const auto& ev : events) consume(ev);
}

std::size_t IOCov::consume_syz(std::istream& in) {
    trace::SyzParseStats stats;
    const auto events = trace::parse_syz_program(in, &stats);
    for (const auto& ev : events) analyzer_.consume(ev);
    return stats.parsed;
}

std::size_t IOCov::consume_text(std::istream& in) {
    std::size_t dropped = 0;
    auto events = trace::parse_stream(in, &dropped, &diagnostics_);
    consume_all(events);
    return dropped;
}

void IOCov::analyze_batch(const std::vector<std::string_view>& strings,
                          const SyscallTable::FileBinding& file) {
    // The admitted rows are compacted to the front of the batch (row i
    // is read before any later write can reach it), then analyzed in
    // one call.
    auto& rows = batch_.rows;
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto call = trace::FilterCall::of(
            batch_, i, strings, file.names[rows[i].name_id].role);
        if (!filter_.admit(call)) continue;
        if (admitted != i) rows[admitted] = rows[i];
        ++admitted;
    }
    tally_.ingest.events += rows.size();
    tally_.filtered_out += rows.size() - admitted;
    rows.resize(admitted);
    analyzer_.consume(batch_, strings, file);
}

IOCov::IngestDrops IOCov::ingest_ioct(std::string_view data,
                                      trace::PidShard shard,
                                      trace::ParseDiagnostics& scan_diags,
                                      trace::ParseDiagnostics& decode_diags) {
    const SyscallTable& table = analyzer_.table();
    strings_.clear();
    binding_.names.clear();
    binding_.keys.clear();
    trace::IoctReader reader(data, scan_diags);
    IngestDrops drops;
    while (reader.read(strings_, window_, kBatchRows, shard)) {
        table.bind_more(binding_, strings_);
        // The window's decode -> filter -> analyze is the hot loop;
        // completing the string table is not.  Heap allocations in it
        // are counted per thread through the exec allocation hook.
        std::uint64_t allocs0 = exec::thread_allocation_count();
        batch_.clear();
        std::size_t bad = 0;
        trace::decode_batch(data, strings_, binding_.keys, window_.data(),
                            window_.size(), batch_, &bad);
        if (bad != 0) {
            // A row may name a string defined later in the file.  Decode
            // the window again against the complete table, stamping the
            // codes of its new strings, as a scan-then-decode reader
            // would, recording its drops, before any of its rows reach
            // the filter (which keeps state).
            const std::uint64_t allocs1 = exec::thread_allocation_count();
            reader.read_strings(strings_);
            table.bind_more(binding_, strings_);
            allocs0 += exec::thread_allocation_count() - allocs1;
            batch_.clear();
            bad = 0;
            trace::decode_batch(data, strings_, binding_.keys,
                                window_.data(), window_.size(), batch_, &bad,
                                &decode_diags);
            drops.decode += bad;
        }
        analyze_batch(strings_, binding_);
        tally_.hot_loop_allocs += exec::thread_allocation_count() - allocs0;
    }
    drops.scan = reader.dropped();
    return drops;
}

std::size_t IOCov::consume_binary(std::string_view data) {
    trace::ParseDiagnostics scan_diags, decode_diags;
    const IngestDrops drops = ingest_ioct(data, {}, scan_diags, decode_diags);
    tally_.ingest.bytes += data.size();
    diagnostics_.merge(scan_diags);
    diagnostics_.merge(decode_diags);
    return drops.scan + drops.decode;
}

std::size_t IOCov::consume_binary_parallel(std::string_view data,
                                           unsigned n_threads) {
    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    if (n_threads <= 1) {
        filter_.reset();  // each call starts fresh, as its shards do
        return consume_binary(data);
    }

    // One item per pid class (pid % n_threads): each walks the whole
    // file with its own reader and decodes only its own refs, so no
    // shard holds more than the string table and one window, and each
    // pid's events reach its shard's filter in file order — the only
    // ordering the stateful filter depends on.  The record walk drops
    // the same records in every shard; shard 0's count and diagnostics
    // stand for all of them.
    const auto shard_of = [n_threads](std::size_t s) {
        return trace::PidShard{n_threads, static_cast<std::uint32_t>(s)};
    };
    trace::ParseDiagnostics scan_diags;
    std::size_t scan_dropped = 0;
    detail::ShardDriver::Item item;
    item.weight = 1;
    const std::vector<detail::ShardDriver::Item> items(n_threads, item);
    const auto run = detail::ShardDriver::run(
        *this, items, n_threads,
        [&](std::size_t s, IOCov& shard) {
            trace::ParseDiagnostics uncounted(0);
            const IngestDrops drops = shard.ingest_ioct(
                data, shard_of(s), s == 0 ? scan_diags : uncounted,
                shard.diagnostics_);
            if (s == 0) scan_dropped = drops.scan;
            return drops.decode;
        },
        [&](std::size_t s, detail::ShardDriver::Item& lost) {
            // A lost shard drops every record of its pid class, counted
            // by a walk that decodes nothing; a lost shard 0 also
            // leaves the record walk's drops to this walk.
            trace::ParseDiagnostics uncounted(0);
            if (s == 0) scan_diags.clear();
            trace::IoctReader reader(data, s == 0 ? scan_diags : uncounted);
            std::vector<std::string_view> strings;
            std::vector<trace::EventRef> refs;
            while (reader.read(strings, refs, kBatchRows, shard_of(s))) {
                if (lost.records == 0) lost.offset = refs.front().offset;
                lost.records += refs.size();
            }
            if (s == 0) scan_dropped = reader.dropped();
        });
    diagnostics_.merge(scan_diags);
    tally_.ingest.bytes += data.size();
    tally_.ingest.threads = std::max(tally_.ingest.threads, run.lanes);
    return scan_dropped + run.dropped;
}

std::optional<std::size_t> IOCov::consume_binary_file(const std::string& path,
                                                      unsigned n_threads) {
    auto mapped = trace::MappedFile::open(path);
    if (!mapped) return std::nullopt;
    ++tally_.ingest.files;
    return consume_binary_parallel(mapped->data(), n_threads);
}

std::optional<IOCov::DirIngest> IOCov::consume_binary_dir(
    const std::string& dir, unsigned n_threads) {
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec) || ec) return std::nullopt;
    const auto entries = list_inputs({dir});
    if (!entries) return std::nullopt;
    return detail::ShardDriver::consume_binary_files(*this, *entries,
                                                     n_threads);
}

std::size_t IOCov::consume_text_parallel(std::istream& in,
                                         unsigned n_threads) {
    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    if (n_threads <= 1) {
        filter_.reset();  // each call starts fresh, as its shards do
        return consume_text(in);
    }

    // Chunking needs random access to line boundaries, so slurp the
    // stream once, in bulk (the serial path does the same).
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = std::move(buffer).str();
    // More chunks than workers so one expensive chunk can't serialize
    // the tail of the parse stage.
    const auto chunks = trace::split_line_chunks(text, n_threads * 4);

    // Position each chunk within the whole input so diagnostics carry
    // file-absolute line numbers and byte offsets; a lost chunk drops
    // every line it held.
    std::vector<detail::ShardDriver::Item> chunk_items(chunks.size());
    std::uint64_t line = 1;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        auto& item = chunk_items[i];
        item.weight = chunks[i].size();
        item.records = static_cast<std::uint64_t>(
            std::count(chunks[i].begin(), chunks[i].end(), '\n'));
        if (!chunks[i].empty() && chunks[i].back() != '\n') ++item.records;
        item.line = line;
        item.offset =
            static_cast<std::uint64_t>(chunks[i].data() - text.data());
        line += item.records;
    }
    std::vector<std::vector<trace::TraceEvent>> parsed(chunks.size());
    const auto parse = detail::ShardDriver::run(
        *this, chunk_items, n_threads, [&](std::size_t i, IOCov& shard) {
            std::size_t dropped = 0;
            parsed[i] = trace::parse_chunk(chunks[i], &dropped,
                                           &shard.diagnostics_,
                                           chunk_items[i].line,
                                           chunk_items[i].offset);
            return dropped;
        });

    // Re-shard by pid.  Scanning the chunks in order preserves each
    // pid's trace order, which is the only ordering the stateful filter
    // (per-pid fd watches and cwd) depends on.
    std::vector<std::vector<trace::TraceEvent>> shards(n_threads);
    std::size_t total_events = 0;
    for (const auto& chunk_events : parsed) total_events += chunk_events.size();
    for (auto& shard : shards) shard.reserve(total_events / n_threads + 1);
    for (auto& chunk_events : parsed) {
        for (auto& ev : chunk_events)
            shards[ev.pid % n_threads].push_back(std::move(ev));
        chunk_events.clear();
    }

    std::vector<detail::ShardDriver::Item> shard_items(n_threads);
    for (unsigned s = 0; s < n_threads; ++s)
        shard_items[s].weight = shard_items[s].records = shards[s].size();
    const auto analyze = detail::ShardDriver::run(
        *this, shard_items, n_threads, [&](std::size_t s, IOCov& shard) {
            shard.consume_all(shards[s]);
            return std::size_t{0};
        });
    return parse.dropped + analyze.dropped;
}

void IOCov::fold(const CoverageReport& report, const Tally& tally,
                 const trace::ParseDiagnostics& diags,
                 std::string_view label) {
    analyzer_.merge_report(report);
    tally_ += tally;
    if (label.empty()) diagnostics_.merge(diags);
    else diagnostics_.append(diags, label);
}

void IOCov::merge(const IOCov& other) {
    fold(other.report(), other.tally_, other.diagnostics_);
}

void IOCov::merge(const IOCovSnapshot& snapshot) {
    analyzer_.merge_report(snapshot.report);
    tally_ += Tally{snapshot.filtered_out, 0, snapshot.ingest};
    // The producer's per-record reasons are not serialized, only the
    // count — fold it in without displacing locally retained entries.
    diagnostics_.count_only(snapshot.dropped);
}

void IOCov::resume(const IOCovSnapshot& snapshot,
                   const trace::ParseDiagnostics& diags) {
    analyzer_.merge_report(snapshot.report);
    tally_ += Tally{snapshot.filtered_out, 0, snapshot.ingest};
    diagnostics_.append(diags);
}

IOCovSnapshot IOCov::snapshot() const {
    IOCovSnapshot snap;
    snap.report = analyzer_.report();
    snap.filtered_out = tally_.filtered_out;
    snap.dropped = diagnostics_.total();
    snap.ingest = tally_.ingest;
    return snap;
}

namespace detail {

ShardDriver::Run ShardDriver::run(IOCov& into, const std::vector<Item>& items,
                                  unsigned n_threads, const Body& body,
                                  const Recount& recount) {
    struct Part {
        CoverageReport report;
        IOCov::Tally tally;
        trace::ParseDiagnostics diags;
        std::size_t dropped = 0;
    };
    std::vector<Part> parts(items.size());
    auto run_item = [&](std::size_t i) {
        Part& part = parts[i];
        try {
            IOCov shard(into.filter_config_, into.analyzer_.schema());
            part.dropped = body(i, shard);
            part.report = shard.analyzer_.take_report();
            part.tally = shard.tally_;
            part.diags = std::move(shard.diagnostics_);
        } catch (const std::exception& e) {
            // Isolation: corrupt input is dropped per record and never
            // throws, so this guards worker failures (e.g. bad_alloc).
            // The item degrades to a counted loss of its records instead
            // of poisoning the whole ingest.
            Item lost = items[i];
            if (recount) recount(i, lost);
            part.tally.shards_lost = 1;
            part.dropped = lost.records;
            part.diags.record(lost.line, lost.offset,
                              std::string("shard lost: ") + e.what());
        }
    };

    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    const auto lanes = static_cast<unsigned>(std::min<std::size_t>(
        n_threads, std::max<std::size_t>(items.size(), 1)));
    if (lanes == 1) {
        for (std::size_t i = 0; i < items.size(); ++i) run_item(i);
    } else {
        std::vector<std::uint64_t> weights(items.size());
        for (std::size_t i = 0; i < items.size(); ++i)
            weights[i] = items[i].weight;
        exec::ThreadPool pool(lanes);
        exec::parallel_for_stealing(pool, weights, run_item);
    }

    Run result;
    result.lanes = lanes;
    for (std::size_t i = 0; i < items.size(); ++i) {
        into.fold(parts[i].report, parts[i].tally, parts[i].diags,
                  items[i].label);
        result.dropped += parts[i].dropped;
    }
    return result;
}

IOCov::DirIngest ShardDriver::consume_binary_files(
    IOCov& into, std::span<const WalkEntry> entries, unsigned n_threads) {
    std::vector<Item> files(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        files[i].weight = entries[i].bytes;
        files[i].label = entries[i].name;
    }
    const IOCov::Tally before = into.tally_;
    const auto run = ShardDriver::run(
        into, files, n_threads,
        [&](std::size_t i, IOCov& shard) -> std::size_t {
            const auto mapped = trace::MappedFile::open(entries[i].path);
            if (!mapped || !trace::is_ioct(mapped->data())) {
                shard.diagnostics_.record(
                    0, 0,
                    mapped ? "not an IOCT file (bad magic/version)"
                           : "cannot open file");
                return 0;
            }
            ++shard.tally_.ingest.files;
            shard.tally_.ingest.bytes += mapped->data().size();
            // One accumulator: scan drops, then decode drops, each in
            // record order (the shard's accumulator starts empty).
            trace::ParseDiagnostics decode_diags;
            const IOCov::IngestDrops drops = shard.ingest_ioct(
                mapped->data(), {}, shard.diagnostics_, decode_diags);
            shard.diagnostics_.append(decode_diags);
            return drops.scan + drops.decode;
        });

    // Analyzed files counted themselves; the rest were lost or rejected.
    IOCov::DirIngest result;
    result.files = into.tally_.ingest.files - before.ingest.files;
    result.rejected = files.size() - result.files -
                      (into.tally_.shards_lost - before.shards_lost);
    result.dropped = run.dropped;
    result.bytes = into.tally_.ingest.bytes - before.ingest.bytes;
    into.tally_.ingest.threads =
        std::max(into.tally_.ingest.threads, run.lanes);
    return result;
}

}  // namespace detail
}  // namespace iocov::core
