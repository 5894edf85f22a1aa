#include "core/iocov.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>

#include "core/snapshot.hpp"
#include "exec/alloc_hook.hpp"
#include "exec/thread_pool.hpp"
#include "trace/syz_format.hpp"
#include "trace/text_format.hpp"

namespace iocov::core {
namespace {

/// Rows decoded per decode_batch() chunk: large enough to amortize the
/// loop setup, small enough that the SoA scratch stays cache-resident.
constexpr std::size_t kBatchRows = 512;

/// The shared decode -> filter -> analyze inner loop over a span of
/// scan refs.  Chunked through the reusable EventBatch/EventScratch so
/// steady state performs zero heap allocations (tracked per thread via
/// the exec allocation hook).  Bindings pre-resolve interned syscall
/// names — bindings[name_id] replaces a per-event hash lookup with a
/// vector index.
struct IngestOutcome {
    std::size_t dropped = 0;
    std::uint64_t events = 0;    // rows decoded (pre-filter)
    std::uint64_t filtered = 0;  // rows rejected by the trace filter
    std::uint64_t allocs = 0;    // heap allocations inside the loop
};

IngestOutcome ingest_refs(std::string_view data,
                          const std::vector<std::string_view>& strings,
                          const trace::EventRef* refs, std::size_t n,
                          const std::vector<SyscallTable::Binding>& bindings,
                          trace::TraceFilter& filter, Analyzer& analyzer,
                          trace::EventBatch& batch,
                          trace::EventScratch& scratch,
                          trace::ParseDiagnostics& diags) {
    IngestOutcome out;
    const std::uint64_t allocs0 = exec::thread_allocation_count();
    for (std::size_t i = 0; i < n; i += kBatchRows) {
        const std::size_t chunk = std::min(kBatchRows, n - i);
        batch.clear();
        trace::decode_batch(data, strings, refs + i, chunk, batch,
                            &out.dropped, &diags);
        for (std::size_t r = 0; r < batch.rows.size(); ++r) {
            const trace::TraceEvent& ev =
                scratch.materialize(batch, r, strings);
            if (filter.admit(ev))
                analyzer.consume(ev, bindings[batch.rows[r].name_id]);
            else
                ++out.filtered;
        }
        out.events += batch.rows.size();
    }
    out.allocs = exec::thread_allocation_count() - allocs0;
    return out;
}

}  // namespace

IOCov::IOCov(trace::FilterConfig filter_config,
             const std::vector<SyscallSpec>& registry)
    : filter_config_(std::move(filter_config)),
      registry_(&registry),
      filter_(filter_config_),
      analyzer_(registry),
      live_sink_([this](const trace::TraceEvent& ev) { consume(ev); }) {}

void IOCov::consume(const trace::TraceEvent& event) {
    if (filter_.admit(event)) analyzer_.consume(event);
    else ++filtered_out_;
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

std::size_t IOCov::consume_binary(std::string_view data) {
    const auto scan = trace::scan_ioct(data);
    const auto bindings = analyzer_.table().bind_all(scan.strings);
    trace::ParseDiagnostics decode_diags;
    const IngestOutcome outcome =
        ingest_refs(data, scan.strings, scan.events.data(),
                    scan.events.size(), bindings, filter_, analyzer_, batch_,
                    scratch_, decode_diags);
    filtered_out_ += outcome.filtered;
    diagnostics_.merge(scan.diags);
    diagnostics_.merge(decode_diags);

    ingest_stats_.events += outcome.events;
    ingest_stats_.bytes += data.size();
    ingest_stats_.hot_loop_allocs += outcome.allocs;
    return scan.dropped + outcome.dropped;
}

std::size_t IOCov::consume_binary_parallel(std::string_view data,
                                           unsigned n_threads) {
    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    if (n_threads <= 1) return consume_binary(data);

    const auto scan = trace::scan_ioct(data);
    const auto bindings = analyzer_.table().bind_all(scan.strings);

    // Shard record references (not events) by pid.  Scan order is file
    // order, so each pid's event order — the only ordering the stateful
    // filter depends on — is preserved inside its shard.
    std::vector<std::vector<trace::EventRef>> shards(n_threads);
    if (scan.footer) {
        // The footer's per-pid counts size each shard exactly.
        std::vector<std::size_t> sizes(n_threads, 0);
        for (const auto& [pid, count] : scan.footer->pid_events)
            sizes[pid % n_threads] += count;
        for (unsigned s = 0; s < n_threads; ++s) shards[s].reserve(sizes[s]);
    } else {
        for (auto& shard : shards)
            shard.reserve(scan.events.size() / n_threads + 1);
    }
    for (const auto& ref : scan.events)
        shards[ref.pid % n_threads].push_back(ref);

    exec::ThreadPool pool(n_threads);
    std::vector<CoverageReport> reports(shards.size());
    std::vector<IngestOutcome> outcomes(shards.size());
    std::vector<trace::ParseDiagnostics> shard_diags(shards.size());
    std::vector<std::uint8_t> shard_ok(shards.size(), 1);
    exec::parallel_for(pool, shards.size(), [&](std::size_t s) {
        // Error isolation: a shard that fails outright (the catch below;
        // corrupt records are handled per-record and never throw) is
        // degraded to a counted loss instead of poisoning the analysis.
        try {
            trace::TraceFilter filter(filter_config_);
            Analyzer analyzer(*registry_);
            trace::EventBatch batch;
            trace::EventScratch scratch;
            outcomes[s] = ingest_refs(data, scan.strings, shards[s].data(),
                                      shards[s].size(), bindings, filter,
                                      analyzer, batch, scratch,
                                      shard_diags[s]);
            reports[s] = analyzer.take_report();
        } catch (const std::exception& e) {
            shard_ok[s] = 0;
            outcomes[s] = IngestOutcome{};
            outcomes[s].dropped = shards[s].size();
            shard_diags[s].clear();
            shard_diags[s].record(
                0, shards[s].empty() ? 0 : shards[s].front().offset,
                std::string("shard lost: ") + e.what());
        }
    });

    std::size_t total_dropped = scan.dropped;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        if (shard_ok[s]) analyzer_.merge_report(reports[s]);
        else ++shards_lost_;
        filtered_out_ += outcomes[s].filtered;
        diagnostics_.merge(shard_diags[s]);
        total_dropped += outcomes[s].dropped;
        ingest_stats_.events += outcomes[s].events;
        ingest_stats_.hot_loop_allocs += outcomes[s].allocs;
    }
    diagnostics_.merge(scan.diags);
    ingest_stats_.bytes += data.size();
    ingest_stats_.threads = std::max(ingest_stats_.threads, n_threads);
    return total_dropped;
}

std::optional<std::size_t> IOCov::consume_binary_file(const std::string& path,
                                                      unsigned n_threads) {
    auto mapped = trace::MappedFile::open(path);
    if (!mapped) return std::nullopt;
    ++ingest_stats_.files;
    return n_threads == 1 ? consume_binary(mapped->data())
                          : consume_binary_parallel(mapped->data(),
                                                    n_threads);
}

std::optional<IOCov::DirIngest> IOCov::consume_binary_dir(
    const std::string& dir, unsigned n_threads) {
    namespace fs = std::filesystem;

    std::error_code ec;
    if (!fs::is_directory(dir, ec) || ec) return std::nullopt;
    struct FileEntry {
        std::string path;
        std::string name;
        std::uint64_t bytes = 0;
    };
    std::vector<FileEntry> files;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        std::error_code fec;
        if (!it->is_regular_file(fec) || fec) continue;
        FileEntry fe;
        fe.path = it->path().string();
        fe.name = it->path().filename().string();
        const auto size = it->file_size(fec);
        fe.bytes = fec ? 0 : static_cast<std::uint64_t>(size);
        files.push_back(std::move(fe));
    }
    if (ec) return std::nullopt;
    // Name order fixes the merge order (and therefore which diagnostics
    // survive retention) independent of directory-entry order.
    std::sort(files.begin(), files.end(),
              [](const FileEntry& a, const FileEntry& b) {
                  return a.name < b.name;
              });

    // Per-file slots, filled by workers in any order and folded in name
    // order afterwards so the result is independent of scheduling.
    struct FileResult {
        enum class Status { Unreadable, NotIoct, Failed, Analyzed };
        Status status = Status::Unreadable;
        std::string fail_reason;
        CoverageReport report;
        trace::ParseDiagnostics diags;
        IngestOutcome outcome;
        std::uint64_t bytes = 0;
    };
    std::vector<FileResult> slots(files.size());

    auto run_file = [&](std::size_t i) {
        FileResult& slot = slots[i];
        try {
            auto mapped = trace::MappedFile::open(files[i].path);
            if (!mapped) return;  // stays Unreadable
            const std::string_view data = mapped->data();
            if (!trace::is_ioct(data)) {
                slot.status = FileResult::Status::NotIoct;
                return;
            }
            const auto scan = trace::scan_ioct(data);
            const auto bindings = analyzer_.table().bind_all(scan.strings);
            trace::TraceFilter filter(filter_config_);
            Analyzer analyzer(*registry_);
            trace::EventBatch batch;
            trace::EventScratch scratch;
            slot.diags.merge(scan.diags);
            slot.outcome = ingest_refs(data, scan.strings,
                                       scan.events.data(),
                                       scan.events.size(), bindings, filter,
                                       analyzer, batch, scratch, slot.diags);
            slot.outcome.dropped += scan.dropped;
            slot.report = analyzer.take_report();
            slot.bytes = data.size();
            slot.status = FileResult::Status::Analyzed;
        } catch (const std::exception& e) {
            slot.status = FileResult::Status::Failed;
            slot.fail_reason = e.what();
        }
    };

    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::size_t>(n_threads, files.size() ? files.size() : 1));
    if (lanes <= 1) {
        for (std::size_t i = 0; i < files.size(); ++i) run_file(i);
    } else {
        exec::ThreadPool pool(lanes);
        std::vector<std::uint64_t> weights(files.size());
        for (std::size_t i = 0; i < files.size(); ++i)
            weights[i] = files[i].bytes;
        exec::parallel_for_stealing(pool, weights, run_file);
    }

    DirIngest result;
    for (std::size_t i = 0; i < files.size(); ++i) {
        FileResult& slot = slots[i];
        const std::string& name = files[i].name;
        switch (slot.status) {
            case FileResult::Status::Unreadable:
                ++result.rejected;
                diagnostics_.record(0, 0, name + ": cannot open file");
                break;
            case FileResult::Status::NotIoct:
                ++result.rejected;
                diagnostics_.record(
                    0, 0, name + ": not an IOCT file (bad magic/version)");
                break;
            case FileResult::Status::Failed:
                ++shards_lost_;
                diagnostics_.record(
                    0, 0, name + ": file analysis lost: " + slot.fail_reason);
                break;
            case FileResult::Status::Analyzed: {
                analyzer_.merge_report(slot.report);
                filtered_out_ += slot.outcome.filtered;
                ++result.files;
                result.dropped += slot.outcome.dropped;
                result.bytes += slot.bytes;
                // Re-key the file's diagnostics by file name; entries
                // beyond its retention cap fold into the count.
                for (const auto& d : slot.diags.entries())
                    diagnostics_.record(d.line, d.offset,
                                        name + ": " + d.reason, d.excerpt);
                diagnostics_.count_only(slot.diags.total() -
                                        slot.diags.entries().size());
                ingest_stats_.events += slot.outcome.events;
                ingest_stats_.hot_loop_allocs += slot.outcome.allocs;
                break;
            }
        }
    }
    ingest_stats_.files += result.files;
    ingest_stats_.bytes += result.bytes;
    ingest_stats_.threads = std::max(ingest_stats_.threads, lanes);
    return result;
}

std::size_t IOCov::consume_text_parallel(std::istream& in,
                                         unsigned n_threads) {
    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    if (n_threads <= 1) return consume_text(in);

    // Chunking needs random access to line boundaries, so slurp the
    // stream once (the serial path also materializes every event).
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    // More chunks than workers so one expensive chunk can't serialize
    // the tail of the parse stage.
    const auto chunks = trace::split_line_chunks(text, n_threads * 4);

    // Position each chunk within the whole input so diagnostics carry
    // file-absolute line numbers and byte offsets.
    std::vector<std::uint64_t> first_line(chunks.size(), 1);
    std::vector<std::uint64_t> base_offset(chunks.size(), 0);
    std::vector<std::uint64_t> line_count(chunks.size(), 0);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        base_offset[i] =
            static_cast<std::uint64_t>(chunks[i].data() - text.data());
        line_count[i] = static_cast<std::uint64_t>(
            std::count(chunks[i].begin(), chunks[i].end(), '\n'));
        if (!chunks[i].empty() && chunks[i].back() != '\n') ++line_count[i];
        if (i + 1 < chunks.size())
            first_line[i + 1] = first_line[i] + line_count[i];
    }

    exec::ThreadPool pool(n_threads);
    std::vector<std::vector<trace::TraceEvent>> parsed(chunks.size());
    std::vector<std::size_t> dropped(chunks.size(), 0);
    std::vector<trace::ParseDiagnostics> chunk_diags(chunks.size());
    std::vector<std::uint8_t> chunk_ok(chunks.size(), 1);
    exec::parallel_for(pool, chunks.size(), [&](std::size_t i) {
        // Error isolation: a chunk whose parse fails outright degrades
        // to "every line dropped", not a poisoned analysis.  Malformed
        // lines never throw — this guards worker failures.
        try {
            parsed[i] = trace::parse_chunk(chunks[i], &dropped[i],
                                           &chunk_diags[i], first_line[i],
                                           base_offset[i]);
        } catch (const std::exception& e) {
            chunk_ok[i] = 0;
            parsed[i].clear();
            dropped[i] = line_count[i];
            chunk_diags[i].clear();
            chunk_diags[i].record(first_line[i], base_offset[i],
                                  std::string("chunk lost: ") + e.what());
        }
    });
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (!chunk_ok[i]) ++shards_lost_;
        diagnostics_.merge(chunk_diags[i]);
    }

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

    std::vector<CoverageReport> reports(shards.size());
    std::vector<std::uint64_t> shard_filtered(shards.size(), 0);
    std::vector<std::size_t> shard_lost_events(shards.size(), 0);
    std::vector<trace::ParseDiagnostics> shard_diags(shards.size());
    std::vector<std::uint8_t> shard_ok(shards.size(), 1);
    exec::parallel_for(pool, shards.size(), [&](std::size_t s) {
        try {
            trace::TraceFilter filter(filter_config_);
            Analyzer analyzer(*registry_);
            for (const auto& ev : shards[s]) {
                if (filter.admit(ev)) analyzer.consume(ev);
                else ++shard_filtered[s];
            }
            reports[s] = analyzer.take_report();
        } catch (const std::exception& e) {
            shard_ok[s] = 0;
            shard_filtered[s] = 0;
            shard_lost_events[s] = shards[s].size();
            shard_diags[s].record(0, 0,
                                  std::string("shard lost: ") + e.what());
        }
    });

    // Shard-merge order is irrelevant to the result (histogram row order
    // is canonical), but iterate in shard order anyway for clarity.
    for (std::size_t s = 0; s < shards.size(); ++s) {
        if (shard_ok[s]) analyzer_.merge_report(reports[s]);
        else ++shards_lost_;
        filtered_out_ += shard_filtered[s];
        diagnostics_.merge(shard_diags[s]);
    }
    std::size_t total_dropped = 0;
    for (const auto d : dropped) total_dropped += d;
    for (const auto d : shard_lost_events) total_dropped += d;
    return total_dropped;
}

void IOCov::merge(const IOCov& other) {
    analyzer_.merge_report(other.report());
    filtered_out_ += other.filtered_out_;
    shards_lost_ += other.shards_lost_;
    diagnostics_.merge(other.diagnostics_);
    ingest_stats_.events += other.ingest_stats_.events;
    ingest_stats_.bytes += other.ingest_stats_.bytes;
    ingest_stats_.files += other.ingest_stats_.files;
    ingest_stats_.threads =
        std::max(ingest_stats_.threads, other.ingest_stats_.threads);
    ingest_stats_.hot_loop_allocs += other.ingest_stats_.hot_loop_allocs;
}

void IOCov::merge(const IOCovSnapshot& snapshot) {
    analyzer_.merge_report(snapshot.report);
    filtered_out_ += snapshot.filtered_out;
    // The producer's per-record reasons are not serialized, only the
    // count — fold it in without displacing locally retained entries.
    diagnostics_.count_only(snapshot.dropped);
    ingest_stats_.events += snapshot.ingest.events;
    ingest_stats_.bytes += snapshot.ingest.bytes;
    ingest_stats_.files += snapshot.ingest.files;
    ingest_stats_.threads =
        std::max(ingest_stats_.threads, snapshot.ingest.threads);
    ingest_stats_.hot_loop_allocs += snapshot.ingest.hot_loop_allocs;
}

IOCovSnapshot IOCov::snapshot() const {
    IOCovSnapshot snap;
    snap.report = analyzer_.report();
    snap.filtered_out = filtered_out_;
    snap.dropped = diagnostics_.total();
    snap.ingest = ingest_stats_;
    return snap;
}

}  // namespace iocov::core
