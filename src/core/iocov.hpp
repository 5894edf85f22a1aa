// IOCov facade: the public entry point of the library.
//
// Wires the three components of the paper's Section 3 pipeline —
// trace filter, syscall variant handler, input/output partitioner —
// behind one object:
//
//     iocov::core::IOCov iocov(
//         iocov::trace::FilterConfig::mount_point("/mnt/test"));
//     iocov.consume_all(buffer.events());
//     const auto& report = iocov.report();
//
// As in the real tool, the only knob a new file-system tester needs is
// the mount point: a literal directory whose subtree is in scope.
#pragma once

#include <istream>
#include <optional>
#include <string>
#include <string_view>

#include "core/coverage.hpp"
#include "core/tcd.hpp"
#include "core/untested.hpp"
#include "trace/binary_format.hpp"
#include "trace/diagnostics.hpp"
#include "trace/filter.hpp"
#include "trace/sink.hpp"

namespace iocov::core {

/// Cumulative binary-ingest statistics across every consume_binary*
/// call on one IOCov (surfaced by `iocov analyze --stats`).  Integers
/// only: wall time is the caller's to measure, so merging stats (and
/// the snapshots that carry them) is exact in any order.
struct IngestStats {
    std::uint64_t events = 0;  ///< event records decoded (pre-filter)
    std::uint64_t bytes = 0;   ///< trace bytes ingested
    std::uint64_t files = 0;   ///< files analyzed (file/dir entry points)
    unsigned threads = 1;      ///< widest thread count used

    /// The one fold: counters add, `threads` keeps the maximum.
    IngestStats& operator+=(const IngestStats& other);

    friend bool operator==(const IngestStats&, const IngestStats&) = default;
};

struct IOCovSnapshot;  // core/snapshot.hpp

namespace detail { struct ShardDriver; }  // core/detail/shard_driver.hpp

class IOCov {
  public:
    /// `filter_config` selects the file system under test; the default
    /// matches the paper's xfstests setup (/mnt/test).  `registry`
    /// selects the tracked syscall set (pass
    /// extended_syscall_registry() for the future-work superset).
    explicit IOCov(trace::FilterConfig filter_config =
                       trace::FilterConfig::mount_point("/mnt/test"),
                   const std::vector<SyscallSpec>& registry =
                       syscall_registry());

    /// Feeds one raw trace event (filtering happens internally; events
    /// must arrive in trace order for fd tracking to work).
    void consume(const trace::TraceEvent& event);

    void consume_all(const std::vector<trace::TraceEvent>& events);

    /// Parses an LTTng-style text trace and analyzes it.
    /// Returns the number of malformed lines skipped.
    std::size_t consume_text(std::istream& in);

    /// Parallel consume_text, run as two passes of the sharded ingest
    /// driver (core/detail/shard_driver.hpp): line chunks parse in
    /// parallel, their events are re-sharded by pid, and each pid shard
    /// runs filter+analyze on its own fresh IOCov before the driver
    /// folds the shards back here in shard order.  The trace filter's
    /// state (watched fds, cwd) is keyed strictly by pid, so per-pid
    /// order — which sharding preserves — is all that determinism
    /// needs: on a fresh IOCov this produces a report bit-identical to
    /// consume_text.  Unlike the serial path, filter state does not
    /// carry across calls, at any `n_threads`: each call starts from
    /// fresh filter state, so its result does not depend on the thread
    /// count.  Analyze related traces in one call (or serially) if fds
    /// span files.  `n_threads` 0 means hardware concurrency; 1 resets
    /// the filter and falls back to the serial path.  Returns the
    /// number of malformed lines skipped.
    std::size_t consume_text_parallel(std::istream& in,
                                      unsigned n_threads = 0);

    /// Analyzes an IOCT binary trace held in memory (typically an
    /// mmap'd file; see trace::MappedFile).  Events are decoded into
    /// reusable rows — strings stay string-table ids, no per-event
    /// TraceEvent — and fed through the same filter + analyzer core as
    /// consume_text, so
    /// the report is bit-identical to analyzing the equivalent text
    /// trace.  Returns the number of undecodable records dropped
    /// (torn tails and corrupt payloads), mirroring consume_text's
    /// malformed-line count.  A buffer that is not an IOCT file (bad
    /// magic/version) analyzes as empty with 0 dropped — callers that
    /// need to distinguish should sniff with trace::is_ioct first.
    std::size_t consume_binary(std::string_view data);

    /// Parallel consume_binary on the same driver: one shard per pid
    /// class (pid % n_threads), each walking the buffer with its own
    /// one-pass reader and decoding + filtering + analyzing only its own
    /// records on its own fresh IOCov, before the shards fold back in
    /// shard order.  No shard holds a ref per record, and the footer's
    /// per-pid counts (untrusted input) size nothing.  Bit-identical to
    /// consume_binary on a fresh IOCov, with the same contract as the
    /// text path: each call starts from fresh filter state.  `n_threads`
    /// 0 means hardware concurrency; 1 resets the filter and falls back
    /// to consume_binary.
    std::size_t consume_binary_parallel(std::string_view data,
                                        unsigned n_threads = 0);

    /// Opens `path` (mmap with a read() fallback) and runs
    /// consume_binary_parallel on it (`n_threads` 1 is serial, 0
    /// auto-detects hardware concurrency).  Returns nullopt when the
    /// file cannot be opened.
    std::optional<std::size_t> consume_binary_file(const std::string& path,
                                                   unsigned n_threads = 1);

    /// Result of a directory ingestion (consume_binary_dir).
    struct DirIngest {
        std::size_t files = 0;     ///< IOCT files analyzed
        std::size_t rejected = 0;  ///< entries skipped (not IOCT / unreadable)
        std::size_t dropped = 0;   ///< undecodable records across all files
        std::uint64_t bytes = 0;   ///< bytes analyzed
        /// Counters a resumed walk (core/walk.hpp) restored from its
        /// manifest rather than decoded; included in the counts above.
        IngestStats resumed;
    };

    /// Analyzes every regular file in `dir` (sorted by name; not
    /// recursive).  Non-IOCT files are rejected with a per-file
    /// diagnostic, not an error — a trace directory routinely holds a
    /// README or checksum file.  Each file is one item of the sharded
    /// ingest driver, weighted by file size (`n_threads` 0 = hardware
    /// concurrency, 1 = serial), and gets its own fresh IOCov — fd
    /// state never crosses files, exactly as if each file were a
    /// separate `iocov analyze`.  Files fold back in name order, each
    /// diagnostic re-keyed as "<name>: <reason>", so the result is
    /// bit-identical to ingesting the files sequentially into per-file
    /// IOCovs and merging, regardless of thread count.  Returns nullopt
    /// when `dir` cannot be enumerated.
    std::optional<DirIngest> consume_binary_dir(const std::string& dir,
                                                unsigned n_threads = 1);

    /// Parses a syzkaller program/log and analyzes its *input* coverage
    /// (declarative programs carry no return values, so output coverage
    /// is unaffected).  Fuzzer programs run confined to their sandbox,
    /// so no mount-point filtering is applied.  Returns the number of
    /// syscall lines parsed.
    std::size_t consume_syz(std::istream& in);

    /// Folds another IOCov's coverage state into this one: report
    /// histograms merge row-wise, filtered/dropped/shard counters and
    /// IngestStats accumulate (see the accumulation contract below),
    /// and retained diagnostics fold under the usual first-K retention.
    /// Associative and commutative in the report — for any split of a
    /// workload into per-pid-ordered parts, merging the parts' IOCovs
    /// (in any order, any grouping) is bit-identical to one IOCov
    /// ingesting the whole workload.  `other`'s live filter state
    /// (watched fds, cwd) is NOT transferred: merge combines finished
    /// measurements, it does not splice mid-trace sessions.
    void merge(const IOCov& other);

    /// Same fold from a deserialized snapshot (see core/snapshot.hpp):
    /// merge(ingest(A).snapshot(), ingest(B).snapshot()) ==
    /// ingest(A+B).snapshot() bit-identically.  The snapshot's dropped
    /// count accumulates into diagnostics().total() count-only (the
    /// per-record reasons live with the original producer).
    void merge(const IOCovSnapshot& snapshot);

    /// Restores a checkpoint manifest: merge(snapshot), except that the
    /// retained diagnostics saved beside it are appended in order in
    /// place of its count-only dropped total, which includes them.
    void resume(const IOCovSnapshot& snapshot,
                const trace::ParseDiagnostics& diags);

    /// Captures the full mergeable state as a snapshot value (report,
    /// filtered/dropped counters, ingest stats).  `label`/`timestamp`
    /// are left for the caller to stamp.  decode(encode(snapshot()))
    /// round-trips bit-identically.
    IOCovSnapshot snapshot() const;

    /// A sink that can be handed to a Kernel for live analysis.
    trace::TraceSink& live_sink() { return live_sink_; }

    const CoverageReport& report() const { return analyzer_.report(); }

    /// The schema shared by this IOCov, every IOCov the shard driver
    /// builds for it, and every other one on the same built-in registry.
    const Schema& schema() const { return *analyzer_.schema(); }

    std::uint64_t events_filtered_out() const { return tally_.filtered_out; }

    /// Where and why input was dropped, accumulated across every
    /// consume_* call: malformed text lines, corrupt IOCT records, and
    /// parallel chunks/shards lost to worker failures.  total() is the
    /// number the --max-errors budget is checked against.
    const trace::ParseDiagnostics& diagnostics() const {
        return diagnostics_;
    }

    /// Parallel chunks/shards whose worker failed outright (the events
    /// they held are counted into the dropped totals and diagnostics).
    /// A corrupt record never fails a shard — this counts isolation
    /// events, not parse errors.
    std::uint64_t shards_lost() const { return tally_.shards_lost; }

    /// Cumulative binary-ingest throughput/allocation statistics.
    ///
    /// Accumulation contract (holds for diagnostics(), shards_lost()
    /// and events_filtered_out() too): an IOCov never self-resets.
    /// Every consume_* call and every merge() adds to the running
    /// totals — counters sum, `threads` keeps the widest value seen —
    /// so after any interleaving of N calls each total equals the sum
    /// of what the calls would have reported individually.  Snapshots
    /// inherit the same semantics: snapshot() captures the running
    /// totals, and merging a snapshot adds its totals in.  To measure
    /// one ingestion in isolation, use a fresh IOCov and subtract
    /// nothing.
    const IngestStats& ingest_stats() const { return tally_.ingest; }

    /// Heap allocations inside the steady-state decode -> filter ->
    /// analyze loops of this IOCov's consume_binary* calls and of the
    /// IOCovs merged into it (stays 0 once histograms and scratch are
    /// warm; always 0 when exec::has_allocation_counting() is false).
    /// A property of the build, not of the input, so snapshots do not
    /// carry it.
    std::uint64_t hot_loop_allocs() const { return tally_.hot_loop_allocs; }

  private:
    friend struct detail::ShardDriver;

    IOCov(trace::FilterConfig filter_config,
          std::shared_ptr<const Schema> schema);

    /// The counters a fold adds up (see the accumulation contract).
    struct Tally {
        std::uint64_t filtered_out = 0;
        std::uint64_t shards_lost = 0;
        IngestStats ingest;
        std::uint64_t hot_loop_allocs = 0;
        Tally& operator+=(const Tally& other);
    };

    /// Folds one finished measurement into this one — another IOCov
    /// (merge) or one item of the shard driver.  An empty `label`
    /// merges `diags` by input position; otherwise each entry is
    /// re-keyed as "<label>: <reason>" and appended in fold order.
    void fold(const CoverageReport& report, const Tally& tally,
              const trace::ParseDiagnostics& diags,
              std::string_view label = {});

    /// Records one IOCT ingest dropped: in the record walk, and in the
    /// decode.
    struct IngestDrops {
        std::size_t scan = 0;
        std::size_t decode = 0;
    };

    /// Ingests the records of pid class `shard` of one IOCT buffer in
    /// one pass: the reader (trace::IoctReader) hands out windows of at
    /// most kBatchRows refs, each decoded keyed against the string
    /// table's binding, filtered and analyzed before the next is read,
    /// so memory beyond the buffer is O(strings + window).  Scan drops
    /// (of every pid) are recorded into `scan_diags` and decode drops
    /// into `decode_diags` (distinct accumulators), each in record
    /// order.  Counts no ingest bytes: that is the caller's, once per
    /// buffer.
    IngestDrops ingest_ioct(std::string_view data, trace::PidShard shard,
                            trace::ParseDiagnostics& scan_diags,
                            trace::ParseDiagnostics& decode_diags);

    /// Filters the rows decoded into batch_ and analyzes the admitted
    /// ones (compacted to its front).
    void analyze_batch(const std::vector<std::string_view>& strings,
                       const SyscallTable::FileBinding& file);

    /// Kept beyond construction so the shard driver can build one fresh
    /// IOCov per item from the same configuration (and schema).
    trace::FilterConfig filter_config_;
    trace::TraceFilter filter_;
    Analyzer analyzer_;
    trace::CallbackSink live_sink_;
    trace::ParseDiagnostics diagnostics_;
    /// Ingest scratch, persistent across consume_binary calls so
    /// repeated ingestion reuses warm capacity: the decoded rows, the
    /// serial reader's window of refs, its string table and that
    /// table's binding.
    trace::EventBatch batch_;
    std::vector<trace::EventRef> window_;
    std::vector<std::string_view> strings_;
    SyscallTable::FileBinding binding_;
    Tally tally_;
};

}  // namespace iocov::core
