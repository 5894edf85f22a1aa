// Coverage data model and the analyzer that fills it from a trace.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/syscall_spec.hpp"
#include "core/syscall_table.hpp"
#include "stats/histogram.hpp"
#include "trace/event.hpp"

namespace iocov::core {

/// Input coverage for one tracked argument of one base syscall.
struct ArgCoverage {
    std::string base;
    std::string key;
    ArgClass cls = ArgClass::Numeric;

    /// Frequency per partition (Fig. 2 / Fig. 3 of the paper).
    stats::PartitionHistogram hist;

    // Bitmap extras (populated only for the open-flags argument):
    /// How many flags were combined per call — Table 1, "all flags" row.
    stats::PartitionHistogram combo_cardinality;
    /// Same, restricted to calls that include O_RDONLY — Table 1 row 2.
    stats::PartitionHistogram combo_cardinality_rdonly;
    /// Unordered flag pairs seen together ("O_CREAT+O_TRUNC") — the
    /// paper's future-work "bit combinations" extension.
    stats::PartitionHistogram pairs;

    friend bool operator==(const ArgCoverage&, const ArgCoverage&) = default;
};

/// Output coverage for one base syscall (Fig. 4).
struct OutputCoverage {
    std::string base;
    SuccessKind success = SuccessKind::Unit;
    stats::PartitionHistogram hist;

    friend bool operator==(const OutputCoverage&,
                           const OutputCoverage&) = default;
};

/// Everything IOCov measured over one trace.
struct CoverageReport {
    std::vector<ArgCoverage> inputs;     // 14 entries
    std::vector<OutputCoverage> outputs;  // 11 entries
    std::uint64_t events_seen = 0;     ///< events fed to the analyzer
    std::uint64_t events_tracked = 0;  ///< events in the tracked 27

    ArgCoverage* find_input(std::string_view base, std::string_view key);
    const ArgCoverage* find_input(std::string_view base,
                                  std::string_view key) const;
    OutputCoverage* find_output(std::string_view base);
    const OutputCoverage* find_output(std::string_view base) const;

    /// Merges another report (e.g. per-process shards) into this one.
    /// Histogram row order is canonical (see PartitionHistogram), so
    /// merging the same shard set in any order yields bit-identical
    /// reports — the property the parallel pipeline relies on.
    void merge(const CoverageReport& other);

    friend bool operator==(const CoverageReport&,
                           const CoverageReport&) = default;
};

class Schema;  // core/schema.hpp
}  // namespace iocov::core

namespace iocov::trace {
struct BatchRow;    // trace/binary_format.hpp
struct EventBatch;  // trace/binary_format.hpp
}  // namespace iocov::trace

namespace iocov::core {

/// Streams trace events into a CoverageReport.
class Analyzer {
  public:
    /// Tracks the paper's 27-syscall registry by default; pass
    /// extended_syscall_registry() (or a custom one) to widen tracking.
    /// Built-in registries share one Schema (Schema::of).
    explicit Analyzer(
        const std::vector<SyscallSpec>& registry = syscall_registry());
    explicit Analyzer(std::shared_ptr<const Schema> schema);

    /// Consumes one (already filtered) trace event.
    void consume(const trace::TraceEvent& event);

    /// consume() for callers that pre-resolved the event's syscall
    /// name; `binding` must be `table().bind(event.syscall)`.
    void consume(const trace::TraceEvent& event,
                 const SyscallTable::Binding& binding);

    /// The row path: consumes every row of one decoded IOCT batch (the
    /// caller has already dropped the rows its filter rejects) exactly
    /// as consume() would their materialized events.  `file` is
    /// `table().bind_file(strings)`, `strings` the table `batch` was
    /// decoded against with `file.keys` (a keyed decode_batch); an
    /// unkeyed batch throws std::invalid_argument.
    void consume(const trace::EventBatch& batch,
                 const std::vector<std::string_view>& strings,
                 const SyscallTable::FileBinding& file);

    /// Convenience over a whole buffer.
    void consume_all(const std::vector<trace::TraceEvent>& events);

    /// Entries of the open-flags memo (direct-mapped by a hash of the
    /// flags word).
    static constexpr std::size_t kFlagsMemoEntries = 64;

    /// The name-interning table (for pre-binding via bind()).
    const SyscallTable& table() const;

    /// The schema this analyzer counts against.
    const std::shared_ptr<const Schema>& schema() const { return schema_; }

    /// Folds a shard's report into this analyzer's (used by the parallel
    /// pipeline after per-worker analysis).
    void merge_report(const CoverageReport& shard) { report_.merge(shard); }

    const CoverageReport& report() const { return report_; }
    CoverageReport take_report() { return std::move(report_); }

  private:
    /// The one classify core: `arg_at(i, slot)` views the value of the
    /// bound spec's argument i, flat arg slot `slot` (Missing when the
    /// call lacks it).
    template <class ArgAt>
    void consume_bound(const SyscallTable::Binding& binding,
                       std::int64_t ret, const ArgAt& arg_at);
    /// Counts one open-flags value into `cov` (the open/flags space):
    /// its declared rows, cardinality, O_RDONLY cardinality and pairs,
    /// through the memo.
    void count_open_flags(ArgCoverage& cov, const trace::ArgView& value);
    /// Adds each pending pair cell to the open-flags `pairs` histogram
    /// (one add per distinct pair) and zeroes it.  Every public consume
    /// ends with it, so report() is always complete.
    void fold_pairs();

    /// Shared and immutable; report_ starts as a copy of its empty
    /// report, so report_.inputs[slot] and report_.outputs[id] follow
    /// the schema table's numbering and their declared rows its
    /// classification.
    std::shared_ptr<const Schema> schema_;
    CoverageReport report_;
    /// Open-flag pair counts since the last fold, by Schema::pair_cell,
    /// and the first `touched_` entries of `touched_cells_`: the cells
    /// that went 0 -> 1.  Both are sized at construction, so counting a
    /// pair never allocates.
    std::vector<std::uint64_t> pair_counts_;
    std::vector<std::uint32_t> touched_cells_;
    std::size_t touched_ = 0;

    /// One open-flags word classified once: its declared rows, the row
    /// of its cardinality, whether it includes O_RDONLY, and its pair
    /// cells (the n_cells at flags_cells_[entry * cells_per_entry_]).
    struct FlagsEntry {
        static constexpr std::size_t kMaxRows = 24;  ///< Schema::Hits
        std::uint32_t word = 0;
        bool used = false;
        bool rdonly = false;
        std::uint16_t cardinality = 0;
        std::uint16_t n = 0;
        std::uint16_t n_cells = 0;
        std::array<std::uint16_t, kMaxRows> rows{};
    };
    /// kFlagsMemoEntries entries and their cells, sized at construction
    /// (empty when the registry does not track open flags).
    std::vector<FlagsEntry> flags_memo_;
    std::vector<std::uint16_t> flags_cells_;
    std::size_t cells_per_entry_ = 0;
};

}  // namespace iocov::core
