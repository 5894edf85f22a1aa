// Ordered frequency histogram over named partitions.
//
// Coverage in IOCov is fundamentally "how many times did each partition
// of an input or output space get exercised".  PartitionHistogram is the
// shared representation: a stable-ordered map from partition label to
// count, with merge/compare/ratio helpers used by the coverage reports
// and the TCD metric.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iocov::stats {

/// One (partition label, frequency) row.
struct PartitionCount {
    std::string label;
    std::uint64_t count = 0;

    friend bool operator==(const PartitionCount&, const PartitionCount&) = default;
};

/// Frequency histogram keyed by partition label.
///
/// Declared labels (with_partitions / declare) keep their declaration
/// order; labels first seen via add() slot into a sorted tail after the
/// declared block.  Row order is therefore a canonical function of the
/// label set alone — analyzing a trace serially, shard-by-shard, or in
/// any merge order yields bit-identical histograms, which is what lets
/// the parallel pipeline assert report equality against the serial one.
/// Rows live in one flat vector: declared blocks are tens of entries
/// (flags, log2 buckets, errno values), scanned linearly, and the sorted
/// dynamic tail is binary-searched, so a hostile trace cannot make add()
/// quadratic.  Iteration order stays deterministic for reports.
class PartitionHistogram {
  public:
    PartitionHistogram() = default;

    /// Pre-declares the partition labels (all at count zero) so that
    /// untested partitions appear explicitly in reports.
    static PartitionHistogram with_partitions(std::vector<std::string> labels);

    /// Declares one label (count zero) at the end of the declared block,
    /// preserving call order.  Used by report loading to reproduce a
    /// saved row order exactly.  No-op if the label already exists.
    void declare(std::string label);

    /// Adds `n` observations of `label`.  A new label is created in its
    /// canonical (sorted) position after the declared block; n == 0
    /// still creates it.
    void add(std::string_view label, std::uint64_t n = 1);

    /// Adds `n` observations to declared row `row` (< declared_count()):
    /// the analyzer's path, which classifies values into row indices.
    void add_declared(std::size_t row, std::uint64_t n = 1) {
        assert(row < declared_);
        rows_[row].count += n;
    }

    /// Count for `label`; zero if the partition was never declared/seen.
    std::uint64_t count(std::string_view label) const;

    /// True if the label exists (even at count zero).
    bool has_partition(std::string_view label) const;

    /// All rows in report order.
    const std::vector<PartitionCount>& rows() const { return rows_; }

    /// Size of the declared block (rows_[0..declared_count()) keep
    /// declaration order; the rest is the sorted dynamic tail).  The
    /// boundary is serialization state: restoring it exactly is what
    /// lets a snapshot-loaded histogram keep inserting future dynamic
    /// labels at the same positions the original would have.
    std::size_t declared_count() const { return declared_; }

    /// Rebuilds a histogram from serialized rows + declared boundary —
    /// the exact inverse of (rows(), declared_count()).  Throws
    /// std::invalid_argument unless `declared <= rows.size()`, the tail
    /// after the declared block is strictly label-sorted, and no label
    /// repeats — the invariants add()/declare() maintain, checked here
    /// so corrupt serialized bytes cannot forge an unmergeable state.
    static PartitionHistogram from_rows(std::vector<PartitionCount> rows,
                                        std::size_t declared);

    /// Labels whose count is zero — the "untested partitions" the paper
    /// highlights for both CrashMonkey and xfstests.
    std::vector<std::string> untested() const;

    /// Labels with nonzero count.
    std::vector<std::string> tested() const;

    std::uint64_t total() const;
    std::size_t partition_count() const { return rows_.size(); }
    bool empty() const { return rows_.empty(); }

    /// Fraction of all rows with nonzero count, in [0,1]: the declared
    /// block and the dynamic tail alike, so a value outside the declared
    /// partitions counts as one more tested row (0 when there are no
    /// rows).  This is the headline "input coverage" / "output coverage"
    /// number.
    double coverage_fraction() const;

    /// Adds every row of `other` into this histogram (union of labels),
    /// exactly as add(label, count) per row would.  Row i that is
    /// declared row i here too is added in place, so merging histograms
    /// that share a declared block is linear in the rows.
    void merge(const PartitionHistogram& other);

    /// Row with the maximum count (nullopt when empty).
    std::optional<PartitionCount> max_row() const;

    /// Equality is over the rows (labels, order, counts); how many of
    /// them were declared vs dynamically added is presentation state.
    friend bool operator==(const PartitionHistogram& a,
                           const PartitionHistogram& b) {
        return a.rows_ == b.rows_;
    }

  private:
    std::vector<PartitionCount> rows_;
    /// rows_[0..declared_) is the declared block; the rest is the sorted
    /// dynamic tail.
    std::size_t declared_ = 0;
};

}  // namespace iocov::stats
