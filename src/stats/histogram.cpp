#include "stats/histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace iocov::stats {

PartitionHistogram PartitionHistogram::with_partitions(
    std::vector<std::string> labels) {
    PartitionHistogram h;
    h.rows_.reserve(labels.size());
    for (auto& l : labels) {
        if (!h.has_partition(l)) h.rows_.push_back({std::move(l), 0});
    }
    h.declared_ = h.rows_.size();
    return h;
}

PartitionHistogram PartitionHistogram::from_rows(
    std::vector<PartitionCount> rows, std::size_t declared) {
    if (declared > rows.size())
        throw std::invalid_argument(
            "PartitionHistogram::from_rows: declared block exceeds rows");
    for (std::size_t i = declared + 1; i < rows.size(); ++i)
        if (!(rows[i - 1].label < rows[i].label))
            throw std::invalid_argument(
                "PartitionHistogram::from_rows: dynamic tail not sorted");
    // Spaces here are tens of labels, so the quadratic duplicate check
    // is cheaper than building a set (and allocation-free).
    for (std::size_t i = 0; i < rows.size(); ++i)
        for (std::size_t j = i + 1; j < rows.size(); ++j)
            if (rows[i].label == rows[j].label)
                throw std::invalid_argument(
                    "PartitionHistogram::from_rows: duplicate label");
    PartitionHistogram h;
    h.rows_ = std::move(rows);
    h.declared_ = declared;
    return h;
}

void PartitionHistogram::declare(std::string label) {
    if (has_partition(label)) return;
    rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(declared_),
                 {std::move(label), 0});
    ++declared_;
}

void PartitionHistogram::add(std::string_view label, std::uint64_t n) {
    const auto tail = rows_.begin() + static_cast<std::ptrdiff_t>(declared_);
    for (auto it = rows_.begin(); it != tail; ++it) {
        if (it->label == label) {
            it->count += n;
            return;
        }
    }
    // The dynamic tail is kept sorted, so the row order never depends on
    // event or shard-merge order and a lookup there is a binary search.
    const auto pos = std::lower_bound(
        tail, rows_.end(), label,
        [](const PartitionCount& row, std::string_view l) {
            return row.label < l;
        });
    if (pos != rows_.end() && pos->label == label) pos->count += n;
    else rows_.insert(pos, {std::string(label), n});
}

std::uint64_t PartitionHistogram::count(std::string_view label) const {
    for (const auto& row : rows_)
        if (row.label == label) return row.count;
    return 0;
}

bool PartitionHistogram::has_partition(std::string_view label) const {
    return std::any_of(rows_.begin(), rows_.end(),
                       [&](const auto& r) { return r.label == label; });
}

std::vector<std::string> PartitionHistogram::untested() const {
    std::vector<std::string> out;
    for (const auto& row : rows_)
        if (row.count == 0) out.push_back(row.label);
    return out;
}

std::vector<std::string> PartitionHistogram::tested() const {
    std::vector<std::string> out;
    for (const auto& row : rows_)
        if (row.count != 0) out.push_back(row.label);
    return out;
}

std::uint64_t PartitionHistogram::total() const {
    std::uint64_t sum = 0;
    for (const auto& row : rows_) sum += row.count;
    return sum;
}

double PartitionHistogram::coverage_fraction() const {
    if (rows_.empty()) return 0.0;
    const auto tested_n = static_cast<double>(rows_.size() - untested().size());
    return tested_n / static_cast<double>(rows_.size());
}

void PartitionHistogram::merge(const PartitionHistogram& other) {
    const auto& rows = other.rows_;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        // Two histograms on one schema share their declared block, so
        // row i is usually declared row i here too.  Labels are unique,
        // so a match is the row add() would find; add() never inserts
        // into the declared block, so the indices stay put.
        if (i < declared_ && rows_[i].label == rows[i].label) {
            rows_[i].count += rows[i].count;
            continue;
        }
        // add() with n==0 still creates the partition, preserving the
        // union of declared (possibly untested) labels; labels new to
        // this histogram land in the canonical sorted tail, so merge is
        // commutative over row order as well as counts.
        add(rows[i].label, rows[i].count);
    }
}

std::optional<PartitionCount> PartitionHistogram::max_row() const {
    if (rows_.empty()) return std::nullopt;
    return *std::max_element(
        rows_.begin(), rows_.end(),
        [](const auto& a, const auto& b) { return a.count < b.count; });
}

}  // namespace iocov::stats
