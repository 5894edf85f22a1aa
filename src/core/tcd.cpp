#include "core/tcd.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/rmsd.hpp"

namespace iocov::core {
namespace {

// Real check, not an assert: the default build defines NDEBUG, and a
// short target vector would otherwise read past its end.
void require_matching_size(const stats::PartitionHistogram& hist,
                           const std::vector<double>& target,
                           const char* who) {
    if (target.size() != hist.partition_count())
        throw std::invalid_argument(
            std::string(who) + ": target has " +
            std::to_string(target.size()) + " entries for " +
            std::to_string(hist.partition_count()) + " partitions");
}

}  // namespace

double tcd(const stats::PartitionHistogram& hist,
           const std::vector<double>& target) {
    require_matching_size(hist, target, "tcd");
    std::vector<double> logf, logt;
    logf.reserve(target.size());
    logt.reserve(target.size());
    const auto& rows = hist.rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        logf.push_back(stats::safe_log10(static_cast<double>(rows[i].count)));
        logt.push_back(stats::safe_log10(target[i]));
    }
    return stats::rmsd(logf, logt);
}

double tcd_uniform(const stats::PartitionHistogram& hist, double target) {
    return tcd(hist,
               std::vector<double>(hist.partition_count(), target));
}

double tcd_linear(const stats::PartitionHistogram& hist,
                  const std::vector<double>& target) {
    require_matching_size(hist, target, "tcd_linear");
    std::vector<double> f, t;
    f.reserve(target.size());
    t.reserve(target.size());
    const auto& rows = hist.rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        f.push_back(static_cast<double>(rows[i].count));
        t.push_back(target[i]);
    }
    return stats::rmsd(f, t);
}

double tcd_linear_uniform(const stats::PartitionHistogram& hist,
                          double target) {
    return tcd_linear(hist,
                      std::vector<double>(hist.partition_count(), target));
}

std::vector<TcdContribution> tcd_attribution(
    const stats::PartitionHistogram& hist,
    const std::vector<double>& target) {
    require_matching_size(hist, target, "tcd_attribution");
    const auto& rows = hist.rows();
    std::vector<TcdContribution> out;
    out.reserve(rows.size());
    const double n = static_cast<double>(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const double d =
            stats::safe_log10(static_cast<double>(rows[i].count)) -
            stats::safe_log10(target[i]);
        out.push_back({rows[i].label, rows[i].count, target[i],
                       n == 0.0 ? 0.0 : d * d / n});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TcdContribution& a, const TcdContribution& b) {
                         if (a.deviation != b.deviation)
                             return a.deviation > b.deviation;
                         return a.label < b.label;
                     });
    return out;
}

std::vector<TcdContribution> tcd_attribution_uniform(
    const stats::PartitionHistogram& hist, double target) {
    return tcd_attribution(
        hist, std::vector<double>(hist.partition_count(), target));
}

TargetBuilder::TargetBuilder(const stats::PartitionHistogram& hist,
                             double base)
    : hist_(hist), targets_(hist.partition_count(), base) {}

TargetBuilder& TargetBuilder::boost(std::string_view label, double factor) {
    const auto& rows = hist_.rows();
    bool matched = false;
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].label == label) {
            targets_[i] *= factor;
            matched = true;
        }
    if (!matched) unknown_labels_.emplace_back(label);
    return *this;
}

}  // namespace iocov::core
