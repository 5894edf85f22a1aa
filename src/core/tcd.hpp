// Test Coverage Deviation (TCD) — Section 4 of the paper.
//
// Given per-partition frequencies F and a target array T:
//
//     TCD(T) = sqrt( 1/N * sum_i (log10 F_i - log10 T_i)^2 )
//
// Logs downplay over-testing relative to under-testing; an untested
// partition contributes its full log-distance to the target (counts
// below 1 are floored at 1 so log is defined).  Lower is better; zero
// means every partition is tested exactly the target number of times.
#pragma once

#include <string>
#include <vector>

#include "stats/histogram.hpp"

namespace iocov::core {

/// TCD with a per-partition target array.  Throws std::invalid_argument
/// unless target.size() == hist.partition_count(); targets below 1 are
/// floored at 1.
double tcd(const stats::PartitionHistogram& hist,
           const std::vector<double>& target);

/// TCD with a uniform target (the paper's Fig. 5 sweeps this value).
double tcd_uniform(const stats::PartitionHistogram& hist, double target);

/// Linear-domain RMSD between frequencies and targets — the ablation
/// baseline showing why the paper computes TCD in log space (a single
/// over-tested partition otherwise dominates the metric).  Same size
/// contract as tcd().
double tcd_linear(const stats::PartitionHistogram& hist,
                  const std::vector<double>& target);
double tcd_linear_uniform(const stats::PartitionHistogram& hist,
                          double target);

/// One partition's share of the squared deviation behind a TCD value.
struct TcdContribution {
    std::string label;       ///< partition label
    std::uint64_t observed;  ///< frequency F_i
    double target;           ///< target T_i
    /// (log10 F_i - log10 T_i)^2 / N — contributions sum to TCD^2.
    double deviation;

    bool untested() const { return observed == 0; }
};

/// Ranks partitions by how much deviation they contribute to tcd(hist,
/// target), most-deviant first (ties broken by label, so the order is
/// deterministic).  sum(deviation) == tcd^2 up to rounding.  Same size
/// contract as tcd().
std::vector<TcdContribution> tcd_attribution(
    const stats::PartitionHistogram& hist, const std::vector<double>& target);

/// Attribution against a uniform target.
std::vector<TcdContribution> tcd_attribution_uniform(
    const stats::PartitionHistogram& hist, double target);

/// Builder for non-uniform targets (the paper's future-work extension):
/// start from a uniform base and boost selected partitions, e.g. weight
/// persistence-related open flags (O_SYNC/O_DSYNC) higher for
/// crash-consistency testing.
class TargetBuilder {
  public:
    TargetBuilder(const stats::PartitionHistogram& hist, double base);

    /// Multiplies the target for one partition label.  A label matching
    /// no partition is recorded in unknown_labels() — a typo'd label
    /// must not silently leave the target at its base value.
    TargetBuilder& boost(std::string_view label, double factor);

    std::vector<double> build() const { return targets_; }

    /// Labels passed to boost() that matched no partition, in call
    /// order.  Empty means every adjustment landed.
    const std::vector<std::string>& unknown_labels() const {
        return unknown_labels_;
    }

  private:
    const stats::PartitionHistogram& hist_;
    std::vector<double> targets_;
    std::vector<std::string> unknown_labels_;
};

}  // namespace iocov::core
