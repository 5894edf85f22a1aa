// Latency percentiles with the benchmark's reporting rule: a tail
// percentile is only reported when at least ten samples lie beyond it,
// so a p99 needs >= 1000 samples.  A failed request is a sample of
// +infinity: it misses every latency limit, and enough failures push
// the percentile itself to infinity.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must have strictly beyond it.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
    double value = 0;         ///< nearest-rank percentile of the samples
    std::size_t samples = 0;  ///< sample count it was computed from
    std::size_t beyond = 0;   ///< samples ranked after it
    /// beyond >= kMinBeyond and the value is finite.
    bool reportable = false;
};

/// Nearest-rank percentile: the sample at rank ceil(q * n) (1-based) of
/// the sorted samples.  `q` is in (0, 1].  Empty input gives a
/// non-reportable zero.
Percentile percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample set (mean of the middle two for even n),
/// the statistic repeated measurements inside one run are reduced with.
double median(std::vector<double> samples);

}  // namespace perfbench
