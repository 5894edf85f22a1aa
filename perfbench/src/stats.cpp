#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
    if (!(q > 0 && q <= 1)) throw std::invalid_argument("percentile: q");
    Percentile p;
    p.samples = samples.size();
    if (samples.empty()) return p;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    p.value = samples[rank - 1];
    p.beyond = n - rank;
    p.reportable = p.beyond >= kMinBeyond && std::isfinite(p.value);
    return p;
}

double median(std::vector<double> samples) {
    if (samples.empty()) throw std::invalid_argument("median: no samples");
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    return n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

}  // namespace perfbench
