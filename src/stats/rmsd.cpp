#include "stats/rmsd.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace iocov::stats {

double rmsd(std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size())
        throw std::invalid_argument(
            "rmsd: series length mismatch (" + std::to_string(a.size()) +
            " vs " + std::to_string(b.size()) + ")");
    if (a.empty()) return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        sum += d * d;
    }
    return std::sqrt(sum / static_cast<double>(a.size()));
}

double safe_log10(double x, double floor) {
    return std::log10(x < floor ? floor : x);
}

double mean(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    double sum = 0.0;
    for (double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
}

}  // namespace iocov::stats
