// Mathematical properties of the TCD metric (property-style sweeps).
#include <gtest/gtest.h>

#include <cmath>

#include "core/tcd.hpp"
#include "testers/rng.hpp"

namespace iocov::core {
namespace {

stats::PartitionHistogram random_hist(std::uint64_t seed, std::size_t n,
                                      std::uint64_t max_count) {
    testers::Rng rng(seed);
    stats::PartitionHistogram h;
    for (std::size_t i = 0; i < n; ++i) {
        const auto c = rng.below(max_count + 1);
        h.add(std::string("p") + std::to_string(i), 0);
        if (c) h.add(std::string("p") + std::to_string(i), c);
    }
    return h;
}

class TcdProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcdProperty, NonNegativeAndZeroOnlyAtTarget) {
    const auto h = random_hist(GetParam(), 12, 100000);
    for (double t : {1.0, 10.0, 500.0, 1e6})
        EXPECT_GE(tcd_uniform(h, t), 0.0);
    // Exactly-on-target frequencies give zero.
    stats::PartitionHistogram exact;
    exact.add("a", 777);
    exact.add("b", 777);
    EXPECT_NEAR(tcd_uniform(exact, 777.0), 0.0, 1e-12);
}

TEST_P(TcdProperty, LogDomainScaleInvariance) {
    // Scaling every count and the target by the same factor k leaves
    // TCD unchanged for fully-tested histograms (log translation).
    const auto seed = GetParam();
    testers::Rng rng(seed);
    stats::PartitionHistogram h, h10;
    for (int i = 0; i < 10; ++i) {
        const auto c = rng.below(10000) + 1;  // nonzero: no log floor
        h.add(std::string("p") + std::to_string(i), c);
        h10.add(std::string("p") + std::to_string(i), c * 1000);
    }
    const double t = 500;
    EXPECT_NEAR(tcd_uniform(h, t), tcd_uniform(h10, t * 1000), 1e-9);
}

TEST_P(TcdProperty, MonotoneAwayFromUniformCounts) {
    // With all partitions at count c, TCD(t) = |log c - log t|: strictly
    // increasing as the target moves away from c in either direction.
    const double c = 1000;
    stats::PartitionHistogram h;
    for (int i = 0; i < 8; ++i)
        h.add(std::string("p") + std::to_string(i),
              static_cast<std::uint64_t>(c));
    double prev = tcd_uniform(h, c);
    for (double t = c * 2; t <= c * 1000; t *= 2) {
        const double cur = tcd_uniform(h, t);
        EXPECT_GT(cur, prev);
        prev = cur;
    }
    prev = tcd_uniform(h, c);
    for (double t = c / 2; t >= 1; t /= 2) {
        const double cur = tcd_uniform(h, t);
        EXPECT_GT(cur, prev);
        prev = cur;
    }
}

TEST_P(TcdProperty, PartitionOrderIrrelevant) {
    const auto h = random_hist(GetParam(), 9, 5000);
    stats::PartitionHistogram reversed;
    const auto& rows = h.rows();
    for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
        reversed.add(it->label, 0);
        if (it->count) reversed.add(it->label, it->count);
    }
    EXPECT_NEAR(tcd_uniform(h, 123.0), tcd_uniform(reversed, 123.0), 1e-12);
}

TEST_P(TcdProperty, AddingAnUntestedPartitionNeverImprovesTcd) {
    auto h = random_hist(GetParam(), 8, 5000);
    const double t = 1000;
    const double before = tcd_uniform(h, t);
    h.add("never_tested", 0);
    EXPECT_GE(tcd_uniform(h, t), before);
}

TEST_P(TcdProperty, PerfectTargetBeatsUniformTarget) {
    // A target array equal to the observed frequencies has TCD zero,
    // which no uniform target can beat on a non-uniform histogram.
    const auto h = random_hist(GetParam(), 10, 100000);
    std::vector<double> perfect;
    for (const auto& row : h.rows())
        perfect.push_back(static_cast<double>(row.count));
    EXPECT_NEAR(tcd(h, perfect), 0.0, 1e-12);
    EXPECT_GE(tcd_uniform(h, 1000.0), tcd(h, perfect));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcdProperty,
                         ::testing::Values(3, 7, 31, 127, 8191));

}  // namespace
}  // namespace iocov::core
