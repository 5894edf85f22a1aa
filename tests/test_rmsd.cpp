#include "stats/rmsd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace iocov::stats {
namespace {

TEST(Rmsd, ZeroForIdenticalSeries) {
    const std::vector<double> a{1, 2, 3};
    EXPECT_DOUBLE_EQ(rmsd(a, a), 0.0);
}

TEST(Rmsd, ZeroForEmptyInput) {
    EXPECT_DOUBLE_EQ(rmsd({}, {}), 0.0);
}

TEST(Rmsd, MatchesHandComputedValue) {
    const std::vector<double> a{0, 0};
    const std::vector<double> b{3, 4};
    // sqrt((9 + 16) / 2) = sqrt(12.5)
    EXPECT_DOUBLE_EQ(rmsd(a, b), std::sqrt(12.5));
}

TEST(Rmsd, ThrowsOnLengthMismatch) {
    // Used to be an assert, i.e. a silent out-of-bounds read in
    // NDEBUG builds (the default RelWithDebInfo config defines it).
    const std::vector<double> a{1, 2, 3};
    const std::vector<double> b{1, 2};
    EXPECT_THROW(rmsd(a, b), std::invalid_argument);
    EXPECT_THROW(rmsd(b, a), std::invalid_argument);
}

TEST(Rmsd, SymmetricInArguments) {
    const std::vector<double> a{1, 5, 9};
    const std::vector<double> b{2, 3, 4};
    EXPECT_DOUBLE_EQ(rmsd(a, b), rmsd(b, a));
}

TEST(SafeLog10, FloorsAtOneByDefault) {
    EXPECT_DOUBLE_EQ(safe_log10(0.0), 0.0);
    EXPECT_DOUBLE_EQ(safe_log10(0.5), 0.0);
    EXPECT_DOUBLE_EQ(safe_log10(1.0), 0.0);
    EXPECT_DOUBLE_EQ(safe_log10(1000.0), 3.0);
}

TEST(SafeLog10, CustomFloor) {
    EXPECT_DOUBLE_EQ(safe_log10(5.0, 10.0), 1.0);
    EXPECT_DOUBLE_EQ(safe_log10(100.0, 10.0), 2.0);
}

TEST(MeanStddev, BasicMoments) {
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    // Population standard deviation: the RMSD from the mean.
    EXPECT_DOUBLE_EQ(rmsd(xs, std::vector<double>(xs.size(), mean(xs))), 2.0);
}

TEST(MeanStddev, DegenerateInputs) {
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    const std::vector<double> one{42};
    EXPECT_DOUBLE_EQ(mean(one), 42.0);
    EXPECT_DOUBLE_EQ(rmsd(one, std::vector<double>{mean(one)}), 0.0);
}

}  // namespace
}  // namespace iocov::stats
