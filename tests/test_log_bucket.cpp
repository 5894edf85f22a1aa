#include "stats/log_bucket.hpp"

#include <gtest/gtest.h>

namespace iocov::stats {
namespace {

TEST(LogBucket, ZeroIsItsOwnPartition) {
    const auto b = log_bucket_of(0);
    EXPECT_EQ(b.kind, LogBucket::Kind::Zero);
    EXPECT_EQ(bucket_label(b), "=0");
    EXPECT_EQ(bucket_lower_bound(b), 0);
    EXPECT_NE(log_bucket_of(1), b);  // the bucket ends at 0
}

TEST(LogBucket, NegativeIsItsOwnPartition) {
    const auto b = log_bucket_of(-1);
    EXPECT_EQ(b.kind, LogBucket::Kind::Negative);
    EXPECT_EQ(bucket_label(b), "<0");
    EXPECT_EQ(log_bucket_of(-123456789), b);
}

TEST(LogBucket, PowersOfTwoStartNewBuckets) {
    for (unsigned e = 0; e < 63; ++e) {
        const auto v = std::int64_t{1} << e;
        const auto b = log_bucket_of(v);
        ASSERT_EQ(b.kind, LogBucket::Kind::Pow2);
        EXPECT_EQ(b.exponent, e) << "value " << v;
        EXPECT_EQ(bucket_lower_bound(b), v);
    }
}

TEST(LogBucket, UpperBoundIsOneBelowNextPower) {
    const auto b = log_bucket_of(1024);
    EXPECT_EQ(log_bucket_of(2047), b);
    EXPECT_NE(log_bucket_of(2048), b);
}

TEST(LogBucket, ValueJustBelowBoundaryStaysInLowerBucket) {
    EXPECT_EQ(log_bucket_of(2047).exponent, 10u);
    EXPECT_EQ(log_bucket_of(2048).exponent, 11u);
}

TEST(LogBucket, PaperExampleBucket10Covers1024To2047) {
    // The paper: "x = 10 represents all write sizes from 2^10 to
    // 2^11 - 1 (or 1024-2047)".
    for (std::int64_t v : {1024, 1500, 2047}) {
        EXPECT_EQ(log_bucket_of(v).exponent, 10u) << v;
    }
}

TEST(LogBucket, The258MiBWriteLandsInBucket28) {
    // Fig. 3's annotated maximum write size.
    EXPECT_EQ(log_bucket_of(258LL << 20).exponent, 28u);
}

TEST(LogBucket, OrderingFollowsValueOrdering) {
    EXPECT_LT(log_bucket_of(-5), log_bucket_of(0));
    EXPECT_LT(log_bucket_of(0), log_bucket_of(1));
    EXPECT_LT(log_bucket_of(1), log_bucket_of(2));
    EXPECT_LT(log_bucket_of(1000), log_bucket_of(100000));
}

TEST(LogBucket, MaxInt64DoesNotOverflow) {
    const auto b = log_bucket_of(std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(b.exponent, 62u);
    EXPECT_EQ(bucket_lower_bound(b), std::int64_t{1} << 62);
}

TEST(ParseBucketLabel, RoundTripsAllLabels) {
    for (std::int64_t v : {-3LL, 0LL, 1LL, 7LL, 4096LL, 1LL << 40}) {
        const auto b = log_bucket_of(v);
        const auto parsed = parse_bucket_label(bucket_label(b));
        ASSERT_TRUE(parsed.has_value()) << bucket_label(b);
        EXPECT_EQ(*parsed, b);
    }
}

TEST(ParseBucketLabel, RejectsGarbage) {
    EXPECT_FALSE(parse_bucket_label(""));
    EXPECT_FALSE(parse_bucket_label("2^"));
    EXPECT_FALSE(parse_bucket_label("2^x"));
    EXPECT_FALSE(parse_bucket_label("2^64"));
    EXPECT_FALSE(parse_bucket_label("=1"));
    EXPECT_FALSE(parse_bucket_label("2^10trailing"));
}

TEST(ParseBucketLabel, RoundTripsEveryRepresentableExponent) {
    for (unsigned e = 0; e < 63; ++e) {
        const auto label = "2^" + std::to_string(e);
        const auto parsed = parse_bucket_label(label);
        ASSERT_TRUE(parsed.has_value()) << label;
        EXPECT_EQ(parsed->kind, LogBucket::Kind::Pow2);
        EXPECT_EQ(parsed->exponent, e);
        EXPECT_EQ(bucket_label(*parsed), label);
        // Every parseable bucket must have a representable lower bound.
        EXPECT_GT(bucket_lower_bound(*parsed), 0);
    }
}

TEST(ParseBucketLabel, RejectsExponent63) {
    // No positive int64 lives in [2^63, 2^64); before the fix the parser
    // accepted this label and bucket_lower_bound computed 1 << 63
    // (signed overflow).
    EXPECT_FALSE(parse_bucket_label("2^63"));
}

TEST(LogBucket, LowerBoundSaturatesAtUnrepresentableExponent) {
    // A hand-built exponent-63 bucket must not overflow either.
    const LogBucket b{LogBucket::Kind::Pow2, 63};
    EXPECT_EQ(bucket_lower_bound(b),
              std::numeric_limits<std::int64_t>::max());
}

// Property sweep: every value maps into a bucket whose bounds contain it.
class LogBucketProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(LogBucketProperty, BoundsContainValue) {
    const std::int64_t v = GetParam();
    const auto b = log_bucket_of(v);
    EXPECT_LE(bucket_lower_bound(b), v);
    // The bucket ends below the next one's lower bound.
    if (b.kind == LogBucket::Kind::Negative) {
        EXPECT_LT(v, 0);
    } else if (b.kind == LogBucket::Kind::Zero) {
        EXPECT_EQ(v, 0);
    } else if (b.exponent < 62) {
        EXPECT_GT(bucket_lower_bound({b.kind, b.exponent + 1}), v);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Values, LogBucketProperty,
    ::testing::Values(std::numeric_limits<std::int64_t>::min(), -4096, -1, 0,
                      1, 2, 3, 511, 512, 513, 4095, 4096, 65535, 65536,
                      (1LL << 31) - 1, 1LL << 31, (258LL << 20),
                      (1LL << 62) - 1, 1LL << 62,
                      std::numeric_limits<std::int64_t>::max()));

}  // namespace
}  // namespace iocov::stats
