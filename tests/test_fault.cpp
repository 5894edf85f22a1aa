// FaultInjector semantics: one-shot queueing, skip counting, the seeded
// probabilistic mode and fired-fault statistics.
#include "vfs/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace iocov::vfs {
namespace {

using abi::Err;

TEST(FaultInjector, OneShotFiresExactlyOnce) {
    FaultInjector fi;
    fi.arm("open", Err::EIO_);
    EXPECT_EQ(fi.check("read"), std::nullopt);  // other ops pass through
    EXPECT_EQ(fi.check("open"), Err::EIO_);
    EXPECT_EQ(fi.check("open"), std::nullopt);  // consumed
    EXPECT_TRUE(fi.empty());
}

TEST(FaultInjector, SkipCountsMatchingCallsOnly) {
    FaultInjector fi;
    fi.arm("write", Err::ENOSPC_, 2);
    EXPECT_EQ(fi.check("read"), std::nullopt);   // non-matching: no decrement
    EXPECT_EQ(fi.check("write"), std::nullopt);  // skip 2 -> 1
    EXPECT_EQ(fi.check("write"), std::nullopt);  // skip 1 -> 0
    EXPECT_EQ(fi.check("write"), Err::ENOSPC_);
    EXPECT_EQ(fi.check("write"), std::nullopt);
}

TEST(FaultInjector, QueuedOneShotsFireConsecutivelyNotTogether) {
    // Regression: a single call must only be counted against the
    // frontmost matching entry.  Two "*" one-shots armed with skip 1
    // fire on the 2nd and 3rd calls — with the old behaviour (every
    // entry decremented per call) both would fire on the 2nd.
    FaultInjector fi;
    fi.arm("*", Err::EIO_, 1);
    fi.arm("*", Err::ENOMEM_, 1);
    EXPECT_EQ(fi.check("open"), std::nullopt);  // consumes front's skip
    EXPECT_EQ(fi.check("open"), Err::EIO_);
    EXPECT_EQ(fi.check("open"), std::nullopt);  // consumes second's skip
    EXPECT_EQ(fi.check("open"), Err::ENOMEM_);
}

TEST(FaultInjector, WildcardMatchesAnyOperation) {
    FaultInjector fi;
    fi.arm("*", Err::EINTR_);
    EXPECT_EQ(fi.check("fsync"), Err::EINTR_);
}

TEST(FaultInjector, DisarmRemovesExactMatchOnly) {
    FaultInjector fi;
    fi.arm("open", Err::EIO_);
    EXPECT_FALSE(fi.disarm("open", Err::ENOMEM_));  // wrong errno
    EXPECT_FALSE(fi.disarm("read", Err::EIO_));     // wrong op
    EXPECT_TRUE(fi.disarm("open", Err::EIO_));
    EXPECT_EQ(fi.check("open"), std::nullopt);
    EXPECT_FALSE(fi.disarm("open", Err::EIO_));  // already gone
}

TEST(FaultInjector, ProbabilisticIsDeterministicUnderSeed) {
    auto pattern = [](std::uint64_t seed) {
        FaultInjector fi;
        fi.arm_probabilistic("*", Err::ENOMEM_, 300, seed);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(fi.check("write").has_value());
        return fired;
    };
    EXPECT_EQ(pattern(7), pattern(7));
    EXPECT_NE(pattern(7), pattern(8));
}

TEST(FaultInjector, ProbabilisticExtremes) {
    FaultInjector always, never;
    always.arm_probabilistic("*", Err::EIO_, 1000, 1);
    never.arm_probabilistic("*", Err::EIO_, 0, 1);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(always.check("open"), Err::EIO_);
        EXPECT_EQ(never.check("open"), std::nullopt);
    }
}

TEST(FaultInjector, StatsRecordActualOpSortedByOpThenErrno) {
    FaultInjector fi;
    fi.arm("*", Err::ENOMEM_);
    fi.arm("open", Err::EIO_);
    fi.arm("open", Err::EIO_);
    EXPECT_EQ(fi.check("write"), Err::ENOMEM_);  // "*" records "write"
    EXPECT_EQ(fi.check("open"), Err::EIO_);      // first one-shot
    EXPECT_EQ(fi.check("open"), Err::EIO_);      // second one-shot
    const auto stats = fi.stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].op, "open");
    EXPECT_EQ(stats[0].err, Err::EIO_);
    EXPECT_EQ(stats[0].count, 2u);
    EXPECT_EQ(stats[1].op, "write");
    EXPECT_EQ(stats[1].err, Err::ENOMEM_);
    EXPECT_EQ(stats[1].count, 1u);
    EXPECT_EQ(fi.fired_total(), 3u);
}

}  // namespace
}  // namespace iocov::vfs
