#include "stats/histogram.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace iocov::stats {
namespace {

/// merge() as a plain add() loop: the reference the positional merge
/// must equal.
PartitionHistogram add_loop_merge(PartitionHistogram into,
                                  const PartitionHistogram& other) {
    for (const auto& row : other.rows()) into.add(row.label, row.count);
    return into;
}

/// A random histogram over the labels p00..p23.  Its declared block is
/// p00..p11 as a schema declares it or, as a loaded report's may be,
/// that block reordered, cut short or extended by a label of its own;
/// its sorted tail is a random subset of the other labels.  Counts
/// include zero.
PartitionHistogram random_histogram(std::mt19937& rng) {
    std::vector<std::string> pool;
    for (int i = 0; i < 24; ++i)
        pool.push_back((i < 10 ? "p0" : "p") + std::to_string(i));
    std::vector<std::string> declared(pool.begin(), pool.begin() + 12);
    switch (rng() % 4) {
        case 0: break;
        case 1: std::shuffle(declared.begin(), declared.end(), rng); break;
        case 2: declared.resize(rng() % declared.size()); break;
        case 3: declared.push_back(pool[12 + rng() % 12]); break;
    }
    std::vector<PartitionCount> rows;
    for (const auto& label : declared) rows.push_back({label, rng() % 4});
    for (const auto& label : pool)  // pool is label-sorted
        if (std::find(declared.begin(), declared.end(), label) ==
                declared.end() &&
            rng() % 2)
            rows.push_back({label, rng() % 4});
    return PartitionHistogram::from_rows(std::move(rows), declared.size());
}

TEST(PartitionHistogram, StartsEmpty) {
    PartitionHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.coverage_fraction(), 0.0);
    EXPECT_FALSE(h.max_row().has_value());
}

TEST(PartitionHistogram, DeclaredPartitionsShowAsUntested) {
    auto h = PartitionHistogram::with_partitions({"a", "b", "c"});
    EXPECT_EQ(h.partition_count(), 3u);
    EXPECT_EQ(h.untested().size(), 3u);
    h.add("b");
    EXPECT_EQ(h.untested(), (std::vector<std::string>{"a", "c"}));
    EXPECT_EQ(h.tested(), (std::vector<std::string>{"b"}));
}

TEST(PartitionHistogram, WithPartitionsDeduplicates) {
    auto h = PartitionHistogram::with_partitions({"a", "a", "b"});
    EXPECT_EQ(h.partition_count(), 2u);
}

TEST(PartitionHistogram, AddCreatesUndeclaredPartitions) {
    auto h = PartitionHistogram::with_partitions({"a"});
    h.add("dynamic", 5);
    EXPECT_EQ(h.count("dynamic"), 5u);
    EXPECT_EQ(h.partition_count(), 2u);
}

TEST(PartitionHistogram, PreservesDeclarationOrder) {
    auto h = PartitionHistogram::with_partitions({"z", "m", "a"});
    h.add("m");
    h.add("extra");
    ASSERT_EQ(h.rows().size(), 4u);
    EXPECT_EQ(h.rows()[0].label, "z");
    EXPECT_EQ(h.rows()[1].label, "m");
    EXPECT_EQ(h.rows()[2].label, "a");
    EXPECT_EQ(h.rows()[3].label, "extra");
}

TEST(PartitionHistogram, CountsAccumulate) {
    PartitionHistogram h;
    h.add("x");
    h.add("x", 9);
    EXPECT_EQ(h.count("x"), 10u);
    EXPECT_EQ(h.total(), 10u);
}

TEST(PartitionHistogram, CoverageFractionCountsNonzeroPartitions) {
    auto h = PartitionHistogram::with_partitions({"a", "b", "c", "d"});
    h.add("a");
    h.add("b", 100);
    EXPECT_DOUBLE_EQ(h.coverage_fraction(), 0.5);
}

TEST(PartitionHistogram, MergeUnionsLabelsAndAddsCounts) {
    auto a = PartitionHistogram::with_partitions({"x", "y"});
    a.add("x", 3);
    auto b = PartitionHistogram::with_partitions({"y", "z"});
    b.add("y", 2);
    a.merge(b);
    EXPECT_EQ(a.count("x"), 3u);
    EXPECT_EQ(a.count("y"), 2u);
    EXPECT_EQ(a.count("z"), 0u);
    EXPECT_TRUE(a.has_partition("z"));  // declared-but-untested survives
}

TEST(PartitionHistogram, MergePreservesZeroDeclarations) {
    auto a = PartitionHistogram::with_partitions({"x"});
    PartitionHistogram b;
    b.add("y", 7);
    a.merge(b);
    EXPECT_EQ(a.untested(), std::vector<std::string>{"x"});
    EXPECT_EQ(a.count("y"), 7u);
}

TEST(PartitionHistogram, MaxRowFindsHeaviestPartition) {
    PartitionHistogram h;
    h.add("small", 10);
    h.add("big", 1000);
    h.add("mid", 100);
    ASSERT_TRUE(h.max_row());
    EXPECT_EQ(h.max_row()->label, "big");
    EXPECT_EQ(h.max_row()->count, 1000u);
}

TEST(PartitionHistogram, LookupOfUnknownLabelIsZeroNotError) {
    PartitionHistogram h;
    EXPECT_EQ(h.count("nope"), 0u);
    EXPECT_FALSE(h.has_partition("nope"));
}

// Canonical row order: dynamic labels sit sorted after the declared
// block, so the rows are a function of the label *set*, never of the
// order add() happened to encounter them.  This is what makes a merge
// of per-shard histograms bit-identical to the serial histogram.
TEST(PartitionHistogram, DynamicLabelsKeepSortedOrderRegardlessOfArrival) {
    auto h = PartitionHistogram::with_partitions({"z", "m"});
    h.add("delta");
    h.add("alpha");
    h.add("charlie");
    ASSERT_EQ(h.rows().size(), 5u);
    EXPECT_EQ(h.rows()[0].label, "z");      // declared block untouched
    EXPECT_EQ(h.rows()[1].label, "m");
    EXPECT_EQ(h.rows()[2].label, "alpha");  // dynamic tail sorted
    EXPECT_EQ(h.rows()[3].label, "charlie");
    EXPECT_EQ(h.rows()[4].label, "delta");
}

TEST(PartitionHistogram, RowOrderIsAFunctionOfTheLabelSet) {
    PartitionHistogram a, b;
    for (const char* l : {"x", "b", "q", "a"}) a.add(l);
    for (const char* l : {"a", "q", "b", "x"}) b.add(l);
    EXPECT_EQ(a, b);
    for (std::size_t i = 0; i < a.rows().size(); ++i)
        EXPECT_EQ(a.rows()[i].label, b.rows()[i].label);
}

TEST(PartitionHistogram, DeclareAppendsToDeclaredBlock) {
    // declare() reproduces a saved histogram's exact row order on load:
    // later declares go after earlier ones, before nothing is sorted.
    PartitionHistogram h;
    h.declare("z");
    h.declare("a");
    h.declare("m");
    h.add("k", 3);  // dynamic, sorts into the (single-element) tail
    ASSERT_EQ(h.rows().size(), 4u);
    EXPECT_EQ(h.rows()[0].label, "z");
    EXPECT_EQ(h.rows()[1].label, "a");
    EXPECT_EQ(h.rows()[2].label, "m");
    EXPECT_EQ(h.rows()[3].label, "k");
}

TEST(PartitionHistogram, MergeOrderCannotChangeTheResult) {
    const std::vector<std::string> declared = {"O_RDONLY", "O_WRONLY"};
    auto serial = PartitionHistogram::with_partitions(declared);
    serial.add("O_SYNC", 2);
    serial.add("O_APPEND", 1);
    serial.add("O_RDONLY", 5);

    auto shard1 = PartitionHistogram::with_partitions(declared);
    shard1.add("O_SYNC", 2);
    auto shard2 = PartitionHistogram::with_partitions(declared);
    shard2.add("O_APPEND", 1);
    shard2.add("O_RDONLY", 5);

    auto m12 = PartitionHistogram::with_partitions(declared);
    m12.merge(shard1);
    m12.merge(shard2);
    auto m21 = PartitionHistogram::with_partitions(declared);
    m21.merge(shard2);
    m21.merge(shard1);
    EXPECT_EQ(m12, serial);
    EXPECT_EQ(m21, serial);
}

TEST(PartitionHistogram, MergeEqualsAnAddLoopUnderEveryPermutation) {
    std::mt19937 rng(2023);
    for (int round = 0; round < 200; ++round) {
        std::vector<PartitionHistogram> set;
        for (int i = 0; i < 4; ++i) set.push_back(random_histogram(rng));
        std::array<std::size_t, 4> order = {0, 1, 2, 3};
        do {
            PartitionHistogram merged = set[order[0]];
            PartitionHistogram expected = set[order[0]];
            for (std::size_t k = 1; k < order.size(); ++k) {
                merged.merge(set[order[k]]);
                expected = add_loop_merge(std::move(expected), set[order[k]]);
            }
            ASSERT_EQ(merged.rows(), expected.rows()) << "round " << round;
            ASSERT_EQ(merged.declared_count(), expected.declared_count());
        } while (std::next_permutation(order.begin(), order.end()));
    }
}

}  // namespace
}  // namespace iocov::stats
