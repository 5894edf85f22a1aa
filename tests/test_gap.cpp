// Gap extraction (core/gap) and the partition-math hardening it relies
// on: TCD attribution, throwing size contracts, TargetBuilder label
// validation.
#include "core/gap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "core/tcd.hpp"
#include "stats/rmsd.hpp"
#include "testers/rng.hpp"

namespace iocov::core {
namespace {

CoverageReport make_report() {
    CoverageReport r;
    ArgCoverage count;
    count.base = "write";
    count.key = "count";
    count.hist.add("=0", 0);
    count.hist.add("2^0", 5);
    count.hist.add("2^1", 0);
    count.hist.add("2^2", 40);
    r.inputs.push_back(count);

    ArgCoverage flags;
    flags.base = "open";
    flags.key = "flags";
    flags.hist.add("O_RDONLY", 3);
    flags.hist.add("O_WRONLY", 0);
    r.inputs.push_back(flags);

    OutputCoverage out;
    out.base = "write";
    out.hist.add("OK", 10);
    out.hist.add("EBADF", 0);
    out.hist.add("EFBIG", 0);
    r.outputs.push_back(out);
    return r;
}

// The defining property: gap <=> count-0 partition, in both directions.
TEST(GapExtraction, GapsAreExactlyTheCountZeroPartitions) {
    const auto report = make_report();
    const auto gaps = extract_gaps(report, 10.0);

    std::set<std::string> ids;
    for (const auto& g : gaps.input_gaps) {
        EXPECT_EQ(g.kind, Gap::Kind::Input);
        const auto* in = report.find_input(g.base, g.arg);
        ASSERT_NE(in, nullptr) << g.id();
        EXPECT_EQ(in->hist.count(g.partition), 0u) << g.id();
        ids.insert(g.id());
    }
    for (const auto& g : gaps.output_gaps) {
        EXPECT_EQ(g.kind, Gap::Kind::Output);
        const auto* out = report.find_output(g.base);
        ASSERT_NE(out, nullptr) << g.id();
        EXPECT_EQ(out->hist.count(g.partition), 0u) << g.id();
        ids.insert(g.id());
    }
    const std::set<std::string> expected{
        "write.count:=0", "write.count:2^1", "open.flags:O_WRONLY",
        "write:EBADF", "write:EFBIG"};
    EXPECT_EQ(ids, expected);
    EXPECT_EQ(gaps.total_gaps(), 5u);
}

TEST(GapExtraction, EveryGapCarriesItsTcdShare) {
    const auto gaps = extract_gaps(make_report(), 10.0);
    for (const auto& g : gaps.input_gaps) EXPECT_GT(g.tcd_share, 0.0);
    for (const auto& g : gaps.output_gaps) EXPECT_GT(g.tcd_share, 0.0);
    // Within one space shares are ranked non-increasing (attribution
    // order), so the synthesizer addresses the biggest deviations first.
    for (std::size_t i = 1; i < gaps.input_gaps.size(); ++i) {
        const auto& prev = gaps.input_gaps[i - 1];
        const auto& cur = gaps.input_gaps[i];
        if (prev.base == cur.base && prev.arg == cur.arg) {
            EXPECT_GE(prev.tcd_share, cur.tcd_share);
        }
    }
}

TEST(GapExtraction, SpacesMirrorTheReportAndAggregateIsTheirMean) {
    const auto report = make_report();
    const double target = 10.0;
    const auto gaps = extract_gaps(report, target);
    ASSERT_EQ(gaps.spaces.size(), 3u);

    double sum = 0;
    for (const auto& s : gaps.spaces) sum += s.tcd;
    EXPECT_NEAR(gaps.aggregate_tcd, sum / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(gaps.target, target);

    const auto& wc = gaps.spaces[0];
    EXPECT_EQ(wc.base, "write");
    EXPECT_EQ(wc.arg, "count");
    EXPECT_EQ(wc.declared, 4u);
    EXPECT_EQ(wc.untested, 2u);
    EXPECT_NEAR(wc.tcd,
                tcd_uniform(report.inputs[0].hist, target), 1e-12);
}

TEST(GapExtraction, EmptyReportHasNoGaps) {
    const auto gaps = extract_gaps(CoverageReport{}, 10.0);
    EXPECT_EQ(gaps.total_gaps(), 0u);
    EXPECT_TRUE(gaps.spaces.empty());
    EXPECT_DOUBLE_EQ(gaps.aggregate_tcd, 0.0);
}

TEST(GapExtraction, ToStringMentionsEverySpace) {
    std::string s;
    for (const SpaceTcd& space : extract_gaps(make_report(), 10.0).spaces)
        s += space.base + "." + space.arg + "\n";
    EXPECT_NE(s.find("write.count"), std::string::npos);
    EXPECT_NE(s.find("open.flags"), std::string::npos);
}

TEST(TcdAttribution, DeviationsSumToTcdSquared) {
    testers::Rng rng(99);
    stats::PartitionHistogram h;
    for (int i = 0; i < 11; ++i) {
        h.add(std::string("p") + std::to_string(i), 0);
        const auto c = rng.below(5000);
        if (c) h.add(std::string("p") + std::to_string(i), c);
    }
    const double target = 123.0;
    const auto contributions = tcd_attribution_uniform(h, target);
    ASSERT_EQ(contributions.size(), h.partition_count());
    double sum = 0;
    for (const auto& c : contributions) sum += c.deviation;
    const double t = tcd_uniform(h, target);
    EXPECT_NEAR(sum, t * t, 1e-9);
    // Ranked most-deviant first.
    for (std::size_t i = 1; i < contributions.size(); ++i)
        EXPECT_GE(contributions[i - 1].deviation, contributions[i].deviation);
}

TEST(TcdAttribution, UntestedPartitionsCarryTheFullLogDistance) {
    stats::PartitionHistogram h;
    h.add("hot", 1000);
    h.add("cold", 0);
    const auto contributions = tcd_attribution_uniform(h, 1000.0);
    ASSERT_EQ(contributions.size(), 2u);
    // "cold" deviates by log10(1000)^2 / 2; "hot" is exactly on target.
    EXPECT_EQ(contributions[0].label, "cold");
    EXPECT_TRUE(contributions[0].untested());
    EXPECT_NEAR(contributions[0].deviation, 9.0 / 2.0, 1e-12);
    EXPECT_FALSE(contributions[1].untested());
    EXPECT_NEAR(contributions[1].deviation, 0.0, 1e-12);
}

TEST(TcdHardening, SizeMismatchThrowsInsteadOfReadingOutOfBounds) {
    stats::PartitionHistogram h;
    h.add("a", 1);
    h.add("b", 2);
    h.add("c", 3);
    const std::vector<double> shorter{10.0, 10.0};
    // These were asserts before, i.e. out-of-bounds reads in NDEBUG
    // builds (the default config defines it).
    EXPECT_THROW(tcd(h, shorter), std::invalid_argument);
    EXPECT_THROW(tcd_linear(h, shorter), std::invalid_argument);
    EXPECT_THROW(tcd_attribution(h, shorter), std::invalid_argument);
    const std::vector<double> exact{10.0, 10.0, 10.0};
    EXPECT_NO_THROW(tcd(h, exact));
}

TEST(TargetBuilder, RecordsUnknownLabelsInsteadOfDroppingThem) {
    stats::PartitionHistogram h;
    h.add("O_RDONLY", 5);
    h.add("O_SYNC", 1);
    TargetBuilder builder(h, 10.0);
    builder.boost("O_SYNC", 10.0)
        .boost("O_TYPO", 2.0)
        .boost("also-missing", 0.7);
    EXPECT_EQ(builder.unknown_labels(),
              (std::vector<std::string>{"O_TYPO", "also-missing"}));
    const auto targets = builder.build();
    ASSERT_EQ(targets.size(), 2u);
    // Matched adjustments still land; unmatched ones change nothing.
    EXPECT_DOUBLE_EQ(targets[0], 10.0);   // O_RDONLY (canonical order)
    EXPECT_DOUBLE_EQ(targets[1], 100.0);  // O_SYNC
}

TEST(TargetBuilder, NoUnknownLabelsWhenEveryAdjustmentMatches) {
    stats::PartitionHistogram h;
    h.add("x", 1);
    TargetBuilder builder(h, 1.0);
    builder.boost("x", 3.0);
    EXPECT_TRUE(builder.unknown_labels().empty());
}

TEST(Gap, IdFormat) {
    Gap in;
    in.kind = Gap::Kind::Input;
    in.base = "open";
    in.arg = "flags";
    in.partition = "O_SYNC";
    EXPECT_EQ(in.id(), "open.flags:O_SYNC");
    Gap out;
    out.kind = Gap::Kind::Output;
    out.base = "write";
    out.partition = "ENOSPC";
    EXPECT_EQ(out.id(), "write:ENOSPC");
}

}  // namespace
}  // namespace iocov::core
