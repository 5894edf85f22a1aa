// Analyzer + coverage report + TCD + untested reporting.
#include <gtest/gtest.h>

#include <cmath>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "core/coverage.hpp"
#include "core/tcd.hpp"
#include "core/untested.hpp"

namespace iocov::core {
namespace {

using trace::ArgValue;
using trace::TraceEvent;

TraceEvent open_event(std::uint32_t flags, std::int64_t ret,
                      const char* variant = "open") {
    TraceEvent ev;
    ev.syscall = variant;
    ev.args = {{"pathname", ArgValue{std::string("/mnt/test/f")}},
               {"flags", ArgValue{std::uint64_t{flags}}},
               {"mode", ArgValue{std::uint64_t{0644}}}};
    ev.ret = ret;
    return ev;
}

TraceEvent write_event(std::uint64_t count, std::int64_t ret,
                       const char* variant = "write") {
    TraceEvent ev;
    ev.syscall = variant;
    ev.args = {{"fd", ArgValue{std::int64_t{3}}},
               {"count", ArgValue{count}}};
    ev.ret = ret;
    return ev;
}

TEST(Analyzer, ReportDeclaresAllInputsAndOutputsUpFront) {
    Analyzer a;
    const auto& r = a.report();
    EXPECT_EQ(r.inputs.size(), 14u);
    EXPECT_EQ(r.outputs.size(), 11u);
    // Everything starts untested.
    for (const auto& in : r.inputs)
        EXPECT_EQ(in.hist.tested().size(), 0u) << in.base << "/" << in.key;
}

TEST(Analyzer, CountsOpenFlagsPerFlag) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 3));
    a.consume(open_event(abi::O_WRONLY | abi::O_CREAT | abi::O_TRUNC, 4));
    a.consume(open_event(abi::O_RDONLY, -2));  // failures count as inputs
    const auto* flags = a.report().find_input("open", "flags");
    ASSERT_NE(flags, nullptr);
    EXPECT_EQ(flags->hist.count("O_RDONLY"), 2u);
    EXPECT_EQ(flags->hist.count("O_WRONLY"), 1u);
    EXPECT_EQ(flags->hist.count("O_CREAT"), 1u);
    EXPECT_EQ(flags->hist.count("O_EXCL"), 0u);
}

TEST(Analyzer, TracksComboCardinalityForTable1) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 3));                      // 1 flag
    a.consume(open_event(abi::O_RDONLY | abi::O_CLOEXEC, 3));     // 2
    a.consume(open_event(abi::O_WRONLY | abi::O_CREAT |
                         abi::O_TRUNC, 3));                        // 3
    const auto* flags = a.report().find_input("open", "flags");
    EXPECT_EQ(flags->combo_cardinality.count("1"), 1u);
    EXPECT_EQ(flags->combo_cardinality.count("2"), 1u);
    EXPECT_EQ(flags->combo_cardinality.count("3"), 1u);
    // O_RDONLY-conditional rows.
    EXPECT_EQ(flags->combo_cardinality_rdonly.count("1"), 1u);
    EXPECT_EQ(flags->combo_cardinality_rdonly.count("2"), 1u);
    EXPECT_EQ(flags->combo_cardinality_rdonly.count("3"), 0u);
    // Pair extension.
    EXPECT_EQ(flags->pairs.count("O_CLOEXEC+O_RDONLY"), 1u);
    EXPECT_EQ(flags->pairs.count("O_CREAT+O_TRUNC"), 1u);
}

TEST(Analyzer, MergesVariantsIntoBaseSpaces) {
    Analyzer a;
    a.consume(write_event(100, 100, "write"));
    a.consume(write_event(100, 100, "pwrite64"));
    a.consume(write_event(100, 100, "writev"));
    const auto* count = a.report().find_input("write", "count");
    EXPECT_EQ(count->hist.count("2^6"), 3u);
    const auto* out = a.report().find_output("write");
    EXPECT_EQ(out->hist.count("OK:2^6"), 3u);
}

TEST(Analyzer, CreatContributesToOpenFlagCoverage) {
    Analyzer a;
    TraceEvent ev;
    ev.syscall = "creat";
    ev.args = {{"pathname", ArgValue{std::string("/mnt/test/f")}},
               {"mode", ArgValue{std::uint64_t{0644}}}};
    ev.ret = 3;
    a.consume(ev);
    const auto* flags = a.report().find_input("open", "flags");
    EXPECT_EQ(flags->hist.count("O_WRONLY"), 1u);
    EXPECT_EQ(flags->hist.count("O_CREAT"), 1u);
    EXPECT_EQ(flags->hist.count("O_TRUNC"), 1u);
    EXPECT_EQ(flags->combo_cardinality.count("3"), 1u);
}

TEST(Analyzer, OutputPartitionsSuccessAndErrno) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 5));
    a.consume(open_event(abi::O_RDONLY, -2));
    a.consume(open_event(abi::O_RDONLY, -13));
    const auto* out = a.report().find_output("open");
    EXPECT_EQ(out->hist.count("OK"), 1u);
    EXPECT_EQ(out->hist.count("ENOENT"), 1u);
    EXPECT_EQ(out->hist.count("EACCES"), 1u);
    EXPECT_EQ(out->hist.count("ENOSPC"), 0u);
}

TEST(Analyzer, ReturnsBelowMaxErrnoShareOneOutputLabel) {
    // Linux never returns below -4095 (MAX_ERRNO); a forged trace of
    // distinct such values must not grow the histogram per value.
    Analyzer a;
    const std::size_t declared =
        a.report().find_output("mkdir")->hist.rows().size();
    TraceEvent ev;
    ev.syscall = "mkdir";
    for (std::int64_t i = 0; i < 10000; ++i) {
        ev.ret = -4096 - i * 7919;
        a.consume(ev);
    }
    ev.ret = -4095;  // still an errno, if an unknown one
    a.consume(ev);
    const auto& hist = a.report().find_output("mkdir")->hist;
    EXPECT_EQ(hist.rows().size(), declared + 2);
    EXPECT_EQ(hist.count("E?>4095"), 10000u);
    EXPECT_EQ(hist.count("E?4095"), 1u);
}

TEST(Analyzer, UntrackedSyscallsCountedButNotPartitioned) {
    Analyzer a;
    TraceEvent ev;
    ev.syscall = "rename";
    ev.ret = 0;
    a.consume(ev);
    EXPECT_EQ(a.report().events_seen, 1u);
    EXPECT_EQ(a.report().events_tracked, 0u);
}

TEST(Analyzer, LseekCategoricalAndNumeric) {
    Analyzer a;
    TraceEvent ev;
    ev.syscall = "lseek";
    ev.args = {{"fd", ArgValue{std::int64_t{3}}},
               {"offset", ArgValue{std::int64_t{-5}}},
               {"whence", ArgValue{std::int64_t{abi::SEEK_END_}}}};
    ev.ret = abi::fail(abi::Err::EINVAL_);
    a.consume(ev);
    EXPECT_EQ(a.report().find_input("lseek", "offset")->hist.count("<0"),
              1u);
    EXPECT_EQ(
        a.report().find_input("lseek", "whence")->hist.count("SEEK_END"),
        1u);
    EXPECT_EQ(a.report().find_output("lseek")->hist.count("EINVAL"), 1u);
}

TEST(CoverageReport, MergeAddsCounts) {
    Analyzer a, b;
    a.consume(open_event(abi::O_RDONLY, 3));
    b.consume(open_event(abi::O_RDONLY, 3));
    b.consume(open_event(abi::O_WRONLY, 3));
    auto ra = a.take_report();
    ra.merge(b.report());
    EXPECT_EQ(ra.find_input("open", "flags")->hist.count("O_RDONLY"), 2u);
    EXPECT_EQ(ra.find_input("open", "flags")->hist.count("O_WRONLY"), 1u);
    EXPECT_EQ(ra.events_tracked, 3u);
}

// ---- TCD -------------------------------------------------------------------

TEST(Tcd, ZeroWhenFrequenciesEqualTarget) {
    stats::PartitionHistogram h;
    h.add("a", 100);
    h.add("b", 100);
    EXPECT_NEAR(tcd_uniform(h, 100.0), 0.0, 1e-12);
}

TEST(Tcd, MatchesHandComputedValue) {
    stats::PartitionHistogram h;
    h.add("a", 1000);  // log10 = 3
    h.add("b", 10);    // log10 = 1
    // target 100 (log10 = 2): sqrt((1 + 1)/2) = 1.
    EXPECT_NEAR(tcd_uniform(h, 100.0), 1.0, 1e-12);
}

TEST(Tcd, UntestedPartitionContributesFullLogDistance) {
    auto h = stats::PartitionHistogram::with_partitions({"a", "b"});
    h.add("a", 1000);
    // b counts 0 -> log floored to 0; target 1000 -> distance 3.
    EXPECT_NEAR(tcd_uniform(h, 1000.0), 3.0 / std::sqrt(2.0), 1e-9);
}

TEST(Tcd, LogDomainDownplaysOverTesting) {
    stats::PartitionHistogram over;  // one partition 100x over target
    over.add("a", 10000);
    over.add("b", 100);
    stats::PartitionHistogram under;  // one partition 100x under target
    under.add("a", 1);
    under.add("b", 100);
    // Log-domain treats both deviations symmetrically per partition...
    EXPECT_NEAR(tcd_uniform(over, 100.0), tcd_uniform(under, 100.0), 1e-9);
    // ...but the linear metric explodes for the over-tester.
    EXPECT_GT(tcd_linear_uniform(over, 100.0),
              90 * tcd_linear_uniform(under, 100.0));
}

TEST(Tcd, PerPartitionTargetsViaBuilder) {
    stats::PartitionHistogram h;
    h.add("O_SYNC", 1000);
    h.add("O_RDONLY", 1000);
    const auto targets = TargetBuilder(h, 10.0).boost("O_SYNC", 100.0)
                             .build();
    ASSERT_EQ(targets.size(), 2u);
    // Dynamic labels sit in canonical (sorted) row order, so O_RDONLY
    // precedes O_SYNC regardless of add() order.
    EXPECT_DOUBLE_EQ(targets[0], 10.0);
    EXPECT_DOUBLE_EQ(targets[1], 1000.0);
    // With the boosted target, O_SYNC is exactly on target.
    EXPECT_LT(tcd(h, targets), tcd_uniform(h, 10.0));
}

TEST(Tcd, TargetBuilderSetOverridesBase) {
    stats::PartitionHistogram h;
    h.add("x", 5);
    const auto t = TargetBuilder(h, 7.0).boost("x", 5.0 / 7.0).build();
    EXPECT_NEAR(tcd(h, t), 0.0, 1e-12);
}

// ---- untested reporting ------------------------------------------------------

TEST(Untested, FindsInputAndOutputGaps) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 3));
    const auto gaps = find_untested(a.report());
    // O_LARGEFILE input gap exists.
    bool largefile = false, enospc_out = false;
    for (const auto& gap : gaps) {
        if (gap.base == "open" && gap.partition == "O_LARGEFILE" &&
            gap.kind == UntestedPartition::Kind::Input)
            largefile = true;
        if (gap.base == "open" && gap.partition == "ENOSPC" &&
            gap.kind == UntestedPartition::Kind::Output)
            enospc_out = true;
        EXPECT_FALSE(gap.suggestion.empty());
    }
    EXPECT_TRUE(largefile);
    EXPECT_TRUE(enospc_out);
}

TEST(Untested, UnderTestedThreshold) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 3));
    for (int i = 0; i < 100; ++i)
        a.consume(open_event(abi::O_WRONLY, 3));
    const auto under = find_under_tested(a.report(), 10);
    bool rdonly_under = false, wronly_under = false;
    for (const auto& gap : under) {
        if (gap.partition == "O_RDONLY") rdonly_under = true;
        if (gap.partition == "O_WRONLY") wronly_under = true;
    }
    EXPECT_TRUE(rdonly_under);
    EXPECT_FALSE(wronly_under);
}

TEST(Untested, SummaryRowsCoverAllSpaces) {
    Analyzer a;
    const auto rows = summarize(a.report());
    EXPECT_EQ(rows.size(), 14u + 11u);
    for (const auto& row : rows) {
        EXPECT_GT(row.declared, 0u);
        EXPECT_EQ(row.tested, 0u);
        EXPECT_EQ(row.fraction, 0.0);
    }
}

}  // namespace
}  // namespace iocov::core
