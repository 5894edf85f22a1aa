// Report determinism: campaign and guide summaries must be pure
// functions of (config, seed), and the fleet-level merge/trend JSON a
// pure function of the snapshot set — byte-identical across reruns and
// thread counts.  The campaign's new-output-partition list historically
// leaned on registry iteration order, which is only incidentally stable
// — it is now canonicalized (lexicographic), and these golden-shape
// tests lock the behavior down.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/iocov.hpp"
#include "core/snapshot.hpp"
#include "report/trend.hpp"
#include "syscall/kernel.hpp"
#include "testers/campaign.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "testers/guided/loop.hpp"
#include "trace/binary_format.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::testers {
namespace {

CampaignConfig small_campaign() {
    CampaignConfig cfg;
    cfg.suite = "crashmonkey";
    cfg.scale = 0.002;
    cfg.chaos_runs = 1;
    cfg.max_runs = 6;
    return cfg;
}

TEST(GoldenReports, CampaignSummaryIsIdenticalAcrossReruns) {
    const auto a = run_campaign(small_campaign());
    const auto b = run_campaign(small_campaign());
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.new_output_partitions, b.new_output_partitions);
    EXPECT_TRUE(a.aggregate == b.aggregate);
}

TEST(GoldenReports, CampaignNewPartitionsAreCanonicallySorted) {
    const auto result = run_campaign(small_campaign());
    ASSERT_FALSE(result.new_output_partitions.empty());
    EXPECT_TRUE(std::is_sorted(result.new_output_partitions.begin(),
                               result.new_output_partitions.end()));
    // Each entry is "base:ERRNO".
    for (const auto& p : result.new_output_partitions)
        EXPECT_NE(p.find(':'), std::string::npos) << p;
}

TEST(GoldenReports, GuideSummaryAndTableAreIdenticalAcrossReruns) {
    guided::GuideConfig cfg;
    cfg.suite = "crashmonkey";
    cfg.scale = 0.002;
    cfg.max_rounds = 1;
    cfg.call_budget = 50;
    const auto a = guided::run_guide(cfg);
    const auto b = guided::run_guide(cfg);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.table(), b.table());
    EXPECT_TRUE(a.final_report == b.final_report);
}

// ---- fleet merge / trend JSON ----------------------------------------------

/// Six labeled, timestamped snapshots from three suites x two seeds.
std::vector<core::NamedSnapshot> fleet_snapshots() {
    std::vector<core::NamedSnapshot> out;
    int i = 0;
    for (const char* suite : {"crashmonkey", "xfstests", "ltp"}) {
        for (const std::uint64_t seed : {1u, 2u}) {
            vfs::FileSystem fs(recommended_fs_config());
            auto fx = prepare_environment(fs, "/mnt/test");
            trace::TraceBuffer buffer;
            syscall::Kernel kernel(fs, &buffer);
            if (!std::strcmp(suite, "crashmonkey"))
                run_crashmonkey(kernel, fx, 0.01, seed);
            else if (!std::strcmp(suite, "ltp"))
                run_ltp(kernel, fx, 0.01, seed);
            else
                run_xfstests(kernel, fx, 0.01, seed);
            core::IOCov iocov(
                trace::FilterConfig::mount_point("/mnt/test"));
            iocov.consume_binary(
                trace::encode_trace(buffer.take_events()));
            auto snap = iocov.snapshot();
            snap.label = suite;
            snap.timestamp = 3600u * static_cast<std::uint64_t>(1 + i);
            out.push_back({"s" + std::to_string(i) + ".iocs",
                           std::move(snap)});
            ++i;
        }
    }
    return out;
}

TEST(GoldenReports, MergeSummaryJsonIsByteIdenticalAcrossThreadCounts) {
    const auto snaps = fleet_snapshots();
    std::string first;
    for (const unsigned threads : {1u, 2u, 8u}) {
        const auto merged = core::merge_snapshots(snaps, threads);
        const auto json = core::merge_summary_json(snaps.size(), 0, merged);
        if (first.empty()) first = json;
        EXPECT_EQ(json, first) << threads << " threads";
    }
    // Shape checks so the golden bytes stay meaningful.
    EXPECT_NE(first.find("\"snapshots\": 6"), std::string::npos);
    EXPECT_NE(first.find("\"space\": \"open.flags\""), std::string::npos);
}

TEST(GoldenReports, TrendJsonIsByteIdenticalAcrossRerunsAndThreads) {
    const auto snaps = fleet_snapshots();
    report::TrendOptions by_label;
    by_label.by_label = true;
    report::TrendOptions windowed;
    windowed.window_seconds = 7200;

    const auto label_ref = report::trend_json(snaps, by_label, 1);
    const auto window_ref = report::trend_json(snaps, windowed, 1);
    for (const unsigned threads : {2u, 8u}) {
        EXPECT_EQ(report::trend_json(snaps, by_label, threads), label_ref);
        EXPECT_EQ(report::trend_json(snaps, windowed, threads), window_ref);
    }
    // Rerun from scratch: the whole pipeline is a pure function.
    EXPECT_EQ(report::trend_json(fleet_snapshots(), by_label, 4),
              label_ref);

    // Label slices sort lexicographically.
    const auto cm = label_ref.find("\"crashmonkey\"");
    const auto ltp = label_ref.find("\"ltp\"");
    const auto xfs = label_ref.find("\"xfstests\"");
    ASSERT_NE(cm, std::string::npos);
    ASSERT_NE(ltp, std::string::npos);
    ASSERT_NE(xfs, std::string::npos);
    EXPECT_LT(cm, ltp);
    EXPECT_LT(ltp, xfs);
    // Window slices: six snapshots at 3600s spacing into 7200s buckets
    // gives multiple keyed slices with TCD series fields.
    EXPECT_NE(window_ref.find("\"aggregate_tcd\""), std::string::npos);
    EXPECT_NE(window_ref.find("\"input_gaps\""), std::string::npos);
}

}  // namespace
}  // namespace iocov::testers
