// Bug corpus invariants, coverage tracker, and the Section 2 study's
// headline numbers.
#include <gtest/gtest.h>

#include <algorithm>

#include "bugstudy/bug.hpp"
#include "bugstudy/coverage_tracker.hpp"
#include "bugstudy/study.hpp"
#include "core/syscall_table.hpp"

namespace iocov::bugstudy {
namespace {

TEST(CoverageTracker, CountsProbeHits) {
    CoverageTracker t;
    EXPECT_FALSE(t.covered("a"));
    t.probe("a");
    t.probe("a");
    t.probe("b");
    EXPECT_EQ(t.hits("a"), 2u);
    EXPECT_EQ(t.hits("b"), 1u);
    EXPECT_EQ(t.distinct_sites(), 2u);
    t.reset();
    EXPECT_FALSE(t.covered("a"));
}

TEST(CoverageTracker, InjectCountsAsExecution) {
    CoverageTracker t;
    EXPECT_EQ(t.inject("site"), std::nullopt);
    EXPECT_TRUE(t.covered("site"));
    EXPECT_EQ(t.inject("site"), std::nullopt);
    EXPECT_EQ(t.hits("site"), 2u);
}

TEST(BugCorpus, SeventyBugsFiftyOneExtFour) {
    const auto& bugs = bug_corpus();
    EXPECT_EQ(bugs.size(), 70u);
    int ext4 = 0, btrfs = 0;
    for (const auto& b : bugs) {
        if (b.fs == "ext4") ++ext4;
        else if (b.fs == "btrfs") ++btrfs;
    }
    EXPECT_EQ(ext4, 51);  // the paper's split
    EXPECT_EQ(btrfs, 19);
}

TEST(BugCorpus, ClassificationMatchesPaperTotals) {
    int input = 0, output = 0, either = 0, both = 0;
    for (const auto& b : bug_corpus()) {
        if (b.input_bug) ++input;
        if (b.output_bug) ++output;
        if (b.input_bug || b.output_bug) ++either;
        if (b.input_bug && b.output_bug) ++both;
    }
    EXPECT_EQ(input, 50);   // 71%
    EXPECT_EQ(output, 41);  // 59%
    EXPECT_EQ(either, 57);  // 81%
    EXPECT_EQ(both, 34);
}

TEST(BugCorpus, EveryBugIsWellFormed) {
    std::set<std::string> ids;
    for (const auto& b : bug_corpus()) {
        EXPECT_FALSE(b.id.empty());
        EXPECT_TRUE(ids.insert(b.id).second) << "duplicate id " << b.id;
        EXPECT_FALSE(b.description.empty());
        EXPECT_FALSE(b.function_site.empty());
        ASSERT_TRUE(static_cast<bool>(b.trigger)) << b.id;
    }
}

TEST(BugCorpus, Fig1BugIsPresentAndShapedRight) {
    const Bug* fig1 = nullptr;
    for (const auto& b : bug_corpus())
        if (b.id == "ext4-22-019") fig1 = &b;
    ASSERT_NE(fig1, nullptr);
    EXPECT_EQ(fig1->function_site, "ext4_xattr_ibody_set");
    EXPECT_TRUE(fig1->input_bug);
    EXPECT_TRUE(fig1->output_bug);
    // Its trigger fires exactly on the maximum-allowed setxattr size.
    trace::TraceEvent ev;
    ev.syscall = "setxattr";
    ev.args = {{"pathname", trace::ArgValue{std::string("/mnt/test/f")}},
               {"name", trace::ArgValue{std::string("user.a")}},
               {"size", trace::ArgValue{std::uint64_t{65536}}},
               {"flags", trace::ArgValue{std::int64_t{0}}}};
    ev.ret = 0;
    const core::SyscallTable table(core::syscall_registry());
    auto view = table.resolve(ev);
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(fig1->trigger(*view));
    ev.args[2].value = trace::ArgValue{std::uint64_t{65535}};
    EXPECT_FALSE(fig1->trigger(*table.resolve(ev)));
}

TEST(BugStudy, ReproducesThePaperHeadlineNumbers) {
    const auto r = run_bug_study({0.005, 42});
    EXPECT_EQ(r.total, 70);
    EXPECT_EQ(r.ext4, 51);
    EXPECT_EQ(r.btrfs, 19);
    // Covered-but-missed: 53% / 61% / 29%.
    EXPECT_EQ(r.line_cbm, 37);
    EXPECT_EQ(r.fn_cbm, 43);
    EXPECT_EQ(r.branch_cbm, 20);
    // Classification: 71% / 59% / 81%.
    EXPECT_EQ(r.input_bugs, 50);
    EXPECT_EQ(r.output_bugs, 41);
    EXPECT_EQ(r.either_bugs, 57);
    // 65% of line-covered-but-missed bugs are input-triggerable.
    EXPECT_EQ(r.cbm_input_triggerable, 24);
    EXPECT_EQ(r.detected, 18);
    EXPECT_EQ(r.outcomes.size(), 70u);
}

TEST(BugStudy, CoverageHierarchyIsConsistent) {
    // For undetected bugs: branch-covered implies line-covered implies
    // function-covered (coarser metrics cover at least as much).
    const auto r = run_bug_study({0.005, 42});
    for (const auto& o : r.outcomes) {
        if (o.branch_covered) {
            EXPECT_TRUE(o.line_covered) << o.bug->id;
        }
        if (o.line_covered) {
            EXPECT_TRUE(o.fn_covered) << o.bug->id;
        }
    }
}

TEST(BugStudy, SitePoolsBehaveAsDesignedPerCategory) {
    // The corpus assigns sites by category (see bugs.cpp): bugs 19-38
    // are fully covered, 39-55 line-covered but branch-uncovered, 56-61
    // function-covered only, 62-70 entirely uncovered.  Verify the
    // simulated suite actually produces those hit/unhit patterns.
    const auto r = run_bug_study({0.005, 42});
    auto seq_of = [](const std::string& id) {
        return std::stoi(id.substr(id.rfind('-') + 1));
    };
    for (const auto& o : r.outcomes) {
        const int seq = seq_of(o.bug->id);
        if (seq >= 19 && seq <= 38) {
            EXPECT_TRUE(o.fn_covered && o.line_covered && o.branch_covered)
                << o.bug->id;
            EXPECT_FALSE(o.detected) << o.bug->id;
        } else if (seq >= 39 && seq <= 55) {
            EXPECT_TRUE(o.fn_covered && o.line_covered) << o.bug->id;
            EXPECT_FALSE(o.branch_covered) << o.bug->id;
        } else if (seq >= 56 && seq <= 61) {
            EXPECT_TRUE(o.fn_covered) << o.bug->id;
            EXPECT_FALSE(o.line_covered) << o.bug->id;
        } else if (seq >= 62) {
            EXPECT_FALSE(o.fn_covered) << o.bug->id;
        } else {
            EXPECT_TRUE(o.detected) << o.bug->id;  // category A
        }
    }
}

TEST(BugStudy, EvaluateCorpusOnEmptyRunFindsNothing) {
    CoverageTracker empty;
    const auto r = evaluate_corpus(empty, {});
    EXPECT_EQ(r.detected, 0);
    EXPECT_EQ(r.line_cbm, 0);
    EXPECT_EQ(r.fn_cbm, 0);
    // Classification is intrinsic to the corpus, not the run.
    EXPECT_EQ(r.input_bugs, 50);
}

TEST(BugCorpus, DatasetExportCoversEveryBug) {
    const auto md = render_bug_dataset();
    // Header + separator + 70 rows.
    EXPECT_EQ(std::count(md.begin(), md.end(), '\n'), 72);
    for (const auto& b : bug_corpus())
        EXPECT_NE(md.find(b.id), std::string::npos) << b.id;
    // Every triggerable bug states its trigger; races say so.
    EXPECT_NE(md.find("XATTR_SIZE_MAX"), std::string::npos);
    EXPECT_NE(md.find("(race; no syscall-level trigger)"),
              std::string::npos);
}

TEST(BugCorpus, TriggerDescriptionsMatchTriggerability) {
    // A bug with an empty trigger description must have a never-firing
    // trigger; the study's detected set must all have descriptions.
    const auto r = run_bug_study({0.005, 42});
    for (const auto& o : r.outcomes) {
        if (o.detected) {
            EXPECT_FALSE(o.bug->trigger_description.empty()) << o.bug->id;
        }
    }
}

}  // namespace
}  // namespace iocov::bugstudy
