// Tests for the benchmark's own code: the percentile rule, span
// self-time arithmetic and generator determinism.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <cmath>
#include <limits>
#include <sstream>

#include "gen.hpp"
#include "span.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

std::vector<double> iota(std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
    return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
    const auto p = percentile({5, 1, 4, 2, 3}, 0.5);
    EXPECT_EQ(p.value, 3);
    EXPECT_EQ(p.samples, 5u);
    EXPECT_EQ(p.beyond, 2u);
    EXPECT_EQ(percentile({5, 1, 4, 2, 3}, 1.0).value, 5);
    EXPECT_EQ(percentile({5, 1, 4, 2, 3}, 0.01).value, 1);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
    // p99 of 1000 samples is rank 990: ten samples lie beyond it.
    const auto ok = percentile(iota(1000), 0.99);
    EXPECT_EQ(ok.value, 990);
    EXPECT_EQ(ok.beyond, 10u);
    EXPECT_TRUE(ok.reportable);
    // 999 samples leave only nine beyond rank 990.
    const auto short_by_one = percentile(iota(999), 0.99);
    EXPECT_EQ(short_by_one.beyond, 9u);
    EXPECT_FALSE(short_by_one.reportable);
    // A median needs twenty samples.
    EXPECT_TRUE(percentile(iota(20), 0.5).reportable);
    EXPECT_FALSE(percentile(iota(19), 0.5).reportable);
}

TEST(Percentile, FailuresCountAsInfiniteLatency) {
    auto v = iota(1000);
    for (std::size_t i = 0; i < 11; ++i)
        v[i] = std::numeric_limits<double>::infinity();
    const auto p = percentile(v, 0.99);
    EXPECT_TRUE(std::isinf(p.value));
    EXPECT_FALSE(p.reportable);
    EXPECT_TRUE(percentile(v, 0.5).reportable);
}

TEST(Percentile, EmptyAndBadQuantile) {
    const auto p = percentile({}, 0.5);
    EXPECT_EQ(p.samples, 0u);
    EXPECT_FALSE(p.reportable);
    EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Median, OddAndEven) {
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

Span interval(const char* name, std::int64_t parent, std::int64_t start,
              std::int64_t end) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

TEST(SelfTime, SubtractsSequentialChildren) {
    const std::vector<Span> spans = {interval("root", -1, 0, 100),
                                     interval("a", 0, 10, 30),
                                     interval("b", 0, 40, 90),
                                     interval("a.leaf", 1, 12, 20)};
    const auto self = self_times(spans);
    EXPECT_EQ(self[0], 100 - 20 - 50);
    EXPECT_EQ(self[1], 20 - 8);
    EXPECT_EQ(self[2], 50);
    EXPECT_EQ(self[3], 8);
    std::int64_t sum = 0;
    for (auto s : self) sum += s;
    EXPECT_EQ(sum, 100);  // self times tile the root
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
    // Two parallel lanes: [10, 60) and [30, 80) cover 70 of the root.
    const std::vector<Span> spans = {interval("root", -1, 0, 100),
                                     interval("lane", 0, 10, 60),
                                     interval("lane", 0, 30, 80)};
    EXPECT_EQ(self_times(spans)[0], 30);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
    const std::vector<Span> spans = {interval("root", -1, 50, 100),
                                     interval("c", 0, 40, 70)};
    EXPECT_EQ(self_times(spans)[0], 30);
}

TEST(SelfTime, SummedChildrenSubtractTheirSum) {
    std::vector<Span> spans = {interval("file", -1, 0, 1000),
                               interval("decode", 0, 0, 100)};
    Span summed;
    summed.name = "filter";
    summed.parent = 0;
    summed.summed_ns = 600;
    summed.count = 512;
    spans.push_back(summed);
    const auto self = self_times(spans);
    EXPECT_EQ(self[0], 300);
    EXPECT_EQ(self[2], 600);
    const auto totals = stage_totals(spans);
    EXPECT_EQ(totals.at("filter").count, 512u);
    EXPECT_EQ(totals.at("filter").total_ns, 600);
    EXPECT_EQ(totals.at("file").self_ns, 300);
}

TEST(Tracer, NestsByOpenOrderAndRejectsMisorderedClose) {
    Tracer t;
    {
        Scope root(&t, "root", 0);
        Scope child(&t, "child", 7);
        t.add_summed("summed", 7, 5, 3);
    }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[1].id, 7u);
    EXPECT_EQ(t.spans()[2].parent, 1);
    EXPECT_EQ(t.spans()[2].duration(), 5);
    EXPECT_GE(t.spans()[0].duration(), t.spans()[1].duration());

    Tracer bad;
    const auto outer = bad.open("outer", 0);
    bad.open("inner", 0);
    EXPECT_THROW(bad.close(outer), std::logic_error);

    Scope off(nullptr, "ignored", 0);  // a null tracer records nothing
}

TEST(Tracer, ClockReadCostIsPositiveAndBelowAMicrosecond) {
    const double ns = clock_read_ns();
    EXPECT_GT(ns, 0.0);
    EXPECT_LT(ns, 1000.0);
}

std::map<std::string, std::string> read_tree(const fs::path& dir) {
    std::map<std::string, std::string> out;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file()) continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        out[fs::relative(e.path(), dir).string()] = os.str();
    }
    return out;
}

class Generator : public ::testing::TestWithParam<std::string> {
  protected:
    void SetUp() override {
        root_ = fs::current_path() / "perfbench_tests_tmp";
        fs::remove_all(root_);
    }
    void TearDown() override { fs::remove_all(root_); }
    fs::path root_;
};

TEST_P(Generator, SameSeedSameBytesDifferentSeedDifferentBytes) {
    const std::string w = GetParam();
    generate(w, 5, (root_ / "a").string(), 0.05, 1);
    generate(w, 5, (root_ / "b").string(), 0.05, 3);  // thread count is irrelevant
    generate(w, 6, (root_ / "c").string(), 0.05, 2);
    const auto a = read_tree(root_ / "a");
    const auto b = read_tree(root_ / "b");
    const auto c = read_tree(root_ / "c");
    ASSERT_GT(a.size(), 2u);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), c.size());
    std::size_t differing = 0;
    for (const auto& [path, bytes] : a)
        if (path.find(".ioct") != std::string::npos && path != "empty.ioct")
            differing += c.at(path) != bytes;
    EXPECT_GT(differing, 0u);
    EXPECT_EQ(a.at("empty.ioct").size(), 16u);  // header only
}

INSTANTIATE_TEST_SUITE_P(Workloads, Generator,
                         ::testing::Values("xfstests-serial", "fleet-dir",
                                           "serve-mixed"),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& ch : n)
                                 if (ch == '-') ch = '_';
                             return n;
                         });

TEST(GeneratorNames, RejectsUnknownWorkloads) {
    EXPECT_THROW(generate("hit", 1, "unused", 0.05, 1), std::invalid_argument);
}

}  // namespace
