// Open-flag pair coverage, counted by the analyzer in per-pair cells
// and folded into the report's `pairs` histogram at the end of every
// public call.  A multi-pid trace of random flag words, several decode
// batches long, must give one report on every ingest path, and its
// pairs must equal a label-keyed recount done here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "abi/fcntl.hpp"
#include "core/iocov.hpp"
#include "core/live.hpp"
#include "trace/binary_format.hpp"

namespace iocov::core {
namespace {

using trace::ArgValue;
using trace::TraceEvent;

/// A random open flags word: any access mode (3 included) and each
/// other flag of the table with probability 1/4.  O_SYNC carries the
/// O_DSYNC bit and O_TMPFILE the O_DIRECTORY bit, so both absorptions
/// occur.
std::uint32_t random_flags(std::mt19937& rng) {
    std::uint32_t flags = rng() % 4;
    for (const auto& info : abi::open_flag_table())
        if (!info.access_mode && rng() % 4 == 0) flags |= info.bits;
    return flags;
}

TraceEvent open_event(std::uint32_t pid, const std::string& path,
                      std::uint32_t flags, std::int64_t ret) {
    TraceEvent ev;
    ev.pid = ev.tid = pid;
    ev.syscall = "open";
    ev.args = {{"pathname", ArgValue{path}},
               {"flags", ArgValue{std::uint64_t{flags}}},
               {"mode", ArgValue{std::uint64_t{0644}}}};
    ev.ret = ret;
    return ev;
}

/// `n` events over five pids: in-scope opens (some failing), opens
/// outside the mount and closes of fds nobody opened, so every decode
/// batch holds rows the filter rejects.  Every in-scope open's flags
/// word is appended to `in_scope`.
std::vector<TraceEvent> pair_trace(std::size_t n,
                                   std::vector<std::uint32_t>& in_scope) {
    std::mt19937 rng(7);
    std::vector<TraceEvent> events;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t pid = 21 + rng() % 5;
        const std::uint32_t flags = random_flags(rng);
        TraceEvent ev;
        switch (rng() % 10) {
            case 0:
                ev = open_event(pid, "/outside/f", flags, 3);
                break;
            case 1:
                ev.pid = ev.tid = pid;
                ev.syscall = "close";
                ev.args = {
                    {"fd", ArgValue{std::uint64_t{900 + rng() % 50}}}};
                break;
            default: {
                const std::int64_t ret =
                    rng() % 8 == 0
                        ? -13
                        : static_cast<std::int64_t>(3 + rng() % 2000);
                ev = open_event(pid, "/mnt/test/f" + std::to_string(i % 97),
                                flags, ret);
                in_scope.push_back(flags);
                break;
            }
        }
        ev.seq = i;
        events.push_back(std::move(ev));
    }
    return events;
}

/// The flag names of `flags`, decoded here from the table's names and
/// bits: the access mode (3 reads as O_RDWR); then O_SYNC and
/// O_TMPFILE, which take the O_DSYNC and O_DIRECTORY bits they
/// contain; then, in table order, every flag whose bits are all still
/// set, each taking its bits.
std::vector<std::string> flag_names(std::uint32_t flags) {
    const auto& table = abi::open_flag_table();
    std::vector<std::string> names;
    const std::uint32_t mode = (flags & abi::O_ACCMODE) == abi::O_ACCMODE
                                   ? abi::O_RDWR
                                   : flags & abi::O_ACCMODE;
    for (const auto& info : table)
        if (info.access_mode && info.bits == mode) names.push_back(info.name);
    std::uint32_t rest = flags & ~std::uint32_t{abi::O_ACCMODE};
    auto take = [&](const abi::OpenFlagInfo& info) {
        if ((rest & info.bits) != info.bits) return;
        names.push_back(info.name);
        rest &= ~info.bits;
    };
    const auto composite = [](const abi::OpenFlagInfo& info) {
        return info.bits == abi::O_SYNC || info.bits == abi::O_TMPFILE;
    };
    for (const auto& info : table)
        if (!info.access_mode && composite(info)) take(info);
    for (const auto& info : table)
        if (!info.access_mode && !composite(info)) take(info);
    return names;
}

/// Pair rows recounted by label: "A+B" in lexicographic order, one
/// count per call that combines both.
std::vector<stats::PartitionCount> recount_pairs(
    const std::vector<std::uint32_t>& flag_words) {
    std::map<std::string, std::uint64_t> counts;
    for (const std::uint32_t flags : flag_words) {
        const auto names = flag_names(flags);
        for (std::size_t a = 0; a < names.size(); ++a)
            for (std::size_t b = a + 1; b < names.size(); ++b)
                ++counts[names[a] < names[b] ? names[a] + "+" + names[b]
                                             : names[b] + "+" + names[a]];
    }
    std::vector<stats::PartitionCount> rows;
    for (const auto& [label, count] : counts) rows.push_back({label, count});
    return rows;
}

const stats::PartitionHistogram& pairs_of(const CoverageReport& report) {
    return report.find_input("open", "flags")->pairs;
}

constexpr std::size_t kEvents = 2600;  // > 3 x 512 in-scope opens

TEST(PairCells, EveryIngestPathGivesOneReport) {
    std::vector<std::uint32_t> in_scope;
    const auto events = pair_trace(kEvents, in_scope);
    ASSERT_GT(in_scope.size(), 3u * 512u);
    const std::string bytes = trace::encode_trace(events);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");

    IOCov rows(config);
    EXPECT_EQ(rows.consume_binary(bytes), 0u);
    IOCov from_events(config);
    from_events.consume_all(events);
    IOCov sharded(config);
    EXPECT_EQ(sharded.consume_binary_parallel(bytes, 3), 0u);
    LiveCoverage live(config);
    EXPECT_TRUE(live.push("pairs.ioct", bytes).accepted);

    ASSERT_GT(pairs_of(rows.report()).total(), 0u);
    EXPECT_GT(rows.events_filtered_out(), 0u);
    EXPECT_EQ(from_events.report(), rows.report());
    EXPECT_EQ(sharded.report(), rows.report());
    EXPECT_EQ(live.read()->state.report, rows.report());
}

TEST(PairCells, PairsEqualALabelKeyedRecount) {
    std::vector<std::uint32_t> in_scope;
    const auto events = pair_trace(kEvents, in_scope);
    const auto expected = recount_pairs(in_scope);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");

    IOCov rows(config);
    rows.consume_binary(trace::encode_trace(events));
    EXPECT_EQ(pairs_of(rows.report()).rows(), expected);
    IOCov from_events(config);
    from_events.consume_all(events);
    EXPECT_EQ(pairs_of(from_events.report()).rows(), expected);
}

/// Every open-flags statistic recounted by label from flag_names():
/// `hist`, `combo_cardinality`, `combo_cardinality_rdonly` and `pairs`.
struct FlagRecount {
    std::map<std::string, std::uint64_t> hist, cardinality, rdonly;
    std::vector<stats::PartitionCount> pairs;
};

FlagRecount recount_flags(const std::vector<std::uint32_t>& flag_words) {
    FlagRecount out;
    for (const std::uint32_t flags : flag_words) {
        const auto names = flag_names(flags);
        for (const auto& name : names) ++out.hist[name];
        const std::string size =
            names.size() >= 7 ? "7+" : std::to_string(names.size());
        ++out.cardinality[size];
        for (const auto& name : names)
            if (name == "O_RDONLY") ++out.rdonly[size];
    }
    out.pairs = recount_pairs(flag_words);
    return out;
}

/// The rows of `hist` that counted something, by label.
std::map<std::string, std::uint64_t> counted(
    const stats::PartitionHistogram& hist) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& row : hist.rows())
        if (row.count) out[row.label] = row.count;
    return out;
}

TEST(PairCells, FlagWordsEvictedFromTheMemoCountAsTheRecount) {
    // Three times round a cycle of distinct words, many more than the
    // memo holds, so every lap finds its entries evicted by the last.
    std::mt19937 rng(11);
    std::vector<std::uint32_t> cycle;
    while (cycle.size() < 5 * Analyzer::kFlagsMemoEntries) {
        const std::uint32_t flags = random_flags(rng);
        if (std::find(cycle.begin(), cycle.end(), flags) == cycle.end())
            cycle.push_back(flags);
    }
    std::vector<std::uint32_t> words;
    std::vector<TraceEvent> events;
    for (int lap = 0; lap < 3; ++lap)
        for (const std::uint32_t flags : cycle) {
            words.push_back(flags);
            events.push_back(open_event(21, "/mnt/test/f", flags, 3));
            events.back().seq = events.size();
        }
    const FlagRecount expected = recount_flags(words);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");

    IOCov rows(config), from_events(config);
    rows.consume_binary(trace::encode_trace(events));
    from_events.consume_all(events);
    for (const IOCov* run : {&rows, &from_events}) {
        const ArgCoverage& flags = *run->report().find_input("open", "flags");
        EXPECT_EQ(counted(flags.hist), expected.hist);
        EXPECT_EQ(counted(flags.combo_cardinality), expected.cardinality);
        EXPECT_EQ(counted(flags.combo_cardinality_rdonly), expected.rdonly);
        EXPECT_EQ(flags.pairs.rows(), expected.pairs);
    }
}

TEST(PairCells, ReportIsCompleteAfterEveryCall) {
    std::vector<std::uint32_t> in_scope;
    pair_trace(400, in_scope);
    Analyzer analyzer;
    std::uint64_t pairs = 0;
    for (const std::uint32_t flags : in_scope) {
        analyzer.consume(open_event(21, "/mnt/test/f", flags, 3));
        const std::uint64_t n = flag_names(flags).size();
        pairs += n * (n - 1) / 2;
        ASSERT_EQ(pairs_of(analyzer.report()).total(), pairs);
    }
    EXPECT_EQ(pairs_of(analyzer.report()).rows(), recount_pairs(in_scope));
}

}  // namespace
}  // namespace iocov::core
