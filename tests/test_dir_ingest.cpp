// Directory ingestion (IOCov::consume_binary_dir): bit-identity with
// per-file sequential ingestion + merge, non-IOCT rejection
// diagnostics, damaged-file tolerance and --max-errors accounting,
// empty and missing directories, and thread-count independence.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/iocov.hpp"
#include "trace/binary_format.hpp"
#include "trace/diagnostics.hpp"

namespace iocov::core {
namespace {

namespace fs = std::filesystem;

using trace::ArgValue;
using trace::TraceEvent;

/// A self-contained per-file workload: every fd is opened inside the
/// file that uses it, so per-file filter state (what consume_binary_dir
/// guarantees) and carried-over filter state (what a sequential IOCov
/// would have) agree bit-for-bit.
std::vector<TraceEvent> file_workload(std::uint32_t pid, int rounds) {
    std::vector<TraceEvent> events;
    std::uint64_t seq = 1;
    auto push = [&](const char* syscall, std::vector<trace::Arg> args,
                    std::int64_t ret) {
        TraceEvent ev;
        ev.seq = seq++;
        ev.pid = pid;
        ev.tid = pid;
        ev.syscall = syscall;
        ev.args = std::move(args);
        ev.ret = ret;
        events.push_back(std::move(ev));
    };
    for (int r = 0; r < rounds; ++r) {
        const std::string path =
            "/mnt/test/f" + std::to_string(pid) + "_" + std::to_string(r);
        push("openat",
             {{"dfd", ArgValue{std::int64_t{-100}}},
              {"pathname", ArgValue{path}},
              {"flags", ArgValue{std::uint64_t{r % 2 ? 0101u : 0102u}}},
              {"mode", ArgValue{std::uint64_t{0644}}}},
             3);
        push("write",
             {{"fd", ArgValue{std::int64_t{3}}},
              {"count", ArgValue{std::uint64_t{1} << (r % 14)}}},
             static_cast<std::int64_t>(std::uint64_t{1} << (r % 14)));
        push("close", {{"fd", ArgValue{std::int64_t{3}}}}, 0);
        // Noise outside the mount point: must be filtered out.
        push("openat",
             {{"dfd", ArgValue{std::int64_t{-100}}},
              {"pathname", ArgValue{std::string("/etc/passwd")}},
              {"flags", ArgValue{std::uint64_t{0}}},
              {"mode", ArgValue{std::uint64_t{0}}}},
             4);
    }
    return events;
}

/// Creates a unique temp directory populated with `traces` (written in
/// the given name order).
class TraceDir {
  public:
    explicit TraceDir(
        const std::vector<std::pair<std::string, std::string>>& files) {
        // ctest runs each test in its own process, often concurrently:
        // the name must be unique per process, not just per test.
        dir_ = fs::temp_directory_path() /
               ("iocov_dir_ingest_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        fs::create_directories(dir_);
        for (const auto& [name, bytes] : files) {
            std::ofstream out(dir_ / name, std::ios::binary);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
    }
    ~TraceDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path() const { return dir_.string(); }

  private:
    static inline int counter_ = 0;
    fs::path dir_;
};

trace::FilterConfig config() {
    return trace::FilterConfig::mount_point("/mnt/test");
}

TEST(DirIngest, MatchesPerFileSequentialMerge) {
    const auto a = trace::encode_trace(file_workload(11, 40));
    const auto b = trace::encode_trace(file_workload(12, 25));
    const auto c = trace::encode_trace(file_workload(13, 10));
    TraceDir dir({{"a.ioct", a}, {"b.ioct", b}, {"c.ioct", c}});

    // Reference: one fresh IOCov per file, reports merged in name order.
    CoverageReport expected;
    std::uint64_t expected_filtered = 0;
    for (const auto* data : {&a, &b, &c}) {
        IOCov one(config());
        EXPECT_EQ(one.consume_binary(*data), 0u);
        expected.merge(one.report());
        expected_filtered += one.events_filtered_out();
    }

    IOCov iocov(config());
    const auto result = iocov.consume_binary_dir(dir.path(), 1);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->files, 3u);
    EXPECT_EQ(result->rejected, 0u);
    EXPECT_EQ(result->dropped, 0u);
    EXPECT_EQ(result->bytes, a.size() + b.size() + c.size());
    EXPECT_EQ(iocov.report(), expected);
    EXPECT_EQ(iocov.events_filtered_out(), expected_filtered);
    EXPECT_GT(expected_filtered, 0u);  // the filter actually ran
}

TEST(DirIngest, ThreadCountDoesNotChangeTheResult) {
    std::vector<std::pair<std::string, std::string>> files;
    for (int i = 0; i < 8; ++i)
        files.emplace_back(
            "t" + std::to_string(i) + ".ioct",
            trace::encode_trace(file_workload(
                static_cast<std::uint32_t>(20 + i), 5 + 7 * i)));
    TraceDir dir(files);

    IOCov serial(config());
    ASSERT_TRUE(serial.consume_binary_dir(dir.path(), 1).has_value());

    for (const unsigned n : {2u, 4u, 0u}) {
        IOCov parallel(config());
        const auto result = parallel.consume_binary_dir(dir.path(), n);
        ASSERT_TRUE(result.has_value()) << n << " threads";
        EXPECT_EQ(result->files, files.size()) << n << " threads";
        EXPECT_EQ(parallel.report(), serial.report()) << n << " threads";
        EXPECT_EQ(parallel.events_filtered_out(),
                  serial.events_filtered_out())
            << n << " threads";
    }
}

TEST(DirIngest, RejectsNonIoctFilesWithClearDiagnostic) {
    const auto good = trace::encode_trace(file_workload(31, 10));
    TraceDir dir({{"trace.ioct", good},
                  {"README.md", "this directory holds traces\n"},
                  {"sums.sha256", "abc123\n"}});

    IOCov iocov(config());
    const auto result = iocov.consume_binary_dir(dir.path(), 1);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->files, 1u);
    EXPECT_EQ(result->rejected, 2u);
    EXPECT_EQ(result->bytes, good.size());

    // Rejections are diagnosed (and thus feed --max-errors / --strict).
    EXPECT_EQ(iocov.diagnostics().total(), 2u);
    ASSERT_EQ(iocov.diagnostics().entries().size(), 2u);
    EXPECT_EQ(iocov.diagnostics().entries()[0].reason,
              "README.md: not an IOCT file (bad magic/version)");
    EXPECT_EQ(iocov.diagnostics().entries()[1].reason,
              "sums.sha256: not an IOCT file (bad magic/version)");

    IOCov reference(config());
    reference.consume_binary(good);
    EXPECT_EQ(iocov.report(), reference.report());
}

TEST(DirIngest, DamagedFileIsDiagnosedAndTheRestStillAnalyzes) {
    const auto clean = trace::encode_trace(file_workload(41, 20));
    auto damaged = trace::encode_trace(file_workload(42, 20));
    damaged.resize(damaged.size() - 7);  // torn mid-record

    // Per-file expectations from single-file ingestion.
    IOCov clean_ref(config()), damaged_ref(config());
    const auto clean_dropped = clean_ref.consume_binary(clean);
    const auto damaged_dropped = damaged_ref.consume_binary(damaged);
    EXPECT_GT(damaged_dropped, 0u);

    TraceDir dir({{"clean.ioct", clean}, {"damaged.ioct", damaged}});
    IOCov iocov(config());
    const auto result = iocov.consume_binary_dir(dir.path(), 2);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->files, 2u);
    EXPECT_EQ(result->rejected, 0u);
    EXPECT_EQ(result->dropped, clean_dropped + damaged_dropped);
    EXPECT_EQ(iocov.diagnostics().total(),
              clean_dropped + damaged_dropped);

    CoverageReport expected = clean_ref.report();
    expected.merge(damaged_ref.report());
    EXPECT_EQ(iocov.report(), expected);

    // Diagnostics are re-keyed by file name.
    ASSERT_FALSE(iocov.diagnostics().entries().empty());
    for (const auto& d : iocov.diagnostics().entries())
        EXPECT_EQ(d.reason.rfind("damaged.ioct: ", 0), 0u) << d.reason;
}

TEST(DirIngest, EmptyDirectoryAnalyzesAsEmpty) {
    TraceDir dir({});
    IOCov iocov(config());
    const auto result = iocov.consume_binary_dir(dir.path(), 4);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->files, 0u);
    EXPECT_EQ(result->rejected, 0u);
    EXPECT_EQ(result->dropped, 0u);
    EXPECT_EQ(result->bytes, 0u);
    EXPECT_EQ(iocov.report(), IOCov(config()).report());
}

TEST(DirIngest, MissingDirectoryReturnsNullopt) {
    IOCov iocov(config());
    EXPECT_FALSE(iocov.consume_binary_dir("/nonexistent/iocov_dir", 1)
                     .has_value());
}

TEST(DirIngest, IngestStatsAccumulate) {
    const auto a = trace::encode_trace(file_workload(51, 30));
    const auto b = trace::encode_trace(file_workload(52, 30));
    TraceDir dir({{"a.ioct", a}, {"b.ioct", b}});
    IOCov iocov(config());
    ASSERT_TRUE(iocov.consume_binary_dir(dir.path(), 2).has_value());
    const auto& stats = iocov.ingest_stats();
    EXPECT_EQ(stats.files, 2u);
    EXPECT_EQ(stats.bytes, a.size() + b.size());
    EXPECT_EQ(stats.events, 2u * 30u * 4u);
    EXPECT_GE(stats.threads, 2u);
}


TEST(DirIngest, DiagnosticsAndStatsDoNotDependOnThreadCount) {
    const auto clean = trace::encode_trace(file_workload(61, 20));
    auto torn = trace::encode_trace(file_workload(62, 20));
    torn.resize(torn.size() - 5);
    // Corrupt tags (scan drops) and runaway last varints (decode drops)
    // interleaved in one file, so the file's own retention is exercised
    // and the directory's total passes the 16-entry cap.
    auto corrupt = trace::encode_trace(file_workload(63, 30));
    const auto refs = trace::scan_ioct(corrupt).events;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const auto at = static_cast<std::size_t>(refs[i].offset);
        if (i % 5 == 0) corrupt[at] = '\xee';
        else if (i % 7 == 3) corrupt[at + refs[i].length - 1] = '\x80';
    }
    TraceDir dir({{"a_clean.ioct", clean},
                  {"b_torn.ioct", torn},
                  {"c_corrupt.ioct", corrupt},
                  {"d_notes.txt", "not a trace\n"}});

    IOCov serial(config());
    const auto expected = serial.consume_binary_dir(dir.path(), 1);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(expected->files, 3u);
    EXPECT_EQ(expected->rejected, 1u);
    EXPECT_GT(serial.diagnostics().total(),
              trace::ParseDiagnostics::kDefaultMaxRetained);
    EXPECT_EQ(serial.diagnostics().total(), expected->dropped + 1);
    EXPECT_EQ(serial.ingest_stats().threads, 1u);

    for (const unsigned n : {2u, 4u, 0u}) {
        IOCov parallel(config());
        const auto result = parallel.consume_binary_dir(dir.path(), n);
        ASSERT_TRUE(result.has_value()) << n << " threads";
        EXPECT_EQ(result->files, expected->files) << n << " threads";
        EXPECT_EQ(result->rejected, expected->rejected) << n << " threads";
        EXPECT_EQ(result->dropped, expected->dropped) << n << " threads";
        EXPECT_EQ(result->bytes, expected->bytes) << n << " threads";
        EXPECT_EQ(parallel.diagnostics().to_string(),
                  serial.diagnostics().to_string())
            << n << " threads";
        EXPECT_EQ(parallel.report(), serial.report()) << n << " threads";
        EXPECT_EQ(parallel.events_filtered_out(),
                  serial.events_filtered_out())
            << n << " threads";
        EXPECT_EQ(parallel.shards_lost(), 0u) << n << " threads";
        // Every ingest statistic but the lane count is thread-independent.
        auto stats = parallel.ingest_stats();
        EXPECT_GE(stats.threads, 1u) << n << " threads";
        stats.threads = serial.ingest_stats().threads;
        EXPECT_EQ(stats, serial.ingest_stats()) << n << " threads";
    }
}

}  // namespace
}  // namespace iocov::core
