// Fleet-level snapshot aggregation: load_snapshot_dir + merge_snapshots
// determinism at every thread count, per-file rejection diagnostics for
// corrupt/foreign/version-skewed entries, ≥8-shard merges equal to
// single-pass ingest, and merge_summary_json stability.
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/iocov.hpp"
#include "core/snapshot.hpp"
#include "syscall/kernel.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/binary_format.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::core {
namespace {

namespace fs = std::filesystem;

trace::FilterConfig config() {
    return trace::FilterConfig::mount_point("/mnt/test");
}

std::vector<trace::TraceEvent> generator_trace(double scale,
                                               std::uint64_t seed) {
    vfs::FileSystem fss(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fss, "/mnt/test");
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fss, &buffer);
    testers::run_xfstests(kernel, fx, scale, seed);
    return buffer.take_events();
}

/// Unique temp dir populated with named byte blobs, removed on exit.
class SnapDir {
  public:
    explicit SnapDir(
        const std::vector<std::pair<std::string, std::string>>& files) {
        dir_ = fs::temp_directory_path() /
               ("iocov_snapdir_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        fs::create_directories(dir_);
        for (const auto& [name, bytes] : files) {
            std::ofstream out(dir_ / name, std::ios::binary);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
    }
    ~SnapDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path() const { return dir_.string(); }

  private:
    static inline int counter_ = 0;
    fs::path dir_;
};

/// Eight per-pid shard snapshots of one workload, plus the single-pass
/// snapshot they must merge back into.
struct Fleet {
    std::vector<std::pair<std::string, std::string>> files;
    IOCovSnapshot expected;
};

Fleet make_fleet(std::uint64_t seed) {
    const auto events = generator_trace(0.03, seed);
    std::vector<std::vector<trace::TraceEvent>> parts(8);
    for (const auto& ev : events) parts[ev.pid % 8].push_back(ev);

    Fleet fleet;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        IOCov shard(config());
        shard.consume_binary(trace::encode_trace(parts[i]));
        auto snap = shard.snapshot();
        snap.label = "shard";
        snap.timestamp = 1000 + i;
        fleet.files.push_back(
            {"shard" + std::to_string(i) + ".iocs", encode_snapshot(snap)});
    }
    IOCov single(config());
    single.consume_binary(trace::encode_trace(events));
    fleet.expected = single.snapshot();
    return fleet;
}

TEST(SnapshotMerge, EightShardsMergeBackToSinglePassAtAnyThreadCount) {
    const auto fleet = make_fleet(21);
    SnapDir dir(fleet.files);

    std::string first_bytes;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        auto load = load_snapshot_dir(dir.path(), threads);
        ASSERT_TRUE(load.has_value()) << threads << " threads";
        ASSERT_EQ(load->snapshots.size(), 8u);
        EXPECT_EQ(load->rejected, 0u);
        // Name order regardless of which lane finished first.
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(load->snapshots[i].name,
                      "shard" + std::to_string(i) + ".iocs");

        const auto merged =
            merge_snapshots(std::move(load->snapshots), threads);
        EXPECT_EQ(merged.report, fleet.expected.report)
            << threads << " threads";
        EXPECT_EQ(merged.filtered_out, fleet.expected.filtered_out);
        EXPECT_EQ(merged.label, "shard");     // all shards agree
        EXPECT_EQ(merged.timestamp, 1007u);   // max of the stamps

        // The headline determinism claim: byte-identical at any thread
        // count.
        const auto bytes = encode_snapshot(merged);
        if (first_bytes.empty()) first_bytes = bytes;
        EXPECT_EQ(bytes, first_bytes) << threads << " threads";
    }
}

TEST(SnapshotMerge, ForeignAndDamagedFilesAreDiagnosedNotFatal) {
    auto fleet = make_fleet(22);
    // A README, a torn snapshot, a bit-flipped snapshot, and a
    // version-skewed snapshot all land in the drop box.
    std::string torn = fleet.files[0].second;
    torn.resize(torn.size() / 2);
    std::string flipped = fleet.files[1].second;
    flipped[flipped.size() / 2] =
        static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
    std::string skewed = fleet.files[2].second;
    skewed[4] = 7;
    fleet.files.push_back({"README.md", "not a snapshot\n"});
    fleet.files.push_back({"torn.iocs", torn});
    fleet.files.push_back({"flipped.iocs", flipped});
    fleet.files.push_back({"skewed.iocs", skewed});
    SnapDir dir(fleet.files);

    const auto load = load_snapshot_dir(dir.path(), 4);
    ASSERT_TRUE(load.has_value());
    EXPECT_EQ(load->snapshots.size(), 8u);  // the healthy shards
    EXPECT_EQ(load->rejected, 4u);          // feeds --max-errors
    EXPECT_EQ(load->diags.total(), 4u);
    // Each rejection carries a per-file, named diagnostic.
    std::string all;
    for (const auto& d : load->diags.entries()) all += d.reason + "\n";
    EXPECT_NE(all.find("README.md"), std::string::npos);
    EXPECT_NE(all.find("torn.iocs"), std::string::npos);
    EXPECT_NE(all.find("flipped.iocs"), std::string::npos);
    EXPECT_NE(all.find("skewed.iocs"), std::string::npos);
    EXPECT_NE(all.find("version skew"), std::string::npos);

    // The healthy shards still merge to the single-pass state.
    const auto merged = merge_snapshots(load->snapshots, 2);
    EXPECT_EQ(merged.report, fleet.expected.report);
}

TEST(SnapshotMerge, EmptyAndMissingDirectories) {
    SnapDir dir({});
    const auto load = load_snapshot_dir(dir.path(), 2);
    ASSERT_TRUE(load.has_value());
    EXPECT_TRUE(load->snapshots.empty());
    EXPECT_EQ(load->rejected, 0u);
    EXPECT_EQ(merge_snapshots(load->snapshots, 2), IOCovSnapshot{});

    EXPECT_FALSE(
        load_snapshot_dir(dir.path() + "/definitely-missing", 2)
            .has_value());
}

TEST(SnapshotMerge, SingleSnapshotMergesToItself) {
    const auto fleet = make_fleet(23);
    SnapDir dir({fleet.files[0]});
    auto load = load_snapshot_dir(dir.path(), 1);
    ASSERT_TRUE(load.has_value());
    ASSERT_EQ(load->snapshots.size(), 1u);
    const auto original = load->snapshots[0].snapshot;
    EXPECT_EQ(merge_snapshots(std::move(load->snapshots), 4), original);
}

TEST(SnapshotMerge, SaveLoadFileRoundTrip) {
    const auto fleet = make_fleet(24);
    SnapshotError err;
    const auto path =
        (fs::temp_directory_path() /
         ("iocov_snap_rt_" + std::to_string(::getpid()) + ".iocs"))
            .string();
    ASSERT_TRUE(save_snapshot_file(path, fleet.expected));
    const auto loaded = load_snapshot_file(path, &err);
    ASSERT_TRUE(loaded.has_value()) << err.to_string();
    EXPECT_EQ(*loaded, fleet.expected);
    fs::remove(path);

    EXPECT_FALSE(load_snapshot_file(path, &err).has_value());
    EXPECT_EQ(err.kind, SnapshotError::Kind::Io);
    EXPECT_EQ(err.io_errno, ENOENT);
    EXPECT_EQ(err.reason.find("cannot open file"), 0u);
}

TEST(SnapshotMerge, SummaryJsonIsStableAcrossThreadCounts) {
    const auto fleet = make_fleet(25);
    SnapDir dir(fleet.files);
    std::string first;
    for (const unsigned threads : {1u, 4u}) {
        auto load = load_snapshot_dir(dir.path(), threads);
        ASSERT_TRUE(load.has_value());
        const auto merged = merge_snapshots(load->snapshots, threads);
        const auto json = merge_summary_json(*load, merged);
        EXPECT_NE(json.find("\"snapshots\": 8"), std::string::npos);
        EXPECT_NE(json.find("\"spaces\""), std::string::npos);
        if (first.empty()) first = json;
        EXPECT_EQ(json, first) << threads << " threads";
    }
}

}  // namespace
}  // namespace iocov::core
