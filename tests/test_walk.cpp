// The one walk over many inputs (core/walk.hpp): a checkpointed walk
// is the plain walk cut into segments, so at every --checkpoint-every,
// and resumed from every manifest it writes, analyze and merge produce
// the plain run's report, diagnostics, counts and snapshot bytes.  The
// resume loader rejects a manifest of another mode or of another
// input list with a structured error.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/iocov.hpp"
#include "core/report_io.hpp"
#include "core/snapshot.hpp"
#include "core/walk.hpp"
#include "host/fault.hpp"
#include "trace/binary_format.hpp"
#include "trace/diagnostics.hpp"

namespace iocov::core {
namespace {

namespace fs = std::filesystem;

using trace::ArgValue;
using trace::TraceEvent;

trace::FilterConfig config() {
    return trace::FilterConfig::mount_point("/mnt/test");
}

/// Per-file workload whose fds open and close inside the file.
std::vector<TraceEvent> workload(std::uint32_t pid, int rounds) {
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
        push("openat",
             {{"dfd", ArgValue{std::int64_t{-100}}},
              {"pathname",
               ArgValue{std::string("/mnt/test/f") + std::to_string(r)}},
              {"flags", ArgValue{std::uint64_t{r % 2 ? 0101u : 0102u}}},
              {"mode", ArgValue{std::uint64_t{0644}}}},
             3);
        push("write",
             {{"fd", ArgValue{std::int64_t{3}}},
              {"count", ArgValue{std::uint64_t{1} << (r % 14)}}},
             static_cast<std::int64_t>(std::uint64_t{1} << (r % 14)));
        push("close", {{"fd", ArgValue{std::int64_t{3}}}}, 0);
        push("openat",
             {{"dfd", ArgValue{std::int64_t{-100}}},
              {"pathname", ArgValue{std::string("/etc/passwd")}},
              {"flags", ArgValue{std::uint64_t{0}}},
              {"mode", ArgValue{std::uint64_t{0}}}},
             4);
    }
    return events;
}

/// Unique temp directory holding named blobs, removed on exit.
class TempDir {
  public:
    TempDir() {
        dir_ = fs::temp_directory_path() /
               (std::string("iocov_walk_") + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        fs::create_directories(dir_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    void put(const std::string& name, const std::string& bytes) const {
        std::ofstream out(dir_ / name, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::string path(const std::string& name = {}) const {
        return name.empty() ? dir_.string() : (dir_ / name).string();
    }

  private:
    static inline int counter_ = 0;
    fs::path dir_;
};

/// A damaged trace directory: clean files, a torn file, a corrupt file
/// with more drops than one ParseDiagnostics retains, and a foreign
/// file.
void put_damaged_traces(const TempDir& dir) {
    auto torn = trace::encode_trace(workload(62, 20));
    torn.resize(torn.size() - 5);
    auto corrupt = trace::encode_trace(workload(63, 30));
    const auto refs = trace::scan_ioct(corrupt).events;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const auto at = static_cast<std::size_t>(refs[i].offset);
        if (i % 5 == 0) corrupt[at] = '\xee';
        else if (i % 7 == 3) corrupt[at + refs[i].length - 1] = '\x80';
    }
    dir.put("a_clean.ioct", trace::encode_trace(workload(61, 20)));
    dir.put("b_torn.ioct", torn);
    dir.put("c_corrupt.ioct", corrupt);
    dir.put("d_notes.txt", "not a trace\n");
    for (int i = 0; i < 4; ++i)
        dir.put(std::string("e") + std::to_string(i) + ".ioct",
                trace::encode_trace(workload(70 + i, 5 + 3 * i)));
}

/// A damaged snapshot directory: good snapshots, a torn one, a
/// bit-flipped one and enough foreign files to pass the retention cap.
void put_damaged_snapshots(const TempDir& dir) {
    std::string good;
    for (int i = 0; i < 5; ++i) {
        IOCov one(config());
        one.consume_binary(trace::encode_trace(workload(80 + i, 4 + 5 * i)));
        auto snap = one.snapshot();
        snap.label = "fleet";
        snap.timestamp = 1000 + i;
        good = encode_snapshot(snap);
        dir.put(std::string("s") + std::to_string(i) + ".iocs", good);
    }
    dir.put("t_torn.iocs", good.substr(0, good.size() / 2));
    auto flipped = good;
    flipped[flipped.size() / 3] ^= 0x10;
    dir.put("u_flipped.iocs", flipped);
    for (int i = 10; i < 28; ++i)
        dir.put(std::string("x") + std::to_string(i) + ".txt", "junk\n");
}

/// Everything an analyze walk's caller can observe.
struct AnalyzeOutcome {
    std::string report;
    std::string diagnostics;
    std::size_t files = 0, rejected = 0, dropped = 0;
    std::uint64_t bytes = 0;
    std::string snapshot;

    friend bool operator==(const AnalyzeOutcome&,
                           const AnalyzeOutcome&) = default;
};

std::optional<AnalyzeOutcome> analyze(const std::vector<WalkEntry>& entries,
                                      unsigned threads,
                                      const Checkpointing& checkpointing = {},
                                      SnapshotError* err = nullptr) {
    IOCov iocov(config());
    const auto dir = analyze_walk(iocov, entries, threads, checkpointing, err);
    if (!dir) return std::nullopt;
    AnalyzeOutcome out;
    std::ostringstream report;
    save_report(report, iocov.report());
    out.report = report.str();
    out.diagnostics = iocov.diagnostics().to_string();
    out.files = dir->files;
    out.rejected = dir->rejected;
    out.dropped = dir->dropped;
    out.bytes = dir->bytes;
    out.snapshot = encode_snapshot(iocov.snapshot());
    return out;
}

/// Everything a merge walk's caller can observe.
struct MergeOutcome {
    std::uint64_t leaves = 0;
    std::uint64_t rejected = 0;
    std::uint64_t bytes = 0;
    std::string diagnostics;
    std::string snapshot;

    friend bool operator==(const MergeOutcome&,
                           const MergeOutcome&) = default;
};

std::optional<MergeOutcome> merge(const std::vector<WalkEntry>& entries,
                                  unsigned threads,
                                  const Checkpointing& checkpointing = {},
                                  SnapshotError* err = nullptr) {
    auto walk = merge_walk(entries, threads, checkpointing, err);
    if (!walk) return std::nullopt;
    EXPECT_LE(walk->blocks.size(), 1u);
    MergeOutcome out;
    if (!walk->blocks.empty()) {
        out.leaves = walk->blocks[0].leaves;
        out.snapshot = encode_snapshot(walk->blocks[0].snapshot);
    }
    out.rejected = walk->rejected;
    out.bytes = walk->bytes;
    out.diagnostics = walk->diags.to_string();
    return out;
}

/// Segments of `every` entries write ceil(n / every) - 1 manifests.
std::size_t manifests(std::size_t n, std::size_t every) {
    return (n + every - 1) / every - 1;
}

TEST(Walk, ListingKeepsArgumentOrderAndSortsEachDirectory) {
    TempDir dir;
    dir.put("b", "2");
    dir.put("a", "1");
    fs::create_directory(dir.path("sub"));  // not a regular file: skipped
    const auto walk = list_inputs({"/x/file", dir.path(), "/y/other"});
    ASSERT_TRUE(walk.has_value());
    ASSERT_EQ(walk->size(), 4u);
    EXPECT_EQ((*walk)[0].path, "/x/file");
    EXPECT_EQ((*walk)[0].name, "/x/file");
    EXPECT_EQ((*walk)[1].path, dir.path("a"));
    EXPECT_EQ((*walk)[1].name, "a");
    EXPECT_EQ((*walk)[1].bytes, 1u);
    EXPECT_EQ((*walk)[2].name, "b");
    EXPECT_EQ((*walk)[3].name, "/y/other");
}

TEST(Walk, PlainAnalyzeWalkIsTheDirectoryIngest) {
    TempDir dir;
    put_damaged_traces(dir);
    IOCov via_dir(config());
    const auto dir_result = via_dir.consume_binary_dir(dir.path(), 1);
    ASSERT_TRUE(dir_result.has_value());
    const auto plain = analyze(*list_inputs({dir.path()}), 1);
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain->files, dir_result->files);
    EXPECT_EQ(plain->rejected, dir_result->rejected);
    EXPECT_EQ(plain->dropped, dir_result->dropped);
    EXPECT_EQ(plain->diagnostics, via_dir.diagnostics().to_string());
    EXPECT_EQ(plain->snapshot, encode_snapshot(via_dir.snapshot()));
    // The fixture is what the retention tests need.
    EXPECT_EQ(plain->rejected, 1u);
    EXPECT_GT(via_dir.diagnostics().total(),
              trace::ParseDiagnostics::kDefaultMaxRetained);
}

TEST(Walk, CheckpointedAnalyzeEqualsThePlainRunAtEverySegmentSize) {
    TempDir dir, ck;
    put_damaged_traces(dir);
    const auto entries = *list_inputs({dir.path()});
    for (const unsigned threads : {1u, 4u}) {
        const auto plain = analyze(entries, threads);
        ASSERT_TRUE(plain.has_value());
        // More lanes than a segment holds would record a narrower
        // thread count in the snapshot, so --threads 4 runs the default
        // segment size only.
        const std::vector<std::uint64_t> sizes =
            threads == 1 ? std::vector<std::uint64_t>{1, 2, 3, 8}
                         : std::vector<std::uint64_t>{8};
        for (const auto every : sizes) {
            const Checkpointing cp{ck.path("walk.iock"), every, false};
            const auto run = analyze(entries, threads, cp);
            ASSERT_TRUE(run.has_value());
            EXPECT_EQ(*run, *plain)
                << "every " << every << ", " << threads << " threads";
            EXPECT_FALSE(fs::exists(cp.path)) << "manifest left behind";
        }
    }
}

TEST(Walk, AnalyzeResumesFromEveryManifestToThePlainRun) {
    TempDir dir, ck;
    put_damaged_traces(dir);
    const auto entries = *list_inputs({dir.path()});
    const auto plain = analyze(entries, 1);
    ASSERT_TRUE(plain.has_value());
    for (const std::uint64_t every : {1u, 3u}) {
        const Checkpointing cp{ck.path("walk.iock"), every, true};
        for (std::size_t k = 1; k <= manifests(entries.size(), every); ++k) {
            // Fail the k-th manifest write after its rename: manifest k
            // is on disk and the walk stops there.
            host::FaultHook::reset();
            ASSERT_EQ(host::FaultHook::configure(
                          std::string("errno:dirsync:EIO:") +
                          std::to_string(k)),
                      std::nullopt);
            SnapshotError err;
            EXPECT_FALSE(analyze(entries, 1, cp, &err).has_value());
            host::FaultHook::reset();
            EXPECT_EQ(err.kind, SnapshotError::Kind::Io);
            ASSERT_TRUE(fs::exists(cp.path)) << "k " << k;
            EXPECT_EQ(load_checkpoint_file(cp.path)->consumed.size(),
                      std::min<std::size_t>(k * every, entries.size()));

            const auto resumed = analyze(entries, 1, cp);
            ASSERT_TRUE(resumed.has_value());
            EXPECT_EQ(*resumed, *plain) << "every " << every << ", k " << k;
            EXPECT_FALSE(fs::exists(cp.path));
        }
    }
}

TEST(Walk, AnalyzeResumesFromAManifestWithoutRetainedDiagnostics) {
    // Older writers kept only rejected entries' diagnostics in the
    // manifest; the report still resumes exactly.
    TempDir dir, ck;
    put_damaged_traces(dir);
    const auto entries = *list_inputs({dir.path()});
    IOCov whole(config());
    ASSERT_TRUE(analyze_walk(whole, entries, 1).has_value());

    const std::size_t split = 5;
    Checkpoint old;
    old.mode = CheckpointMode::Analyze;
    IOCov head(config());
    std::uint64_t analyzed = 0;
    for (std::size_t i = 0; i < split; ++i) {
        old.consumed.push_back(entries[i].path);
        if (entries[i].name.ends_with(".ioct")) {
            ASSERT_TRUE(head.consume_binary_file(entries[i].path, 1));
            ++analyzed;
        } else {
            ++old.rejected;
            old.diags.record(0, 0, entries[i].name + ": not an IOCT file");
        }
    }
    old.blocks.push_back({analyzed, head.snapshot()});
    ASSERT_TRUE(save_checkpoint_file(ck.path("old.iock"), old));

    IOCov resumed(config());
    ASSERT_TRUE(analyze_walk(resumed, entries, 1,
                             {ck.path("old.iock"), 8, true})
                    .has_value());
    EXPECT_EQ(resumed.report(), whole.report());
}

TEST(Walk, CheckpointedMergeEqualsThePlainRunAtEverySegmentSize) {
    TempDir dir, ck;
    put_damaged_snapshots(dir);
    const auto entries = *list_inputs({dir.path()});
    const auto plain = merge(entries, 1);
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain->leaves, 5u);
    EXPECT_EQ(plain->rejected, 20u);
    for (const unsigned threads : {1u, 4u}) {
        EXPECT_EQ(merge(entries, threads), plain) << threads << " threads";
        for (const std::uint64_t every : {1u, 2u, 3u, 8u}) {
            const Checkpointing cp{ck.path("walk.iock"), every, false};
            EXPECT_EQ(merge(entries, threads, cp), plain)
                << "every " << every << ", " << threads << " threads";
            EXPECT_FALSE(fs::exists(cp.path)) << "manifest left behind";
        }
    }
}

TEST(Walk, MergeListsRetainedDiagnosticsByPosition) {
    // The first 16 rejects in walk order, listed by (line, offset).
    TempDir dir;
    put_damaged_snapshots(dir);
    const auto walk = merge_walk(*list_inputs({dir.path()}), 1);
    ASSERT_TRUE(walk.has_value());
    const auto& entries = walk->diags.entries();
    ASSERT_EQ(entries.size(), trace::ParseDiagnostics::kDefaultMaxRetained);
    EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                               [](const auto& a, const auto& b) {
                                   return a.offset < b.offset;
                               }));
    EXPECT_EQ(entries.front().reason.rfind("x10.txt: ", 0), 0u);
    auto retained = [&](const std::string& name) {
        return std::any_of(entries.begin(), entries.end(), [&](const auto& d) {
            return d.reason.rfind(name + ": ", 0) == 0;
        });
    };
    EXPECT_TRUE(retained("t_torn.iocs"));
    EXPECT_TRUE(retained("u_flipped.iocs"));
    EXPECT_TRUE(retained("x23.txt"));
    EXPECT_FALSE(retained("x24.txt"));
}

TEST(Walk, MergeResumesFromEveryManifestToThePlainRun) {
    TempDir dir, ck;
    put_damaged_snapshots(dir);
    const auto entries = *list_inputs({dir.path()});
    const auto plain = merge(entries, 1);
    ASSERT_TRUE(plain.has_value());
    for (const std::uint64_t every : {1u, 4u}) {
        const Checkpointing cp{ck.path("walk.iock"), every, true};
        for (std::size_t k = 1; k <= manifests(entries.size(), every); ++k) {
            host::FaultHook::reset();
            ASSERT_EQ(host::FaultHook::configure(
                          std::string("errno:dirsync:EIO:") +
                          std::to_string(k)),
                      std::nullopt);
            EXPECT_FALSE(merge(entries, 2, cp).has_value());
            host::FaultHook::reset();
            ASSERT_TRUE(fs::exists(cp.path)) << "k " << k;
            EXPECT_EQ(merge(entries, 2, cp), plain)
                << "every " << every << ", k " << k;
            EXPECT_FALSE(fs::exists(cp.path));
        }
    }
}

TEST(Walk, MissingManifestIsAFreshStart) {
    TempDir dir, ck;
    put_damaged_snapshots(dir);
    const auto entries = *list_inputs({dir.path()});
    EXPECT_EQ(merge(entries, 1, {ck.path("none.iock"), 4, true}),
              merge(entries, 1));
}

TEST(Walk, ResumeLoaderRejectsAManifestOfAnotherMode) {
    TempDir dir, ck;
    put_damaged_snapshots(dir);
    const auto entries = *list_inputs({dir.path()});
    const CheckpointMode modes[] = {CheckpointMode::Merge,
                                    CheckpointMode::Analyze,
                                    CheckpointMode::Serve};
    for (const auto written : modes) {
        Checkpoint cp;
        cp.mode = written;
        cp.consumed = {entries[0].path};
        const Checkpointing resume{ck.path("k.iock"), 8, true};
        for (const auto wanted : modes) {
            ASSERT_TRUE(save_checkpoint_file(resume.path, cp));
            SnapshotError err;
            const auto back = resume_checkpoint(resume.path, wanted, &err);
            EXPECT_EQ(back.has_value(), written == wanted);
            if (written == wanted) continue;
            EXPECT_EQ(err.kind, SnapshotError::Kind::Mismatch);
            EXPECT_NE(err.to_string().find("checkpoint was written by"),
                      std::string::npos)
                << err.to_string();
        }
        // The walks resume through the same loader.
        ASSERT_TRUE(save_checkpoint_file(resume.path, cp));
        SnapshotError err;
        EXPECT_EQ(merge(entries, 1, resume, &err).has_value(),
                  written == CheckpointMode::Merge);
        if (written != CheckpointMode::Merge) {
            EXPECT_EQ(err.kind, SnapshotError::Kind::Mismatch);
        }
        ASSERT_TRUE(save_checkpoint_file(resume.path, cp));
        IOCov iocov(config());
        EXPECT_EQ(analyze_walk(iocov, entries, 1, resume, &err).has_value(),
                  written == CheckpointMode::Analyze);
        if (written != CheckpointMode::Analyze) {
            EXPECT_EQ(err.kind, SnapshotError::Kind::Mismatch);
        }
    }
}

TEST(Walk, ResumeRejectsAManifestThatIsNotAPrefixOfTheWalk) {
    TempDir dir, ck;
    put_damaged_snapshots(dir);
    const auto entries = *list_inputs({dir.path()});
    Checkpoint cp;
    cp.mode = CheckpointMode::Merge;
    for (const auto& consumed :
         {std::vector<std::string>{entries[1].path},
          std::vector<std::string>{entries[0].path, "/elsewhere/s.iocs"}}) {
        cp.consumed = consumed;
        ASSERT_TRUE(save_checkpoint_file(ck.path("k.iock"), cp));
        SnapshotError err;
        EXPECT_FALSE(
            merge(entries, 1, {ck.path("k.iock"), 8, true}, &err)
                .has_value());
        EXPECT_EQ(err.kind, SnapshotError::Kind::Mismatch);
        EXPECT_NE(err.to_string().find("does not match the current inputs"),
                  std::string::npos)
            << err.to_string();
        EXPECT_TRUE(fs::exists(ck.path("k.iock")));
    }
    // More consumed than the walk holds.
    cp.consumed.clear();
    for (const auto& e : entries) cp.consumed.push_back(e.path);
    cp.consumed.push_back(entries[0].path);
    ASSERT_TRUE(save_checkpoint_file(ck.path("k.iock"), cp));
    SnapshotError err;
    EXPECT_FALSE(
        merge(entries, 1, {ck.path("k.iock"), 8, true}, &err).has_value());
    EXPECT_EQ(err.kind, SnapshotError::Kind::Mismatch);
}

}  // namespace
}  // namespace iocov::core
