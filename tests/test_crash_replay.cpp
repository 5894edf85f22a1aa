// Persistence-effect log + bounded crash replay.
//
// Units: the VFS write path emits one effect per durable mutation and
// one Barrier per fsync/fdatasync/sync/syncfs/O_SYNC write; epochs
// split at barriers.  Integration: replaying the full log in order
// reconstructs the live file system bit-for-bit (strict state diff).
// Properties (seeded fuzz): no replayed tail effect ever crosses a
// persistence barrier, and replay is bit-identical across reruns of
// the same seed.
#include "testers/crash/replay.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/diff.hpp"
#include "syscall/kernel.hpp"
#include "syscall/process.hpp"
#include "testers/crash/effect_log.hpp"
#include "testers/crash/snapshot.hpp"
#include "testers/crash/workloads.hpp"
#include "testers/generator.hpp"
#include "testers/rng.hpp"

namespace iocov::testers::crash {
namespace {

using vfs::BarrierKind;
using vfs::EffectOp;

/// Runs one baseline workload live, returning the log and keeping the
/// file system around for state comparison.
struct LiveResult {
    vfs::FileSystem fs{recommended_fs_config()};
    EffectLog log;
};

void run_workload_live(LiveResult& live, const CrashWorkload& wl) {
    crash_base_setup(live.fs);
    live.fs.set_effect_observer(&live.log);
    syscall::Kernel kernel(live.fs, nullptr);
    {
        syscall::Process proc =
            kernel.make_process(1, vfs::Credentials::root());
        wl.run(proc, crash_fixtures());
    }
    live.fs.set_effect_observer(nullptr);
}

const CrashWorkload& workload(const std::string& name) {
    for (const auto& wl : crashmonkey_baseline())
        if (wl.name == name) return wl;
    ADD_FAILURE() << "no workload " << name;
    return crashmonkey_baseline().front();
}

TEST(CrashReplay, EffectLogRecordsMutationsAndBarriers) {
    LiveResult live;
    run_workload_live(live, workload("create_fsync"));
    const auto& effects = live.log.effects();
    ASSERT_FALSE(effects.empty());
    // create + write + fsync(Barrier) + tail write, in issue order.
    std::vector<EffectOp> ops;
    for (const auto& e : effects) ops.push_back(e.op);
    EXPECT_EQ(ops[0], EffectOp::Create);
    EXPECT_EQ(ops[1], EffectOp::Write);
    EXPECT_EQ(ops[2], EffectOp::Barrier);
    EXPECT_EQ(effects[2].barrier, BarrierKind::Fsync);
    EXPECT_EQ(ops[3], EffectOp::Write);
    EXPECT_EQ(live.log.barrier_positions(), (std::vector<std::size_t>{2}));
}

// Regression: callers may pass name views that point INTO the dirent
// map (e.g. found by iterating dir->dirents); the removal paths erase
// that key before building the effect record, so the VFS must copy the
// name first.  Under ASan any backslide is a use-after-free.
TEST(CrashReplay, RemovalEffectsSurviveNamesAliasingTheDirentKey) {
    vfs::FileSystem fs{recommended_fs_config()};
    EffectLog log;
    fs.set_effect_observer(&log);
    const auto root = vfs::Credentials::root();
    (void)fs.make_dir(vfs::kRootInode, "d", 0755, root).value();
    (void)fs.create_file(vfs::kRootInode, "victim", 0644, root).value();
    (void)fs.create_file(vfs::kRootInode, "moved", 0644, root).value();

    auto key_view = [&](vfs::InodeId parent, std::string_view want) {
        const auto& ents = fs.find(parent)->dirents;
        return std::string_view{ents.find(std::string(want))->first};
    };

    ASSERT_TRUE(fs.unlink(vfs::kRootInode,
                          key_view(vfs::kRootInode, "victim"), root).ok());
    ASSERT_TRUE(fs.rename(vfs::kRootInode,
                          key_view(vfs::kRootInode, "moved"),
                          vfs::kRootInode, "renamed", root).ok());
    ASSERT_TRUE(fs.remove_dir(vfs::kRootInode,
                              key_view(vfs::kRootInode, "d"), root).ok());

    const auto& effects = log.effects();
    ASSERT_EQ(effects.size(), 6u);  // mkdir + 2 creates + the 3 removals
    EXPECT_EQ(effects[3].op, EffectOp::Unlink);
    EXPECT_EQ(effects[3].name, "victim");
    EXPECT_EQ(effects[4].op, EffectOp::Rename);
    EXPECT_EQ(effects[4].name, "moved");
    EXPECT_EQ(effects[4].name2, "renamed");
    EXPECT_EQ(effects[5].op, EffectOp::Rmdir);
    EXPECT_EQ(effects[5].name, "d");
}

TEST(CrashReplay, OSyncWritesEmitPerWriteBarriers) {
    LiveResult live;
    run_workload_live(live, workload("osync_log"));
    // Every O_SYNC write is followed by its own OSync barrier.
    std::size_t osync_barriers = 0;
    for (const auto& e : live.log.effects())
        if (e.op == EffectOp::Barrier && e.barrier == BarrierKind::OSync)
            ++osync_barriers;
    EXPECT_EQ(osync_barriers, 3u);
}

TEST(CrashReplay, SyncIsGlobalFsyncIsScoped) {
    EXPECT_TRUE(vfs::barrier_is_global(BarrierKind::Sync));
    EXPECT_TRUE(vfs::barrier_is_global(BarrierKind::Syncfs));
    EXPECT_FALSE(vfs::barrier_is_global(BarrierKind::Fsync));
    EXPECT_FALSE(vfs::barrier_is_global(BarrierKind::Fdatasync));
    EXPECT_FALSE(vfs::barrier_is_global(BarrierKind::OSync));

    LiveResult live;
    run_workload_live(live, workload("mkdir_tree_sync"));
    bool saw_global = false;
    for (const auto& e : live.log.effects())
        if (e.op == EffectOp::Barrier && e.barrier == BarrierKind::Sync) {
            saw_global = true;
            EXPECT_EQ(e.ino, vfs::kInvalidInode);
        }
    EXPECT_TRUE(saw_global);
}

TEST(CrashReplay, EpochsSplitAtBarriers) {
    LiveResult live;
    run_workload_live(live, workload("truncate_fdatasync"));
    const auto epochs = live.log.epochs();
    ASSERT_GE(epochs.size(), 2u);
    for (std::size_t i = 0; i + 1 < epochs.size(); ++i) {
        EXPECT_TRUE(epochs[i].has_barrier);
        EXPECT_EQ(epochs[i].barrier, epochs[i].end);
        EXPECT_EQ(epochs[i + 1].begin, epochs[i].end + 1);
    }
    EXPECT_FALSE(epochs.back().has_barrier);  // open tail epoch
}

TEST(CrashReplay, FullInOrderReplayReconstructsLiveStateExactly) {
    for (const auto& wl : crashmonkey_baseline()) {
        LiveResult live;
        run_workload_live(live, wl);

        CrashReplayer replayer(live.log, recommended_fs_config(),
                               crash_base_setup);
        CrashPoint full;
        full.prefix = live.log.effects().size();
        full.tail = CrashPoint::Tail::None;
        const RecoveredState rec = replayer.replay(full);
        EXPECT_EQ(rec.dropped, 0u) << wl.name;

        const auto expected = snapshot_vfs(live.fs);
        const auto actual = snapshot_vfs(*rec.fs);
        const auto deltas =
            core::diff_states(expected, actual, {.allow_extra = false});
        EXPECT_TRUE(deltas.empty()) << wl.name << ": "
                                    << (deltas.empty()
                                            ? std::string{}
                                            : deltas.front().path);
    }
}

TEST(CrashReplay, PlanEnumeratesEveryEpochDeterministically) {
    LiveResult live;
    run_workload_live(live, workload("many_writes_fdatasync"));
    CrashReplayer replayer(live.log, recommended_fs_config(),
                           crash_base_setup);
    CrashPlanConfig cfg;
    cfg.seed = 7;
    const auto a = replayer.plan(cfg);
    const auto b = replayer.plan(cfg);
    ASSERT_EQ(a.size(), b.size());
    std::set<std::string> ids;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id(), b[i].id());
        ids.insert(a[i].id());
    }
    EXPECT_EQ(ids.size(), a.size());  // ids are unique
    // Barrier-state, in-order, reordered and torn tails all present.
    bool seq = false, shuf = false, torn = false;
    for (const auto& p : a) {
        seq = seq || p.tail == CrashPoint::Tail::InOrder;
        shuf = shuf || p.tail == CrashPoint::Tail::Reordered;
        torn = torn || p.tail == CrashPoint::Tail::Torn;
    }
    EXPECT_TRUE(seq && shuf && torn);
}

TEST(CrashReplay, MaxPointsSubsamplesKeepingEnds) {
    LiveResult live;
    run_workload_live(live, workload("many_writes_fdatasync"));
    CrashReplayer replayer(live.log, recommended_fs_config(),
                           crash_base_setup);
    CrashPlanConfig cfg;
    const auto all = replayer.plan(cfg);
    cfg.max_points = 5;
    const auto few = replayer.plan(cfg);
    ASSERT_LE(few.size(), 5u);
    EXPECT_EQ(few.front().id(), all.front().id());
    EXPECT_EQ(few.back().id(), all.back().id());
}

// ---- seeded fuzz properties -----------------------------------------

/// A small random VFS mutation sequence with interleaved barriers,
/// driven directly through the instrumented FileSystem API.
void random_workload(vfs::FileSystem& fs, Rng& rng) {
    const auto root = vfs::Credentials::root();
    std::vector<vfs::InodeId> files;
    std::vector<vfs::InodeId> dirs{vfs::kRootInode};
    for (int op = 0; op < 40; ++op) {
        switch (rng.below(8)) {
            case 0: {
                auto r = fs.create_file(
                    dirs[rng.below(dirs.size())],
                    std::string("f") + std::to_string(op), 0644, root);
                if (r.ok()) files.push_back(r.value());
                break;
            }
            case 1: {
                auto r = fs.make_dir(dirs[rng.below(dirs.size())],
                                     std::string("d") + std::to_string(op),
                                     0755, root);
                if (r.ok()) dirs.push_back(r.value());
                break;
            }
            case 2:
                if (!files.empty())
                    (void)fs.write_pattern(
                        files[rng.below(files.size())],
                        rng.below(4096), 2 + rng.below(512),
                        std::byte(static_cast<unsigned char>(
                            rng.below(256))));
                break;
            case 3:
                if (!files.empty())
                    (void)fs.truncate(files[rng.below(files.size())],
                                      rng.below(2048));
                break;
            case 4:
                if (!files.empty())
                    (void)fs.chmod(files[rng.below(files.size())],
                                   0600 + rng.below(0200), root);
                break;
            case 5:
                if (!files.empty())
                    fs.sync_inode(files[rng.below(files.size())],
                                  BarrierKind::Fsync);
                break;
            case 6:
                fs.sync_all();
                break;
            case 7:
                if (!files.empty() && rng.chance(1, 2)) {
                    // Unlink through the parent that actually holds it.
                    const vfs::InodeId victim = files.back();
                    const vfs::Inode* node = fs.find(victim);
                    if (node && node->nlink > 0) {
                        for (const vfs::InodeId d : dirs) {
                            const vfs::Inode* dir = fs.find(d);
                            if (!dir) continue;
                            for (const auto& [name, child] : dir->dirents)
                                if (child == victim) {
                                    (void)fs.unlink(d, name, root);
                                    files.pop_back();
                                    goto done;
                                }
                        }
                    }
                }
            done:
                break;
        }
    }
}

TEST(CrashReplay, FuzzTailsNeverCrossBarriersAndReplayIsDeterministic) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        EffectLog log;
        const vfs::FsConfig cfg{};
        const BaseSetup base = [](vfs::FileSystem&) {};
        {
            vfs::FileSystem fs(cfg);
            fs.set_effect_observer(&log);
            Rng rng(seed);
            random_workload(fs, rng);
        }
        const auto& effects = log.effects();
        CrashReplayer replayer(log, cfg, base);
        CrashPlanConfig plan_cfg;
        plan_cfg.seed = seed;
        const auto points = replayer.plan(plan_cfg);
        for (const auto& point : points) {
            const RecoveredState rec = replayer.replay(point);
            // The crash epoch ends at the first barrier at/after prefix.
            std::size_t epoch_end = point.prefix;
            while (epoch_end < effects.size() &&
                   effects[epoch_end].op != EffectOp::Barrier)
                ++epoch_end;
            for (const std::size_t idx : rec.applied) {
                if (idx < point.prefix) continue;  // retired prefix
                EXPECT_LT(idx, epoch_end)
                    << point.id() << ": tail effect " << idx
                    << " crossed the barrier at " << epoch_end;
                EXPECT_NE(effects[idx].op, EffectOp::Barrier);
            }
            // Bit-identical rerun: same applied sequence, same state.
            const RecoveredState again = replayer.replay(point);
            EXPECT_EQ(rec.applied, again.applied) << point.id();
            EXPECT_TRUE(core::diff_states(snapshot_vfs(*rec.fs),
                                          snapshot_vfs(*again.fs),
                                          {.allow_extra = false})
                            .empty())
                << point.id();
        }
    }
}

}  // namespace
}  // namespace iocov::testers::crash
