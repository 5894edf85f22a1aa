// Persisted-prefix oracle: sound on a correct file system (zero
// violations across every enumerated crash point of every baseline
// workload), sensitive to real divergence (a mutated recovered state
// is flagged), and able to catch the seeded skip-a-barrier bug that
// fsck alone cannot see.
#include "testers/crash/oracle.hpp"

#include <gtest/gtest.h>

#include <string>

#include "syscall/kernel.hpp"
#include "syscall/process.hpp"
#include "testers/crash/workloads.hpp"
#include "testers/generator.hpp"
#include "vfs/fsck.hpp"

namespace iocov::testers::crash {
namespace {

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

TEST(CrashOracle, OneSnapshotPerBarrierPlusBase) {
    LiveResult live;
    run_workload_live(live, workload("create_fsync"));
    const PersistenceOracle oracle(live.log, recommended_fs_config(),
                                   crash_base_setup);
    EXPECT_EQ(oracle.snapshot_count(),
              live.log.barrier_positions().size() + 1);
}

TEST(CrashOracle, CorrectReplayHasZeroViolationsAcrossAllPoints) {
    // The soundness half of the oracle contract: a file system that
    // honors its barriers produces no violation at any crash point.
    for (const auto& wl : crashmonkey_baseline()) {
        LiveResult live;
        run_workload_live(live, wl);
        const vfs::FsConfig cfg = recommended_fs_config();
        CrashReplayer replayer(live.log, cfg, crash_base_setup);
        const PersistenceOracle oracle(live.log, cfg, crash_base_setup);
        CrashPlanConfig plan_cfg;
        for (const auto& point : replayer.plan(plan_cfg)) {
            const RecoveredState rec = replayer.replay(point);
            const auto bugs = oracle.check(point, rec);
            EXPECT_TRUE(bugs.empty())
                << wl.name << " @" << point.id() << ": "
                << (bugs.empty() ? std::string{}
                                 : bugs.front().to_string());
        }
    }
}

TEST(CrashOracle, DetectsDataLossInACorruptedRecoveredState) {
    LiveResult live;
    run_workload_live(live, workload("create_fsync"));
    const vfs::FsConfig cfg = recommended_fs_config();
    CrashReplayer replayer(live.log, cfg, crash_base_setup);
    const PersistenceOracle oracle(live.log, cfg, crash_base_setup);

    // Crash exactly at the fsync: the file's first write is guaranteed.
    CrashPoint at_barrier;
    at_barrier.prefix = live.log.barrier_positions().front() + 1;
    RecoveredState rec = replayer.replay(at_barrier);
    ASSERT_TRUE(oracle.check(at_barrier, rec).empty());

    // "Recover" the state with the synced file truncated to nothing —
    // exactly what a buggy journal replay would leave behind.
    const vfs::Effect& create = live.log.effects().front();
    ASSERT_EQ(create.op, vfs::EffectOp::Create);
    ASSERT_TRUE(rec.fs->truncate(rec.ino_map.at(create.ino), 0).ok());
    const auto bugs = oracle.check(at_barrier, rec);
    ASSERT_FALSE(bugs.empty());
    EXPECT_EQ(bugs.front().kind, "data-loss");
}

TEST(CrashOracle, SkipBarrierBugIsCaughtWhileFsckStaysClean) {
    // The thesis demo: a file system that silently forgets an
    // acknowledged barrier recovers to a self-consistent state — fsck
    // finds nothing — but the persisted-prefix oracle flags the loss.
    LiveResult live;
    run_workload_live(live, workload("create_fsync"));
    const vfs::FsConfig cfg = recommended_fs_config();
    CrashReplayer replayer(live.log, cfg, crash_base_setup);
    replayer.inject_skip_barrier(0);
    const PersistenceOracle oracle(live.log, cfg, crash_base_setup);

    CrashPoint full;
    full.prefix = live.log.effects().size();
    const RecoveredState rec = replayer.replay(full);
    EXPECT_GT(rec.dropped, 0u);  // the skipped epoch's effects

    for (const auto& v : vfs::fsck(*rec.fs, {}).violations)
        ADD_FAILURE() << "fsck: " << v.to_string();

    const auto bugs = oracle.check(full, rec);
    ASSERT_FALSE(bugs.empty());
    for (const auto& bug : bugs)
        EXPECT_NE(bug.kind.substr(0, 5), "fsck:") << bug.to_string();
}

TEST(CrashOracle, AppliedTailEffectsDoNotFalsePositive) {
    // A surviving tail write legitimately changes content the barrier
    // guaranteed; the oracle must invalidate that fact, not flag it.
    LiveResult live;
    run_workload_live(live, workload("append_fsync"));
    const vfs::FsConfig cfg = recommended_fs_config();
    CrashReplayer replayer(live.log, cfg, crash_base_setup);
    const PersistenceOracle oracle(live.log, cfg, crash_base_setup);
    // In-order tails of every length after the barrier.
    const std::size_t barrier = live.log.barrier_positions().front();
    const std::size_t n = live.log.effects().size();
    for (std::size_t t = 1; t <= n - barrier - 1; ++t) {
        CrashPoint p;
        p.prefix = barrier + 1;
        p.tail = CrashPoint::Tail::InOrder;
        p.variant = static_cast<std::uint32_t>(t);
        const RecoveredState rec = replayer.replay(p);
        const auto bugs = oracle.check(p, rec);
        EXPECT_TRUE(bugs.empty())
            << p.id() << ": "
            << (bugs.empty() ? std::string{} : bugs.front().to_string());
    }
}

TEST(CrashOracle, BugReportCarriesPointAndPath) {
    LiveResult live;
    run_workload_live(live, workload("create_fsync"));
    const vfs::FsConfig cfg = recommended_fs_config();
    CrashReplayer replayer(live.log, cfg, crash_base_setup);
    replayer.inject_skip_barrier(0);
    const PersistenceOracle oracle(live.log, cfg, crash_base_setup);
    CrashPoint full;
    full.prefix = live.log.effects().size();
    const auto bugs = oracle.check(full, replayer.replay(full));
    ASSERT_FALSE(bugs.empty());
    const CrashBug& bug = bugs.front();
    EXPECT_EQ(bug.crash_point, full.id());
    EXPECT_FALSE(bug.path.empty());
    const auto s = bug.to_string();
    EXPECT_NE(s.find(bug.kind), std::string::npos);
    EXPECT_NE(s.find(bug.crash_point), std::string::npos);
}

}  // namespace
}  // namespace iocov::testers::crash
