// fsck invariant checker: clean file systems stay clean, and every
// violation class is detectable when the corresponding corruption is
// planted via find_mutable().
#include "vfs/fsck.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "testers/crash/effect_log.hpp"
#include "testers/crash/replay.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::vfs {
namespace {

using abi::Err;

std::vector<std::byte> bytes(std::size_t n) {
    return std::vector<std::byte>(n, std::byte{0x5a});
}

/// Violations of one code.
std::size_t count(const FsckReport& rep, FsckCode code) {
    std::size_t n = 0;
    for (const auto& v : rep.violations) n += v.code == code;
    return n;
}

/// One line per violation, for failure messages.
std::string describe(const FsckReport& rep) {
    std::string out;
    for (const auto& v : rep.violations) out += v.to_string() + "\n";
    return out;
}

class FsckTest : public ::testing::Test {
  protected:
    Credentials root_ = Credentials::root();
    Credentials user_ = Credentials::user(1000, 1000);
};

TEST_F(FsckTest, FreshFileSystemIsClean) {
    FileSystem fs;
    const auto rep = fsck(fs);
    EXPECT_TRUE(rep.clean()) << describe(rep);
    EXPECT_EQ(rep.inodes_checked, 1u);
}

TEST_F(FsckTest, PopulatedFileSystemIsClean) {
    FileSystem fs;
    const auto d = fs.make_dir(kRootInode, "d", 0755, root_);
    ASSERT_TRUE(d.ok());
    const auto sub = fs.make_dir(d.value(), "sub", 0755, root_);
    ASSERT_TRUE(sub.ok());
    const auto f = fs.create_file(d.value(), "f", 0644, root_);
    ASSERT_TRUE(f.ok());
    const auto data = bytes(10000);
    ASSERT_TRUE(fs.write(f.value(), 0, data).ok());
    ASSERT_TRUE(fs.link(f.value(), kRootInode, "hard", root_).ok());
    ASSERT_TRUE(fs.make_symlink(kRootInode, "s", "/d/f", root_).ok());
    ASSERT_TRUE(fs.rename(d.value(), "f", kRootInode, "moved", root_).ok());
    ASSERT_TRUE(fs.unlink(kRootInode, "hard", root_).ok());
    const auto rep = fsck(fs);
    EXPECT_TRUE(rep.clean()) << describe(rep);
}

TEST_F(FsckTest, QuotaAccountingSurvivesChownAndIsClean) {
    FsConfig cfg;
    cfg.quota_blocks_per_uid = 1000;
    FileSystem fs(cfg);
    ASSERT_TRUE(fs.chmod(kRootInode, 0777, root_).ok());
    const auto f = fs.create_file(kRootInode, "f", 0644, user_);
    ASSERT_TRUE(f.ok());
    const auto data = bytes(3 * cfg.block_size);
    ASSERT_TRUE(fs.write(f.value(), 0, data).ok());
    // chown must transfer the charged blocks to the new owner's ledger
    // entry, or the per-uid sums fsck recomputes will disagree.
    ASSERT_TRUE(fs.chown(f.value(), 2000, 2000, root_).ok());
    const auto rep = fsck(fs);
    EXPECT_TRUE(rep.clean()) << describe(rep);
}

TEST_F(FsckTest, DetectsDanglingDirent) {
    FileSystem fs;
    fs.find_mutable(kRootInode)->dirents["ghost"] = 9999;
    const auto rep = fsck(fs);
    EXPECT_EQ(count(rep, FsckCode::DanglingDirent), 1u) << describe(rep);
}

TEST_F(FsckTest, DetectsLinkCountMismatch) {
    FileSystem fs;
    const auto f = fs.create_file(kRootInode, "f", 0644, root_);
    ASSERT_TRUE(f.ok());
    fs.find_mutable(f.value())->nlink = 5;
    const auto rep = fsck(fs);
    EXPECT_EQ(count(rep, FsckCode::LinkCountMismatch), 1u) << describe(rep);
}

TEST_F(FsckTest, DetectsZeroLinkInode) {
    FileSystem fs;
    const auto f = fs.create_file(kRootInode, "f", 0644, root_);
    ASSERT_TRUE(f.ok());
    fs.find_mutable(f.value())->nlink = 0;
    const auto rep = fsck(fs);
    EXPECT_EQ(count(rep, FsckCode::ZeroLinkInode), 1u) << describe(rep);
}

TEST_F(FsckTest, AnonymousInodeIsOrphanWithoutPinCleanWithPin) {
    FileSystem fs;
    const auto f = fs.create_anonymous(kRootInode, 0600, root_);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(count(fsck(fs), FsckCode::OrphanInode), 1u);
    FsckOptions opts;
    opts.pinned_inodes.push_back(f.value());
    const auto rep = fsck(fs, opts);
    EXPECT_TRUE(rep.clean()) << describe(rep);
}

TEST_F(FsckTest, DetectsStaleFdPin) {
    FileSystem fs;
    FsckOptions opts;
    opts.pinned_inodes.push_back(4242);  // never existed
    const auto rep = fsck(fs, opts);
    EXPECT_EQ(count(rep, FsckCode::StaleFdInode), 1u) << describe(rep);
}

TEST_F(FsckTest, DetectsMultipleDirectoryParents) {
    FileSystem fs;
    const auto d = fs.make_dir(kRootInode, "d", 0755, root_);
    ASSERT_TRUE(d.ok());
    fs.find_mutable(kRootInode)->dirents["alias"] = d.value();
    const auto rep = fsck(fs);
    EXPECT_GE(count(rep, FsckCode::MultipleDirParents), 1u) << describe(rep);
}

TEST_F(FsckTest, DetectsBadDotDot) {
    FileSystem fs;
    const auto a = fs.make_dir(kRootInode, "a", 0755, root_);
    const auto b = fs.make_dir(kRootInode, "b", 0755, root_);
    ASSERT_TRUE(a.ok() && b.ok());
    // a's ".." claims b, but b holds no entry for a.
    fs.find_mutable(a.value())->parent = b.value();
    const auto rep = fsck(fs);
    EXPECT_GE(count(rep, FsckCode::BadDotDot), 1u) << describe(rep);
}

TEST_F(FsckTest, DetectsDirectoryCycle) {
    FileSystem fs;
    const auto a = fs.make_dir(kRootInode, "a", 0755, root_);
    ASSERT_TRUE(a.ok());
    const auto b = fs.make_dir(a.value(), "b", 0755, root_);
    ASSERT_TRUE(b.ok());
    // Close the loop a -> b -> a and detach it from the root: each
    // parent pointer names a live directory that really references the
    // child, so no BadDotDot fires — only the cycle check can see it.
    fs.find_mutable(b.value())->dirents["back"] = a.value();
    fs.find_mutable(a.value())->parent = b.value();
    fs.find_mutable(kRootInode)->dirents.erase("a");
    const auto rep = fsck(fs);
    EXPECT_EQ(count(rep, FsckCode::DirectoryCycle), 2u) << describe(rep);
}

TEST_F(FsckTest, DetectsDataOnNonRegularFile) {
    FileSystem fs;
    const auto s = fs.make_symlink(kRootInode, "s", "/target", root_);
    ASSERT_TRUE(s.ok());
    const auto data = bytes(8);
    fs.find_mutable(s.value())->data.write(
        0, std::span<const std::byte>(data));
    const auto rep = fsck(fs);
    EXPECT_EQ(count(rep, FsckCode::DataOnNonFile), 1u) << describe(rep);
}

TEST_F(FsckTest, SparseAndTruncatedFilesAreNotFlaggedBeyondEof) {
    // FileData itself maintains the extents-within-size invariant
    // (set_size clips straddling extents), so the AllocationBeyondEof
    // check must never false-positive on the shapes that get close to
    // the boundary: sparse tails, shrunk files, and partial last blocks.
    FileSystem fs;
    const auto f = fs.create_file(kRootInode, "f", 0644, root_);
    ASSERT_TRUE(f.ok());
    const auto data = bytes(4096 + 17);  // partial trailing block
    ASSERT_TRUE(fs.write(f.value(), 0, data).ok());
    ASSERT_TRUE(fs.truncate(f.value(), 1 << 20).ok());  // hole at the tail
    ASSERT_TRUE(fs.truncate(f.value(), 100).ok());      // clip mid-extent
    const auto rep = fsck(fs);
    EXPECT_EQ(count(rep, FsckCode::AllocationBeyondEof), 0u)
        << describe(rep);
    EXPECT_TRUE(rep.clean()) << describe(rep);
}

TEST_F(FsckTest, DetectsBlockSumMismatch) {
    FileSystem fs;
    const auto f = fs.create_file(kRootInode, "f", 0644, root_);
    ASSERT_TRUE(f.ok());
    // Bytes written behind the accounting layer's back: per-inode
    // allocations no longer sum to used_blocks().
    const auto data = bytes(8192);
    fs.find_mutable(f.value())->data.write(
        0, std::span<const std::byte>(data));
    const auto rep = fsck(fs);
    EXPECT_EQ(count(rep, FsckCode::BlockSumMismatch), 1u) << describe(rep);
}

TEST_F(FsckTest, DetectsQuotaSumMismatch) {
    FsConfig cfg;
    cfg.quota_blocks_per_uid = 1000;
    FileSystem fs(cfg);
    ASSERT_TRUE(fs.chmod(kRootInode, 0777, root_).ok());
    const auto f = fs.create_file(kRootInode, "f", 0644, user_);
    ASSERT_TRUE(f.ok());
    const auto data = bytes(2 * cfg.block_size);
    ASSERT_TRUE(fs.write(f.value(), 0, data).ok());
    ASSERT_TRUE(fsck(fs).clean());
    // Flip the owner without going through chown: the ledger still
    // charges uid 1000 while the recomputed sums charge uid 2000.
    fs.find_mutable(f.value())->uid = 2000;
    const auto rep = fsck(fs);
    EXPECT_GE(count(rep, FsckCode::QuotaSumMismatch), 1u) << describe(rep);
}

TEST_F(FsckTest, CrashRecoveredTmpfileIsExcusedOnlyByItsFdPin) {
    // Crash-recovered states carry live O_TMPFILE inodes: the replayer
    // reports them as pinned, and fsck must excuse exactly those — the
    // same inode without its pin is still an orphan.
    using testers::crash::CrashPoint;
    using testers::crash::CrashReplayer;
    using testers::crash::EffectLog;

    const FsConfig cfg{};
    EffectLog log;
    {
        FileSystem fs(cfg);
        fs.set_effect_observer(&log);
        const auto anon = fs.create_anonymous(kRootInode, 0600, root_);
        ASSERT_TRUE(anon.ok());
        const auto data = bytes(4096);
        ASSERT_TRUE(fs.write(anon.value(), 0, data).ok());
        fs.sync_inode(anon.value(), BarrierKind::Fsync);
    }
    CrashReplayer replayer(log, cfg, [](FileSystem&) {});
    CrashPoint full;
    full.prefix = log.effects().size();
    const auto rec = replayer.replay(full);
    ASSERT_EQ(rec.pinned.size(), 1u);

    EXPECT_GE(count(fsck(*rec.fs), FsckCode::OrphanInode), 1u);
    FsckOptions opts;
    opts.pinned_inodes = rec.pinned;
    const auto rep = fsck(*rec.fs, opts);
    EXPECT_TRUE(rep.clean()) << describe(rep);
}

TEST_F(FsckTest, QuotaLedgersConsistentInEveryCrashRecoveredState) {
    // Replayed effects re-run the quota accounting (create as the
    // recorded owner, chown transfers ledgers); every enumerated crash
    // state must satisfy the per-uid sums, or recovery itself would be
    // manufacturing quota corruption.
    using testers::crash::CrashPlanConfig;
    using testers::crash::CrashReplayer;
    using testers::crash::EffectLog;

    FsConfig cfg;
    cfg.quota_blocks_per_uid = 1000;
    const auto base = [](FileSystem& fs) {
        ASSERT_TRUE(fs.chmod(kRootInode, 0777, Credentials::root()).ok());
    };
    EffectLog log;
    {
        FileSystem fs(cfg);
        base(fs);
        fs.set_effect_observer(&log);
        const auto f = fs.create_file(kRootInode, "f", 0644, user_);
        ASSERT_TRUE(f.ok());
        const auto data = bytes(3 * cfg.block_size);
        ASSERT_TRUE(fs.write(f.value(), 0, data).ok());
        fs.sync_inode(f.value(), BarrierKind::Fsync);
        ASSERT_TRUE(fs.chown(f.value(), 2000, 2000, root_).ok());
        const auto more = bytes(2 * cfg.block_size);
        ASSERT_TRUE(fs.write(f.value(), 4 * cfg.block_size, more).ok());
        fs.sync_all();
    }
    CrashReplayer replayer(log, cfg, base);
    for (const auto& point : replayer.plan(CrashPlanConfig{})) {
        const auto rec = replayer.replay(point);
        const auto rep = fsck(*rec.fs);
        EXPECT_EQ(count(rep, FsckCode::QuotaSumMismatch), 0u)
            << point.id() << ": " << describe(rep);
        EXPECT_EQ(count(rep, FsckCode::BlockSumMismatch), 0u)
            << point.id() << ": " << describe(rep);
    }
}

}  // namespace
}  // namespace iocov::vfs
