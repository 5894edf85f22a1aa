// FileSystem namespace semantics: creation, lookup, links, removal,
// rename, and the POSIX error behaviour IOCov's output coverage needs.
#include "vfs/filesystem.hpp"

#include <gtest/gtest.h>

#include "abi/limits.hpp"

namespace iocov::vfs {
namespace {

using abi::Err;

class FileSystemTest : public ::testing::Test {
  protected:
    FsConfig small_config() {
        FsConfig cfg;
        cfg.capacity_blocks = 64;       // 256 KiB
        cfg.max_inodes = 32;
        cfg.max_links = 8;
        return cfg;
    }

    FileSystem fs_;
    Credentials root_ = Credentials::root();
    Credentials user_ = Credentials::user(1000, 1000);
};

TEST_F(FileSystemTest, RootExists) {
    const Inode* root = fs_.find(kRootInode);
    ASSERT_NE(root, nullptr);
    EXPECT_TRUE(root->is_dir());
    EXPECT_EQ(root->nlink, 2u);
}

TEST_F(FileSystemTest, CreateAndResolveFile) {
    auto ino = fs_.create_file(kRootInode, "f", 0644, root_);
    ASSERT_TRUE(ino.ok());
    auto resolved = fs_.resolve("/f", root_);
    ASSERT_TRUE(resolved.ok());
    EXPECT_EQ(resolved.value(), ino.value());
}

TEST_F(FileSystemTest, ResolveErrors) {
    EXPECT_EQ(fs_.resolve("", root_).error(), Err::ENOENT_);
    EXPECT_EQ(fs_.resolve("/missing", root_).error(), Err::ENOENT_);
    fs_.create_file(kRootInode, "f", 0644, root_);
    EXPECT_EQ(fs_.resolve("/f/below", root_).error(), Err::ENOTDIR_);
    EXPECT_EQ(fs_.resolve("/f/", root_).error(), Err::ENOTDIR_);
    const std::string long_name(abi::NAME_MAX_ + 1, 'x');
    EXPECT_EQ(fs_.resolve("/" + long_name, root_).error(),
              Err::ENAMETOOLONG_);
    const std::string long_path(abi::PATH_MAX_ + 10, 'p');
    EXPECT_EQ(fs_.resolve("/" + long_path, root_).error(),
              Err::ENAMETOOLONG_);
}

TEST_F(FileSystemTest, DotAndDotDotResolution) {
    auto d1 = fs_.make_dir(kRootInode, "d1", 0755, root_).value();
    auto d2 = fs_.make_dir(d1, "d2", 0755, root_).value();
    EXPECT_EQ(fs_.resolve("/d1/d2/..", root_).value(), d1);
    EXPECT_EQ(fs_.resolve("/d1/./d2", root_).value(), d2);
    // ".." above the root stays at the root, as POSIX requires.
    EXPECT_EQ(fs_.resolve("/../../d1", root_).value(), d1);
}

TEST_F(FileSystemTest, RelativeResolutionFromBase) {
    auto d1 = fs_.make_dir(kRootInode, "d1", 0755, root_).value();
    auto f = fs_.create_file(d1, "f", 0644, root_).value();
    ResolveOpts opts;
    opts.base = d1;
    EXPECT_EQ(fs_.resolve("f", root_, opts).value(), f);
}

TEST_F(FileSystemTest, SymlinkFollowedByDefault) {
    auto f = fs_.create_file(kRootInode, "target", 0644, root_).value();
    fs_.make_symlink(kRootInode, "link", "/target", root_);
    EXPECT_EQ(fs_.resolve("/link", root_).value(), f);
    // With follow_final=false the symlink inode itself comes back.
    ResolveOpts nofollow;
    nofollow.follow_final = false;
    auto link = fs_.resolve("/link", root_, nofollow);
    ASSERT_TRUE(link.ok());
    EXPECT_TRUE(fs_.find(link.value())->is_lnk());
}

TEST_F(FileSystemTest, RelativeSymlinkResolvesAgainstItsDirectory) {
    auto d = fs_.make_dir(kRootInode, "d", 0755, root_).value();
    auto f = fs_.create_file(d, "target", 0644, root_).value();
    fs_.make_symlink(d, "link", "target", root_);
    EXPECT_EQ(fs_.resolve("/d/link", root_).value(), f);
}

TEST_F(FileSystemTest, SymlinkLoopIsEloop) {
    fs_.make_symlink(kRootInode, "a", "/b", root_);
    fs_.make_symlink(kRootInode, "b", "/a", root_);
    EXPECT_EQ(fs_.resolve("/a", root_).error(), Err::ELOOP_);
}

TEST_F(FileSystemTest, IntermediateSymlinkAlwaysFollowed) {
    auto d = fs_.make_dir(kRootInode, "real", 0755, root_).value();
    auto f = fs_.create_file(d, "f", 0644, root_).value();
    fs_.make_symlink(kRootInode, "alias", "/real", root_);
    ResolveOpts nofollow;
    nofollow.follow_final = false;  // applies to the final component only
    EXPECT_EQ(fs_.resolve("/alias/f", root_, nofollow).value(), f);
}

TEST_F(FileSystemTest, ResolveNoSymlinksRejectsAnySymlink) {
    fs_.make_dir(kRootInode, "d", 0755, root_);
    fs_.make_symlink(kRootInode, "alias", "/d", root_);
    ResolveOpts opts;
    opts.no_symlinks = true;
    EXPECT_EQ(fs_.resolve("/alias", root_, opts).error(), Err::ELOOP_);
}

TEST_F(FileSystemTest, ResolveBeneathRejectsEscapes) {
    auto d = fs_.make_dir(kRootInode, "jail", 0755, root_).value();
    fs_.make_dir(d, "sub", 0755, root_);
    ResolveOpts opts;
    opts.base = d;
    opts.beneath = true;
    EXPECT_TRUE(fs_.resolve("sub", root_, opts).ok());
    EXPECT_TRUE(fs_.resolve("sub/..", root_, opts).ok());
    EXPECT_EQ(fs_.resolve("..", root_, opts).error(), Err::EXDEV_);
    EXPECT_EQ(fs_.resolve("/etc", root_, opts).error(), Err::EXDEV_);
    EXPECT_EQ(fs_.resolve("sub/../..", root_, opts).error(), Err::EXDEV_);
}

TEST_F(FileSystemTest, ResolveNoXdevStopsAtMountpoints) {
    auto d = fs_.make_dir(kRootInode, "mnt2", 0755, root_).value();
    fs_.find_mutable(d)->mountpoint = true;
    fs_.create_file(d, "f", 0644, root_);
    ResolveOpts opts;
    opts.no_xdev = true;
    EXPECT_EQ(fs_.resolve("/mnt2/f", root_, opts).error(), Err::EXDEV_);
    EXPECT_TRUE(fs_.resolve("/mnt2/f", root_).ok());
}

TEST_F(FileSystemTest, CreateErrors) {
    fs_.create_file(kRootInode, "f", 0644, root_);
    EXPECT_EQ(fs_.create_file(kRootInode, "f", 0644, root_).error(),
              Err::EEXIST_);
    EXPECT_EQ(fs_.create_file(kRootInode, "", 0644, root_).error(),
              Err::EEXIST_);
    EXPECT_EQ(fs_.create_file(kRootInode, ".", 0644, root_).error(),
              Err::EEXIST_);
    const std::string long_name(abi::NAME_MAX_ + 1, 'y');
    EXPECT_EQ(fs_.create_file(kRootInode, long_name, 0644, root_).error(),
              Err::ENAMETOOLONG_);
    auto f = fs_.resolve("/f", root_).value();
    EXPECT_EQ(fs_.create_file(f, "child", 0644, root_).error(),
              Err::ENOTDIR_);
}

TEST_F(FileSystemTest, CreateOnReadOnlyFsIsErofs) {
    fs_.set_read_only(true);
    EXPECT_EQ(fs_.create_file(kRootInode, "f", 0644, root_).error(),
              Err::EROFS_);
    EXPECT_EQ(fs_.make_dir(kRootInode, "d", 0755, root_).error(),
              Err::EROFS_);
}

TEST_F(FileSystemTest, InodeExhaustionIsEnospc) {
    FileSystem fs(small_config());
    for (int i = 0; i < 31; ++i) {  // root already uses one of 32
        auto r = fs.create_file(kRootInode,
                                std::string("f") + std::to_string(i), 0644,
                                root_);
        ASSERT_TRUE(r.ok()) << i;
    }
    EXPECT_EQ(fs.create_file(kRootInode, "straw", 0644, root_).error(),
              Err::ENOSPC_);
}

TEST_F(FileSystemTest, MkdirMaintainsLinkCounts) {
    auto d = fs_.make_dir(kRootInode, "d", 0755, root_).value();
    EXPECT_EQ(fs_.find(d)->nlink, 2u);
    EXPECT_EQ(fs_.find(kRootInode)->nlink, 3u);  // root gained d's ".."
    fs_.make_dir(d, "sub", 0755, root_);
    EXPECT_EQ(fs_.find(d)->nlink, 3u);
}

TEST_F(FileSystemTest, MaxLinksOnDirIsEmlink) {
    FileSystem fs(small_config());  // max_links = 8
    auto d = fs.make_dir(kRootInode, "d", 0755, root_).value();
    for (unsigned i = 0; i + 2 < 8; ++i)
        ASSERT_TRUE(
            fs.make_dir(d, std::string("s") + std::to_string(i), 0755, root_)
                .ok());
    EXPECT_EQ(fs.make_dir(d, "one-too-many", 0755, root_).error(),
              Err::EMLINK_);
}

TEST_F(FileSystemTest, HardLinks) {
    auto f = fs_.create_file(kRootInode, "f", 0644, root_).value();
    ASSERT_TRUE(fs_.link(f, kRootInode, "hard", root_).ok());
    EXPECT_EQ(fs_.find(f)->nlink, 2u);
    EXPECT_EQ(fs_.resolve("/hard", root_).value(), f);
    // Hard links to directories are forbidden.
    auto d = fs_.make_dir(kRootInode, "d", 0755, root_).value();
    EXPECT_EQ(fs_.link(d, kRootInode, "dlink", root_).error(), Err::EPERM_);
}

TEST_F(FileSystemTest, HardLinkAtMaxLinksIsEmlink) {
    FileSystem fs(small_config());
    auto f = fs.create_file(kRootInode, "f", 0644, root_).value();
    for (unsigned i = 1; i < 8; ++i)
        ASSERT_TRUE(fs.link(f, kRootInode,
                            std::string("l") + std::to_string(i), root_)
                        .ok());
    EXPECT_EQ(fs.link(f, kRootInode, "l8", root_).error(), Err::EMLINK_);
}

TEST_F(FileSystemTest, UnlinkFreesInodeAtZeroLinks) {
    auto f = fs_.create_file(kRootInode, "f", 0644, root_).value();
    fs_.link(f, kRootInode, "hard", root_);
    ASSERT_TRUE(fs_.unlink(kRootInode, "f", root_).ok());
    EXPECT_NE(fs_.find(f), nullptr);  // still alive via "hard"
    ASSERT_TRUE(fs_.unlink(kRootInode, "hard", root_).ok());
    EXPECT_EQ(fs_.find(f), nullptr);
}

TEST_F(FileSystemTest, UnlinkErrors) {
    EXPECT_EQ(fs_.unlink(kRootInode, "missing", root_).error(),
              Err::ENOENT_);
    fs_.make_dir(kRootInode, "d", 0755, root_);
    EXPECT_EQ(fs_.unlink(kRootInode, "d", root_).error(), Err::EISDIR_);
}

TEST_F(FileSystemTest, StickyDirectoryRestrictsUnlink) {
    auto d = fs_.make_dir(kRootInode, "tmp", 0777 | abi::S_ISVTX, root_)
                 .value();
    fs_.create_file(d, "rootfile", 0666, root_);
    // Another user cannot remove root's file from the sticky dir.
    EXPECT_EQ(fs_.unlink(d, "rootfile", user_).error(), Err::EPERM_);
    // But root (and the file's owner) can.
    EXPECT_TRUE(fs_.unlink(d, "rootfile", root_).ok());
}

TEST_F(FileSystemTest, RemoveDirSemantics) {
    auto d = fs_.make_dir(kRootInode, "d", 0755, root_).value();
    fs_.create_file(d, "f", 0644, root_);
    EXPECT_EQ(fs_.remove_dir(kRootInode, "d", root_).error(),
              Err::ENOTEMPTY_);
    fs_.unlink(d, "f", root_);
    EXPECT_TRUE(fs_.remove_dir(kRootInode, "d", root_).ok());
    EXPECT_EQ(fs_.find(d), nullptr);
    EXPECT_EQ(fs_.find(kRootInode)->nlink, 2u);  // ".." link returned
}

TEST_F(FileSystemTest, RemoveDirErrors) {
    fs_.create_file(kRootInode, "f", 0644, root_);
    EXPECT_EQ(fs_.remove_dir(kRootInode, "f", root_).error(),
              Err::ENOTDIR_);
    EXPECT_EQ(fs_.remove_dir(kRootInode, ".", root_).error(), Err::EINVAL_);
    EXPECT_EQ(fs_.remove_dir(kRootInode, "..", root_).error(),
              Err::ENOTEMPTY_);
    auto d = fs_.make_dir(kRootInode, "m", 0755, root_).value();
    fs_.find_mutable(d)->mountpoint = true;
    EXPECT_EQ(fs_.remove_dir(kRootInode, "m", root_).error(), Err::EBUSY_);
}

TEST_F(FileSystemTest, RenameBasic) {
    auto f = fs_.create_file(kRootInode, "old", 0644, root_).value();
    auto d = fs_.make_dir(kRootInode, "d", 0755, root_).value();
    ASSERT_TRUE(fs_.rename(kRootInode, "old", d, "new", root_).ok());
    EXPECT_EQ(fs_.resolve("/d/new", root_).value(), f);
    EXPECT_EQ(fs_.resolve("/old", root_).error(), Err::ENOENT_);
}

TEST_F(FileSystemTest, RenameReplacesExistingFile) {
    auto f = fs_.create_file(kRootInode, "src", 0644, root_).value();
    auto victim = fs_.create_file(kRootInode, "dst", 0644, root_).value();
    ASSERT_TRUE(fs_.rename(kRootInode, "src", kRootInode, "dst", root_)
                    .ok());
    EXPECT_EQ(fs_.resolve("/dst", root_).value(), f);
    EXPECT_EQ(fs_.find(victim), nullptr);
}

TEST_F(FileSystemTest, RenameDirUpdatesParentLinkCounts) {
    auto d = fs_.make_dir(kRootInode, "d", 0755, root_).value();
    auto e = fs_.make_dir(kRootInode, "e", 0755, root_).value();
    const auto root_links = fs_.find(kRootInode)->nlink;
    ASSERT_TRUE(fs_.rename(kRootInode, "d", e, "d2", root_).ok());
    EXPECT_EQ(fs_.find(kRootInode)->nlink, root_links - 1);
    EXPECT_EQ(fs_.find(e)->nlink, 3u);
    EXPECT_EQ(fs_.find(d)->parent, e);
}

TEST_F(FileSystemTest, RenameIntoOwnSubtreeIsEinval) {
    auto d = fs_.make_dir(kRootInode, "d", 0755, root_).value();
    auto sub = fs_.make_dir(d, "sub", 0755, root_).value();
    EXPECT_EQ(fs_.rename(kRootInode, "d", sub, "oops", root_).error(),
              Err::EINVAL_);
}

TEST_F(FileSystemTest, RenameDirOverNonEmptyDirIsEnotempty) {
    fs_.make_dir(kRootInode, "src", 0755, root_);
    auto dst = fs_.make_dir(kRootInode, "dst", 0755, root_).value();
    fs_.create_file(dst, "occupant", 0644, root_);
    EXPECT_EQ(
        fs_.rename(kRootInode, "src", kRootInode, "dst", root_).error(),
        Err::ENOTEMPTY_);
}

TEST_F(FileSystemTest, RenameFileOverDirIsEisdir) {
    fs_.create_file(kRootInode, "f", 0644, root_);
    fs_.make_dir(kRootInode, "d", 0755, root_);
    EXPECT_EQ(fs_.rename(kRootInode, "f", kRootInode, "d", root_).error(),
              Err::EISDIR_);
}

TEST_F(FileSystemTest, RenameToSameInodeIsNoOp) {
    auto f = fs_.create_file(kRootInode, "f", 0644, root_).value();
    fs_.link(f, kRootInode, "alias", root_);
    ASSERT_TRUE(
        fs_.rename(kRootInode, "f", kRootInode, "alias", root_).ok());
    // POSIX: both names must still exist.
    EXPECT_TRUE(fs_.resolve("/f", root_).ok());
    EXPECT_TRUE(fs_.resolve("/alias", root_).ok());
}

TEST_F(FileSystemTest, ResolveParentSplitsFinalComponent) {
    auto d = fs_.make_dir(kRootInode, "d", 0755, root_).value();
    auto pn = fs_.resolve_parent("/d/newfile", root_);
    ASSERT_TRUE(pn.ok());
    EXPECT_EQ(pn.value().parent, d);
    EXPECT_EQ(pn.value().name, "newfile");
    EXPECT_FALSE(pn.value().trailing_slash);

    auto slash = fs_.resolve_parent("/d/sub/", root_);
    ASSERT_TRUE(slash.ok());
    EXPECT_TRUE(slash.value().trailing_slash);

    auto root_path = fs_.resolve_parent("/", root_);
    ASSERT_TRUE(root_path.ok());
    EXPECT_TRUE(root_path.value().name.empty());
}

TEST_F(FileSystemTest, AnonymousInodesLiveUntilReleased) {
    auto ino = fs_.create_anonymous(kRootInode, 0600, root_);
    ASSERT_TRUE(ino.ok());
    EXPECT_NE(fs_.find(ino.value()), nullptr);
    // Not reachable by name.
    EXPECT_EQ(fs_.find(kRootInode)->dirents.size(), 0u);
    fs_.release_anonymous(ino.value());
    EXPECT_EQ(fs_.find(ino.value()), nullptr);
}

TEST_F(FileSystemTest, UsageTracksInodesAndBlocks) {
    const auto before = fs_.usage();
    auto f = fs_.create_file(kRootInode, "f", 0644, root_).value();
    fs_.write_pattern(f, 0, 8192, std::byte{1});
    const auto after = fs_.usage();
    EXPECT_EQ(after.used_inodes, before.used_inodes + 1);
    EXPECT_EQ(after.used_blocks, before.used_blocks + 2);
    fs_.unlink(kRootInode, "f", root_);
    EXPECT_EQ(fs_.usage().used_blocks, before.used_blocks);
}

}  // namespace
}  // namespace iocov::vfs
