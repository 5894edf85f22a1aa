// FileSystem data-path semantics: read/write/truncate, capacity,
// quota, permissions, metadata, xattrs, fault injection.
#include <gtest/gtest.h>

#include "abi/xattr.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::vfs {
namespace {

using abi::Err;

class FsIoTest : public ::testing::Test {
  protected:
    FsIoTest() : fs_(config()) {
        file_ = fs_.create_file(kRootInode, "f", 0644, root_).value();
    }

    static FsConfig config() {
        FsConfig cfg;
        cfg.capacity_blocks = 16;  // 64 KiB
        cfg.max_file_size = 1 << 20;
        cfg.quota_blocks_per_uid = 8;
        cfg.inode_xattr_capacity = 256;
        return cfg;
    }

    FileSystem fs_;
    Credentials root_ = Credentials::root();
    Credentials user_ = Credentials::user(1000, 1000);
    InodeId file_ = kInvalidInode;
};

TEST_F(FsIoTest, WriteReadRoundTrip) {
    const std::vector<std::byte> data{std::byte{1}, std::byte{2},
                                      std::byte{3}};
    auto w = fs_.write(file_, 0, data);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value(), 3u);
    std::vector<std::byte> out(3);
    auto r = fs_.read(file_, 0, out);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 3u);
    EXPECT_EQ(out, data);
}

TEST_F(FsIoTest, ReadPastEofIsZeroBytes) {
    std::vector<std::byte> out(8);
    auto r = fs_.read(file_, 100, out);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 0u);
}

TEST_F(FsIoTest, WriteBeyondMaxFileSizeIsEfbig) {
    EXPECT_EQ(fs_.write_pattern(file_, (1 << 20) - 1, 2, std::byte{1})
                  .error(),
              Err::EFBIG_);
    EXPECT_EQ(fs_.truncate(file_, (1 << 20) + 1).error(), Err::EFBIG_);
    EXPECT_TRUE(fs_.truncate(file_, 1 << 20).ok());
}

TEST_F(FsIoTest, CapacityExhaustionIsEnospcAndAtomic) {
    // Root is exempt from quota; capacity is 16 blocks.
    auto w = fs_.write_pattern(file_, 0, 16 * 4096, std::byte{1});
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(fs_.write_pattern(file_, 16 * 4096, 1, std::byte{2}).error(),
              Err::ENOSPC_);
    // The failed write must not have changed the file.
    EXPECT_EQ(fs_.find(file_)->data.size(), 16u * 4096);
}

TEST_F(FsIoTest, OverwriteDoesNotDoubleCharge) {
    ASSERT_TRUE(fs_.write_pattern(file_, 0, 16 * 4096, std::byte{1}).ok());
    // Overwriting allocated blocks needs no new space.
    EXPECT_TRUE(fs_.write_pattern(file_, 0, 4096, std::byte{2}).ok());
}

TEST_F(FsIoTest, QuotaAppliesToNonRootOwners) {
    auto mine =
        fs_.create_file(kRootInode, "mine", 0644, root_).value();
    ASSERT_TRUE(fs_.chown(mine, 1000, 1000, root_).ok());
    ASSERT_TRUE(
        fs_.write_pattern(mine, 0, 8 * 4096, std::byte{1}).ok());
    EXPECT_EQ(fs_.write_pattern(mine, 8 * 4096, 4096, std::byte{1}).error(),
              Err::EDQUOT_);
    // Freeing space (truncate) releases quota.
    ASSERT_TRUE(fs_.truncate(mine, 0).ok());
    EXPECT_TRUE(fs_.write_pattern(mine, 0, 4096, std::byte{1}).ok());
}

TEST_F(FsIoTest, SparseFilesChargeOnlyMappedBlocks) {
    ASSERT_TRUE(fs_.truncate(file_, 1 << 20).ok());  // sparse growth
    const auto usage = fs_.usage();
    ASSERT_TRUE(fs_.write_pattern(file_, 512 * 1024, 4096, std::byte{1})
                    .ok());
    EXPECT_EQ(fs_.usage().used_blocks, usage.used_blocks + 1);
}

TEST_F(FsIoTest, WritesOnReadOnlyFsAreErofs) {
    fs_.set_read_only(true);
    EXPECT_EQ(fs_.write_pattern(file_, 0, 1, std::byte{1}).error(),
              Err::EROFS_);
    EXPECT_EQ(fs_.truncate(file_, 0).error(), Err::EROFS_);
    EXPECT_EQ(fs_.chmod(file_, 0600, root_).error(), Err::EROFS_);
    fs_.set_read_only(false);
    EXPECT_TRUE(fs_.write_pattern(file_, 0, 1, std::byte{1}).ok());
}

TEST_F(FsIoTest, StatReportsSizeBlocksAndTimes) {
    fs_.write_pattern(file_, 0, 5000, std::byte{1});
    auto st = fs_.stat(file_);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().size, 5000u);
    EXPECT_EQ(st.value().blocks, 2u * 8);  // 2 fs blocks in 512B units
    EXPECT_EQ(st.value().nlink, 1u);
    EXPECT_GT(st.value().times.mtime, 0u);
}

TEST_F(FsIoTest, ChmodOwnershipRules) {
    EXPECT_EQ(fs_.chmod(file_, 0600, user_).error(), Err::EPERM_);
    EXPECT_TRUE(fs_.chmod(file_, 0600, root_).ok());
    EXPECT_EQ(fs_.find(file_)->perms(), 0600u);
    // Owner may chmod own file.
    auto mine = fs_.create_file(kRootInode, "mine", 0644, root_).value();
    ASSERT_TRUE(fs_.chown(mine, 1000, 1000, root_).ok());
    EXPECT_TRUE(fs_.chmod(mine, 0711, user_).ok());
}

TEST_F(FsIoTest, ChmodClearsSgidForNonGroupMembers) {
    auto mine = fs_.create_file(kRootInode, "mine", 0644, root_).value();
    ASSERT_TRUE(fs_.chown(mine, 1000, 5, root_).ok());
    // Owner whose gid differs from the file's group loses setgid.
    Credentials owner_other_group{1000, 7};
    ASSERT_TRUE(fs_.chmod(mine, 02755, owner_other_group).ok());
    EXPECT_EQ(fs_.find(mine)->perms() & abi::S_ISGID, 0u);
}

TEST_F(FsIoTest, ChownRules) {
    EXPECT_EQ(fs_.chown(file_, 1000, 1000, user_).error(), Err::EPERM_);
    EXPECT_TRUE(fs_.chown(file_, 1000, 1000, root_).ok());
    EXPECT_EQ(fs_.find(file_)->uid, 1000u);
    // Owner can change gid to their own gid only.
    EXPECT_TRUE(fs_.chown(file_, 1000, 1000, user_).ok());
    EXPECT_EQ(fs_.chown(file_, 1000, 99, user_).error(), Err::EPERM_);
}

TEST_F(FsIoTest, ChownClearsSetIdBits) {
    fs_.chmod(file_, 06755, root_);
    ASSERT_TRUE(fs_.chown(file_, 1000, 1000, root_).ok());
    EXPECT_EQ(fs_.find(file_)->perms() & (abi::S_ISUID | abi::S_ISGID), 0u);
}

TEST_F(FsIoTest, AccessCheckMatrix) {
    auto mine = fs_.create_file(kRootInode, "mine", 0640, root_).value();
    ASSERT_TRUE(fs_.chown(mine, 1000, 100, root_).ok());
    // Owner: rw-
    EXPECT_TRUE(fs_.access_check(mine, 6, {1000, 100}).ok());
    EXPECT_FALSE(fs_.access_check(mine, 1, {1000, 100}).ok());
    // Group: r--
    EXPECT_TRUE(fs_.access_check(mine, 4, {2000, 100}).ok());
    EXPECT_FALSE(fs_.access_check(mine, 2, {2000, 100}).ok());
    // Other: ---
    EXPECT_FALSE(fs_.access_check(mine, 4, {3000, 300}).ok());
    // Root: rw always; x only with some x bit.
    EXPECT_TRUE(fs_.access_check(mine, 6, root_).ok());
    EXPECT_FALSE(fs_.access_check(mine, 1, root_).ok());
    fs_.chmod(mine, 0100, {1000, 100});
    EXPECT_TRUE(fs_.access_check(mine, 1, root_).ok());
}

TEST_F(FsIoTest, XattrSetGetListRemove) {
    const std::vector<std::byte> v{std::byte{7}, std::byte{8}};
    ASSERT_TRUE(fs_.set_xattr(file_, "user.a", v, 0, root_).ok());
    auto got = fs_.get_xattr(file_, "user.a");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
    auto names = fs_.list_xattr(file_);
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(names.value(), std::vector<std::string>{"user.a"});
    EXPECT_TRUE(fs_.remove_xattr(file_, "user.a", root_).ok());
    EXPECT_EQ(fs_.get_xattr(file_, "user.a").error(), Err::ENODATA_);
    EXPECT_EQ(fs_.remove_xattr(file_, "user.a", root_).error(),
              Err::ENODATA_);
}

TEST_F(FsIoTest, XattrCreateReplaceFlags) {
    const std::vector<std::byte> v{std::byte{1}};
    EXPECT_EQ(
        fs_.set_xattr(file_, "user.a", v, abi::XATTR_REPLACE_, root_)
            .error(),
        Err::ENODATA_);
    ASSERT_TRUE(
        fs_.set_xattr(file_, "user.a", v, abi::XATTR_CREATE_, root_).ok());
    EXPECT_EQ(
        fs_.set_xattr(file_, "user.a", v, abi::XATTR_CREATE_, root_)
            .error(),
        Err::EEXIST_);
    EXPECT_TRUE(
        fs_.set_xattr(file_, "user.a", v, abi::XATTR_REPLACE_, root_).ok());
}

TEST_F(FsIoTest, XattrInInodeSpaceExhaustionIsEnospc) {
    // Capacity 256 bytes; each entry costs name + value + 16 overhead.
    std::vector<std::byte> big(200, std::byte{1});
    ASSERT_TRUE(fs_.set_xattr(file_, "user.big", big, 0, root_).ok());
    std::vector<std::byte> more(64, std::byte{2});
    EXPECT_EQ(fs_.set_xattr(file_, "user.more", more, 0, root_).error(),
              Err::ENOSPC_);
    // Replacing the big attr with a smaller one frees space.
    std::vector<std::byte> small(8, std::byte{3});
    ASSERT_TRUE(fs_.set_xattr(file_, "user.big", small, 0, root_).ok());
    EXPECT_TRUE(fs_.set_xattr(file_, "user.more", more, 0, root_).ok());
}

TEST_F(FsIoTest, XattrOwnershipRule) {
    const std::vector<std::byte> v{std::byte{1}};
    EXPECT_EQ(fs_.set_xattr(file_, "user.a", v, 0, user_).error(),
              Err::EPERM_);
}

TEST_F(FsIoTest, FaultInjectionOneShotAndSkip) {
    FaultInjector inj;
    inj.arm("write", Err::EIO_);
    EXPECT_EQ(inj.check("read"), std::nullopt);
    EXPECT_EQ(inj.check("write"), Err::EIO_);
    EXPECT_EQ(inj.check("write"), std::nullopt);  // one-shot consumed

    inj.arm("open", Err::EINTR_, /*skip=*/2);
    EXPECT_EQ(inj.check("open"), std::nullopt);
    EXPECT_EQ(inj.check("open"), std::nullopt);
    EXPECT_EQ(inj.check("open"), Err::EINTR_);
    EXPECT_TRUE(inj.empty());
}

TEST_F(FsIoTest, HooksObserveProbesAndInjectFaults) {
    struct Hooks final : VfsHooks {
        int probes = 0;
        bool fire = false;
        void probe(std::string_view) override { ++probes; }
        std::optional<abi::Err> inject(std::string_view site) override {
            if (fire && site == "ext4_file_write_iter") return Err::EIO_;
            return std::nullopt;
        }
    } hooks;
    fs_.set_hooks(&hooks);
    ASSERT_TRUE(fs_.write_pattern(file_, 0, 16, std::byte{1}).ok());
    EXPECT_GT(hooks.probes, 0);
    hooks.fire = true;
    EXPECT_EQ(fs_.write_pattern(file_, 0, 16, std::byte{1}).error(),
              Err::EIO_);
    fs_.set_hooks(nullptr);
    EXPECT_TRUE(fs_.write_pattern(file_, 0, 16, std::byte{1}).ok());
}

}  // namespace
}  // namespace iocov::vfs
