// open/openat/creat/openat2 semantics, including every error path the
// paper's Fig. 4 output coverage enumerates.
#include <gtest/gtest.h>

#include "abi/fcntl.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::syscall {
namespace {

using namespace iocov::abi;  // NOLINT
using testers::Fixtures;

class OpenTest : public ::testing::Test {
  protected:
    OpenTest()
        : fs_(config()),
          fx_(testers::prepare_environment(fs_, "/mnt/test")),
          kernel_(fs_, &buffer_),
          root_(kernel_.make_process(1, vfs::Credentials::root())),
          user_(kernel_.make_process(2, vfs::Credentials::user(1000, 1000))) {
    }

    static vfs::FsConfig config() {
        vfs::FsConfig cfg;
        cfg.capacity_blocks = 1 << 16;
        return cfg;
    }

    std::string scratch(const std::string& name) {
        return fx_.scratch + "/" + name;
    }

    vfs::FileSystem fs_;
    Fixtures fx_;
    trace::TraceBuffer buffer_;
    Kernel kernel_;
    Process root_;
    Process user_;
};

TEST_F(OpenTest, CreateAndReuseFd) {
    const auto fd = user_.sys_open(scratch("f").c_str(),
                                   O_CREAT | O_WRONLY, 0644);
    EXPECT_GE(fd, 3);
    EXPECT_EQ(user_.sys_close(static_cast<int>(fd)), 0);
    // Lowest free fd is reused.
    EXPECT_EQ(user_.sys_open(scratch("f").c_str(), O_RDONLY), fd);
}

TEST_F(OpenTest, FdsAllocateLowestFree) {
    const auto a = user_.sys_open(fx_.plain_file.c_str(), O_RDONLY);
    const auto b = user_.sys_open(fx_.plain_file.c_str(), O_RDONLY);
    const auto c = user_.sys_open(fx_.plain_file.c_str(), O_RDONLY);
    EXPECT_EQ(b, a + 1);
    EXPECT_EQ(c, a + 2);
    user_.sys_close(static_cast<int>(b));
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(), O_RDONLY), b);
}

TEST_F(OpenTest, EnoentOnMissingPath) {
    EXPECT_EQ(user_.sys_open(scratch("missing").c_str(), O_RDONLY),
              fail(Err::ENOENT_));
}

TEST_F(OpenTest, EexistWithExcl) {
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(),
                             O_CREAT | O_EXCL | O_WRONLY, 0644),
              fail(Err::EEXIST_));
}

TEST_F(OpenTest, ExclRefusesDanglingSymlink) {
    // POSIX: O_CREAT|O_EXCL fails with EEXIST even when the name is a
    // dangling symlink.
    EXPECT_EQ(user_.sys_open(fx_.dangling_link.c_str(),
                             O_CREAT | O_EXCL | O_WRONLY, 0644),
              fail(Err::EEXIST_));
}

TEST_F(OpenTest, EisdirOnWritingDirectory) {
    EXPECT_EQ(user_.sys_open(fx_.scratch.c_str(), O_WRONLY),
              fail(Err::EISDIR_));
    EXPECT_EQ(user_.sys_open(fx_.scratch.c_str(), O_RDWR),
              fail(Err::EISDIR_));
    EXPECT_GE(user_.sys_open(fx_.scratch.c_str(), O_RDONLY), 0);
}

TEST_F(OpenTest, EnotdirVariants) {
    EXPECT_EQ(user_.sys_open((fx_.plain_file + "/x").c_str(), O_RDONLY),
              fail(Err::ENOTDIR_));
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(),
                             O_RDONLY | O_DIRECTORY),
              fail(Err::ENOTDIR_));
}

TEST_F(OpenTest, EaccesOnPermissionDenied) {
    EXPECT_EQ(user_.sys_open(fx_.noperm_file.c_str(), O_RDONLY),
              fail(Err::EACCES_));
    // Missing search permission on a path component.
    EXPECT_EQ(user_.sys_open((fx_.noperm_dir + "/inside").c_str(),
                             O_RDONLY),
              fail(Err::EACCES_));
    // Root bypasses both.
    EXPECT_GE(root_.sys_open(fx_.noperm_file.c_str(), O_RDONLY), 0);
}

TEST_F(OpenTest, EloopOnSymlinkLoopAndNofollow) {
    EXPECT_EQ(user_.sys_open(fx_.loop_link.c_str(), O_RDONLY),
              fail(Err::ELOOP_));
    // O_NOFOLLOW on a (healthy) symlink is also ELOOP...
    fs_.make_symlink(fs_.resolve(fx_.scratch,
                                 vfs::Credentials::root()).value(),
                     "ln", fx_.plain_file, vfs::Credentials::root());
    EXPECT_EQ(user_.sys_open(scratch("ln").c_str(),
                             O_RDONLY | O_NOFOLLOW),
              fail(Err::ELOOP_));
    // ...unless O_PATH asks for the link itself.
    EXPECT_GE(user_.sys_open(scratch("ln").c_str(),
                             O_RDONLY | O_NOFOLLOW | O_PATH),
              0);
}

TEST_F(OpenTest, EinvalOnBadAccessMode) {
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(), O_ACCMODE),
              fail(Err::EINVAL_));
}

TEST_F(OpenTest, EnametoolongOnHugeComponent) {
    const std::string path = fx_.scratch + "/" + std::string(300, 'n');
    EXPECT_EQ(user_.sys_open(path.c_str(), O_RDONLY),
              fail(Err::ENAMETOOLONG_));
}

TEST_F(OpenTest, ErofsOnReadOnlyMount) {
    fs_.set_read_only(true);
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(), O_WRONLY),
              fail(Err::EROFS_));
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(),
                             O_RDONLY | O_TRUNC),
              fail(Err::EROFS_));
    EXPECT_EQ(user_.sys_open(scratch("new").c_str(), O_CREAT | O_WRONLY,
                             0644),
              fail(Err::EROFS_));
    // Reading still works.
    EXPECT_GE(user_.sys_open(fx_.plain_file.c_str(), O_RDONLY), 0);
}

TEST_F(OpenTest, DeviceStatesMapToErrnos) {
    EXPECT_EQ(user_.sys_open(fx_.busy_dev.c_str(), O_RDONLY),
              fail(Err::EBUSY_));
    EXPECT_EQ(root_.sys_open(fx_.nodriver_dev.c_str(), O_RDONLY),
              fail(Err::ENODEV_));
    EXPECT_EQ(root_.sys_open(fx_.nounit_dev.c_str(), O_RDONLY),
              fail(Err::ENXIO_));
    // O_PATH bypasses device checks.
    EXPECT_GE(user_.sys_open(fx_.busy_dev.c_str(), O_RDONLY | O_PATH), 0);
}

TEST_F(OpenTest, FifoWriterWithoutReaderIsEnxio) {
    EXPECT_EQ(user_.sys_open(fx_.fifo.c_str(), O_WRONLY | O_NONBLOCK),
              fail(Err::ENXIO_));
}

TEST_F(OpenTest, EtxtbsyOnRunningExecutable) {
    EXPECT_EQ(root_.sys_open(fx_.running_exe.c_str(), O_WRONLY),
              fail(Err::ETXTBSY_));
    EXPECT_GE(root_.sys_open(fx_.running_exe.c_str(), O_RDONLY), 0);
}

TEST_F(OpenTest, EoverflowWithout32BitLargefile) {
    user_.set_large_file_default(false);
    EXPECT_EQ(user_.sys_open(fx_.big_file.c_str(), O_RDONLY),
              fail(Err::EOVERFLOW_));
    EXPECT_GE(user_.sys_open(fx_.big_file.c_str(),
                             O_RDONLY | O_LARGEFILE),
              0);
    user_.set_large_file_default(true);
    EXPECT_GE(user_.sys_open(fx_.big_file.c_str(), O_RDONLY), 0);
}

TEST_F(OpenTest, EpermOnForeignNoatime) {
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(),
                             O_RDONLY | O_NOATIME),
              fail(Err::EPERM_));
    EXPECT_GE(root_.sys_open(fx_.plain_file.c_str(),
                             O_RDONLY | O_NOATIME),
              0);
}

TEST_F(OpenTest, EfaultOnNullPath) {
    EXPECT_EQ(user_.sys_open(nullptr, O_RDONLY), fail(Err::EFAULT_));
}

TEST_F(OpenTest, EmfileAtProcessFdLimit) {
    auto limits = kernel_.limits();
    limits.max_fds_per_process = 2;
    kernel_.set_limits(limits);
    ASSERT_GE(user_.sys_open(fx_.plain_file.c_str(), O_RDONLY), 0);
    ASSERT_GE(user_.sys_open(fx_.plain_file.c_str(), O_RDONLY), 0);
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(), O_RDONLY),
              fail(Err::EMFILE_));
}

TEST_F(OpenTest, EnfileAtSystemFileLimit) {
    auto limits = kernel_.limits();
    limits.max_open_files = 1;
    kernel_.set_limits(limits);
    ASSERT_GE(user_.sys_open(fx_.plain_file.c_str(), O_RDONLY), 0);
    EXPECT_EQ(root_.sys_open(fx_.plain_file.c_str(), O_RDONLY),
              fail(Err::ENFILE_));
}

TEST_F(OpenTest, TruncOnOpenEmptiesFile) {
    auto st = fs_.stat(fs_.resolve(fx_.plain_file,
                                   vfs::Credentials::root()).value());
    ASSERT_GT(st.value().size, 0u);
    const auto fd = root_.sys_open(fx_.plain_file.c_str(),
                                   O_WRONLY | O_TRUNC);
    ASSERT_GE(fd, 0);
    st = fs_.stat(fs_.resolve(fx_.plain_file,
                              vfs::Credentials::root()).value());
    EXPECT_EQ(st.value().size, 0u);
}

TEST_F(OpenTest, CreatIsOpenWithCreatWronlyTrunc) {
    const auto fd = user_.sys_creat(scratch("c").c_str(), 0600);
    ASSERT_GE(fd, 0);
    // Writable, not readable: O_WRONLY.
    EXPECT_EQ(user_.sys_write(static_cast<int>(fd),
                              WriteSrc::pattern(1, std::byte{1})),
              1);
    EXPECT_EQ(user_.sys_read(static_cast<int>(fd), ReadDst::discard(1)),
              fail(Err::EBADF_));
}

TEST_F(OpenTest, UmaskAppliesToCreation) {
    user_.set_umask(027);
    const auto fd = user_.sys_open(scratch("masked").c_str(),
                                   O_CREAT | O_WRONLY, 0777);
    ASSERT_GE(fd, 0);
    const auto ino = fs_.resolve(scratch("masked"), vfs::Credentials::root());
    EXPECT_EQ(fs_.find(ino.value())->perms(), 0750u);
}

TEST_F(OpenTest, OpenatResolvesRelativeToDfd) {
    const auto dfd = user_.sys_open(fx_.scratch.c_str(),
                                    O_RDONLY | O_DIRECTORY);
    ASSERT_GE(dfd, 0);
    const auto fd = user_.sys_openat(static_cast<int>(dfd), "via_dfd",
                                     O_CREAT | O_WRONLY, 0644);
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(fs_.resolve(scratch("via_dfd"),
                            vfs::Credentials::root()).ok());
    // Bad dfd cases.
    EXPECT_EQ(user_.sys_openat(999, "x", O_RDONLY), fail(Err::EBADF_));
    const auto ffd = user_.sys_open(fx_.plain_file.c_str(), O_RDONLY);
    EXPECT_EQ(user_.sys_openat(static_cast<int>(ffd), "x", O_RDONLY),
              fail(Err::ENOTDIR_));
    // Absolute paths ignore the dfd entirely.
    EXPECT_GE(user_.sys_openat(999, fx_.plain_file.c_str(), O_RDONLY), 0);
}

TEST_F(OpenTest, TmpfileCreatesAnonymousInode) {
    const auto inodes_before = fs_.inode_count();
    const auto fd = user_.sys_open(fx_.scratch.c_str(),
                                   O_TMPFILE | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(fs_.inode_count(), inodes_before + 1);
    // Not reachable by name; freed on close.
    EXPECT_EQ(user_.sys_close(static_cast<int>(fd)), 0);
    EXPECT_EQ(fs_.inode_count(), inodes_before);
}

TEST_F(OpenTest, TmpfileRequiresWriteAccess) {
    EXPECT_EQ(user_.sys_open(fx_.scratch.c_str(), O_TMPFILE | O_RDONLY,
                             0600),
              fail(Err::EINVAL_));
}

TEST_F(OpenTest, Openat2StrictValidation) {
    OpenHow how;
    how.flags = O_RDONLY | 0x10000000;  // unknown bit (O_PATH is known)
    how.flags = O_RDONLY | 0x40000000;  // definitely unknown
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, fx_.plain_file.c_str(), how),
              fail(Err::EINVAL_));

    how = {};
    how.flags = O_RDONLY;
    how.mode = 0644;  // mode without O_CREAT/O_TMPFILE
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, fx_.plain_file.c_str(), how),
              fail(Err::EINVAL_));

    how = {};
    how.flags = O_RDONLY;
    how.resolve = 0x8000;  // unknown resolve flag
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, fx_.plain_file.c_str(), how),
              fail(Err::EINVAL_));

    how = {};
    how.flags = O_RDONLY;
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, fx_.plain_file.c_str(), how, 32),
              fail(Err::E2BIG_));
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, fx_.plain_file.c_str(), how, 16),
              fail(Err::EINVAL_));
    EXPECT_GE(user_.sys_openat2(AT_FDCWD, fx_.plain_file.c_str(), how), 0);
}

TEST_F(OpenTest, Openat2ResolveRestrictions) {
    OpenHow how;
    how.flags = O_RDONLY;
    how.resolve = RESOLVE_CACHED;
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, fx_.plain_file.c_str(), how),
              fail(Err::EAGAIN_));

    how.resolve = RESOLVE_NO_SYMLINKS;
    const std::string via_link = fx_.fixture_dir + "/dangling";
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, via_link.c_str(), how),
              fail(Err::ELOOP_));

    how.resolve = RESOLVE_NO_XDEV;
    const std::string crossing = fx_.inner_mount + "/whatever";
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, crossing.c_str(), how),
              fail(Err::EXDEV_));

    // RESOLVE_BENEATH rejects absolute paths.
    how.resolve = RESOLVE_BENEATH;
    EXPECT_EQ(user_.sys_openat2(AT_FDCWD, fx_.plain_file.c_str(), how),
              fail(Err::EXDEV_));
}

TEST_F(OpenTest, FaultInjectionShortCircuitsOpen) {
    kernel_.faults().arm("open", Err::EINTR_);
    EXPECT_EQ(user_.sys_open(fx_.plain_file.c_str(), O_RDONLY),
              fail(Err::EINTR_));
    EXPECT_GE(user_.sys_open(fx_.plain_file.c_str(), O_RDONLY), 0);
}

TEST_F(OpenTest, EveryOpenEmitsOneTraceEvent) {
    buffer_.clear();
    user_.sys_open(fx_.plain_file.c_str(), O_RDONLY);
    user_.sys_open(nullptr, O_RDONLY);
    user_.sys_creat(scratch("t").c_str(), 0644);
    ASSERT_EQ(buffer_.size(), 3u);
    EXPECT_EQ(buffer_.events()[0].syscall, "open");
    EXPECT_EQ(*buffer_.events()[0].str_arg("pathname"), fx_.plain_file);
    EXPECT_EQ(*buffer_.events()[1].str_arg("pathname"), "<fault>");
    EXPECT_EQ(buffer_.events()[2].syscall, "creat");
    EXPECT_FALSE(buffer_.events()[2].find_arg("flags"));  // creat has none
}

}  // namespace
}  // namespace iocov::syscall
