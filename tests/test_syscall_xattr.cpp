// setxattr/getxattr families at the syscall boundary.
#include <gtest/gtest.h>

#include "abi/fcntl.hpp"
#include "abi/xattr.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::syscall {
namespace {

using namespace iocov::abi;  // NOLINT

class XattrTest : public ::testing::Test {
  protected:
    XattrTest()
        : fs_(cfg()),
          fx_(testers::prepare_environment(fs_, "/mnt/test")),
          kernel_(fs_, &buffer_),
          user_(kernel_.make_process(2, vfs::Credentials::user(1000, 1000))) {
        path_ = fx_.scratch + "/xfile";
        const auto fd = user_.sys_open(path_.c_str(), O_CREAT | O_WRONLY,
                                       0644);
        user_.sys_close(static_cast<int>(fd));
        // A symlink pointing at the file, to separate the l* variants.
        const auto scratch_ino =
            fs_.resolve(fx_.scratch, vfs::Credentials::root()).value();
        fs_.make_symlink(scratch_ino, "xlink", path_,
                         vfs::Credentials::user(1000, 1000));
        link_ = fx_.scratch + "/xlink";
    }

    static vfs::FsConfig cfg() {
        vfs::FsConfig c;
        c.inode_xattr_capacity = 70000;
        return c;
    }

    std::vector<std::byte> value(std::size_t n, int fill = 7) {
        return std::vector<std::byte>(n, static_cast<std::byte>(fill));
    }

    vfs::FileSystem fs_;
    testers::Fixtures fx_;
    trace::TraceBuffer buffer_;
    Kernel kernel_;
    Process user_;
    std::string path_;
    std::string link_;
};

TEST_F(XattrTest, SetAndGetRoundTrip) {
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.a", value(10), 0), 0);
    // Size probe returns the value length.
    EXPECT_EQ(user_.sys_getxattr(path_.c_str(), "user.a", 0), 10);
    EXPECT_EQ(user_.sys_getxattr(path_.c_str(), "user.a", 64), 10);
    EXPECT_EQ(user_.sys_getxattr(path_.c_str(), "user.a", 5),
              fail(Err::ERANGE_));
}

TEST_F(XattrTest, MissingAttrIsEnodata) {
    EXPECT_EQ(user_.sys_getxattr(path_.c_str(), "user.none", 64),
              fail(Err::ENODATA_));
}

TEST_F(XattrTest, CreateAndReplaceFlags) {
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.a", value(4),
                                 XATTR_REPLACE_),
              fail(Err::ENODATA_));
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.a", value(4),
                                 XATTR_CREATE_),
              0);
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.a", value(4),
                                 XATTR_CREATE_),
              fail(Err::EEXIST_));
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.a", value(8),
                                 XATTR_REPLACE_),
              0);
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.a", value(4),
                                 XATTR_CREATE_ | XATTR_REPLACE_),
              fail(Err::EINVAL_));
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.a", value(4), 0x10),
              fail(Err::EINVAL_));
}

TEST_F(XattrTest, NameValidation) {
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), nullptr, value(4), 0),
              fail(Err::EFAULT_));
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "", value(4), 0),
              fail(Err::ERANGE_));
    const std::string long_name = "user." + std::string(300, 'n');
    EXPECT_EQ(
        user_.sys_setxattr(path_.c_str(), long_name.c_str(), value(4), 0),
        fail(Err::ERANGE_));
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "weird.ns", value(4), 0),
              fail(Err::EOPNOTSUPP_));
    // trusted.* needs privilege.
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "trusted.t", value(4), 0),
              fail(Err::EPERM_));
}

TEST_F(XattrTest, ValueSizeBoundaries) {
    // The maximum allowed size succeeds (the Fig. 1 boundary).
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.max",
                                 value(XATTR_SIZE_MAX_), 0),
              0);
    // One byte more is E2BIG before any fs logic runs.
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.over",
                                 value(XATTR_SIZE_MAX_ + 1), 0),
              fail(Err::E2BIG_));
    // Zero-size values are legal.
    EXPECT_EQ(user_.sys_setxattr(path_.c_str(), "user.empty", {}, 0), 0);
    EXPECT_EQ(user_.sys_getxattr(path_.c_str(), "user.empty", 0), 0);
}

TEST_F(XattrTest, LVariantsOperateOnTheLinkTarget) {
    // setxattr/getxattr follow the symlink; l* variants do not (and a
    // symlink cannot hold user.* attrs, so lsetxattr fails EPERM on
    // Linux; our model returns EPERM via the ownership check or
    // succeeds on the link inode — we model "operate on link itself").
    EXPECT_EQ(user_.sys_setxattr(link_.c_str(), "user.via", value(3), 0),
              0);
    EXPECT_EQ(user_.sys_getxattr(path_.c_str(), "user.via", 16), 3);
    // l variant touches the link inode, which has no such attr.
    EXPECT_EQ(user_.sys_lgetxattr(link_.c_str(), "user.via", 16),
              fail(Err::ENODATA_));
    EXPECT_EQ(user_.sys_lsetxattr(link_.c_str(), "user.onlink", value(2),
                                  0),
              0);
    EXPECT_EQ(user_.sys_lgetxattr(link_.c_str(), "user.onlink", 16), 2);
    EXPECT_EQ(user_.sys_getxattr(path_.c_str(), "user.onlink", 16),
              fail(Err::ENODATA_));
}

TEST_F(XattrTest, FVariantsOperateOnTheFd) {
    const auto fd = user_.sys_open(path_.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(user_.sys_fsetxattr(static_cast<int>(fd), "user.f",
                                  value(6), 0),
              0);
    EXPECT_EQ(user_.sys_fgetxattr(static_cast<int>(fd), "user.f", 16), 6);
    EXPECT_EQ(user_.sys_fgetxattr(static_cast<int>(fd), "user.f", 2),
              fail(Err::ERANGE_));
    EXPECT_EQ(user_.sys_fsetxattr(999, "user.f", value(1), 0),
              fail(Err::EBADF_));
    EXPECT_EQ(user_.sys_fgetxattr(999, "user.f", 16), fail(Err::EBADF_));
}

TEST_F(XattrTest, PathErrorsPropagate) {
    EXPECT_EQ(user_.sys_setxattr((fx_.scratch + "/no").c_str(), "user.a",
                                 value(1), 0),
              fail(Err::ENOENT_));
    EXPECT_EQ(user_.sys_getxattr(nullptr, "user.a", 16),
              fail(Err::EFAULT_));
    // Not the owner: EPERM on set.
    EXPECT_EQ(user_.sys_setxattr(fx_.plain_file.c_str(), "user.a",
                                 value(1), 0),
              fail(Err::EPERM_));
}

TEST_F(XattrTest, TraceRecordsSizeAndFlags) {
    buffer_.clear();
    user_.sys_setxattr(path_.c_str(), "user.t", value(123), XATTR_CREATE_);
    user_.sys_getxattr(path_.c_str(), "user.t", 4096);
    ASSERT_EQ(buffer_.size(), 2u);
    const auto& events = buffer_.events();
    EXPECT_EQ(*trace::uint_value(events[0].find_arg("size")->value), 123u);
    EXPECT_EQ(*trace::int_value(events[0].find_arg("flags")->value),
              XATTR_CREATE_);
    EXPECT_EQ(*trace::uint_value(events[1].find_arg("size")->value), 4096u);
    EXPECT_EQ(buffer_.events()[1].ret, 123);
}

TEST_F(XattrTest, ListxattrFamilyReportsNamesLength) {
    ASSERT_EQ(user_.sys_setxattr(path_.c_str(), "user.a", value(4), 0), 0);
    ASSERT_EQ(user_.sys_setxattr(path_.c_str(), "user.bb", value(4), 0), 0);
    // "user.a\0user.bb\0" = 7 + 8 bytes.
    EXPECT_EQ(user_.sys_listxattr(path_.c_str(), 0), 15);
    EXPECT_EQ(user_.sys_listxattr(path_.c_str(), 64), 15);
    EXPECT_EQ(user_.sys_listxattr(path_.c_str(), 8),
              fail(Err::ERANGE_));
    // f variant through an fd.
    const auto fd = user_.sys_open(path_.c_str(), O_RDONLY);
    EXPECT_EQ(user_.sys_flistxattr(static_cast<int>(fd), 64), 15);
    EXPECT_EQ(user_.sys_flistxattr(999, 64), fail(Err::EBADF_));
    // l variant on the symlink sees the link's (empty) attr list.
    EXPECT_EQ(user_.sys_llistxattr(link_.c_str(), 64), 0);
    EXPECT_EQ(user_.sys_listxattr((fx_.scratch + "/no").c_str(), 64),
              fail(Err::ENOENT_));
}

TEST_F(XattrTest, RemovexattrFamily) {
    ASSERT_EQ(user_.sys_setxattr(path_.c_str(), "user.rm", value(4), 0),
              0);
    EXPECT_EQ(user_.sys_removexattr(path_.c_str(), "user.rm"), 0);
    EXPECT_EQ(user_.sys_removexattr(path_.c_str(), "user.rm"),
              fail(Err::ENODATA_));
    EXPECT_EQ(user_.sys_removexattr(path_.c_str(), "weird.ns"),
              fail(Err::EOPNOTSUPP_));
    // f variant.
    const auto fd = user_.sys_open(path_.c_str(), O_RDONLY);
    ASSERT_EQ(user_.sys_fsetxattr(static_cast<int>(fd), "user.frm",
                                  value(4), 0),
              0);
    EXPECT_EQ(user_.sys_fremovexattr(static_cast<int>(fd), "user.frm"), 0);
    EXPECT_EQ(user_.sys_fremovexattr(999, "user.frm"), fail(Err::EBADF_));
    // l variant acts on the link inode.
    ASSERT_EQ(user_.sys_lsetxattr(link_.c_str(), "user.lrm", value(2), 0),
              0);
    EXPECT_EQ(user_.sys_lremovexattr(link_.c_str(), "user.lrm"), 0);
    EXPECT_EQ(user_.sys_removexattr(nullptr, "user.x"),
              fail(Err::EFAULT_));
}

}  // namespace
}  // namespace iocov::syscall
