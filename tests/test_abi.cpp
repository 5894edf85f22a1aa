#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abi/errno.hpp"
#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "abi/stat_mode.hpp"

namespace iocov::abi {
namespace {

TEST(Errno, NamesRoundTrip) {
    // Every errno value with a canonical name maps back to itself.
    std::size_t named = 0;
    for (int v = 1; v <= kMaxErrno; ++v) {
        const auto name = err_name(v);
        ASSERT_FALSE(name.empty());
        if (name.rfind("E?", 0) == 0) continue;
        ++named;
        auto back = err_from_name(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, static_cast<Err>(v));
    }
    EXPECT_EQ(named, 36u);
}

TEST(Errno, ValuesMatchLinux) {
    EXPECT_EQ(static_cast<int>(Err::ENOENT_), 2);
    EXPECT_EQ(static_cast<int>(Err::EEXIST_), 17);
    EXPECT_EQ(static_cast<int>(Err::EINVAL_), 22);
    EXPECT_EQ(static_cast<int>(Err::ENOSPC_), 28);
    EXPECT_EQ(static_cast<int>(Err::ELOOP_), 40);
    EXPECT_EQ(static_cast<int>(Err::EDQUOT_), 122);
}

TEST(Errno, KernelReturnConvention) {
    EXPECT_EQ(fail(Err::ENOENT_), -2);
    EXPECT_TRUE(is_ok(0));
    EXPECT_TRUE(is_ok(42));
    EXPECT_FALSE(is_ok(-2));
    EXPECT_EQ(err_of(-2), Err::ENOENT_);
}

TEST(Errno, OpenManpageErrorsMatchFig4Axis) {
    const auto& errs = open_manpage_errors();
    // 27 error codes, reverse-alphabetical, EXDEV first, E2BIG last.
    EXPECT_EQ(errs.size(), 27u);
    EXPECT_EQ(errs.front(), Err::EXDEV_);
    EXPECT_EQ(errs.back(), Err::E2BIG_);
    for (std::size_t i = 1; i < errs.size(); ++i)
        EXPECT_GT(err_name(errs[i - 1]), err_name(errs[i]))
            << "not reverse-alphabetical at " << i;
}

TEST(Errno, UnknownValueGetsPlaceholderName) {
    EXPECT_EQ(err_name(999), "E?999");
    EXPECT_FALSE(err_from_name("EWHAT").has_value());
}

TEST(OpenFlags, TableHasFig2Axis) {
    // 20 partitions: 3 access modes + 17 OR-able flags.
    EXPECT_EQ(open_flag_table().size(), 20u);
    EXPECT_STREQ(open_flag_table().front().name, "O_RDONLY");
}

/// The names of the flags `flags` decomposes into, in decomposition
/// order.
std::vector<std::string> decompose(std::uint32_t flags) {
    std::uint16_t indices[kMaxOpenFlagLabels];
    const std::size_t n =
        open_flag_indices(flags, indices, kMaxOpenFlagLabels);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i)
        out.emplace_back(open_flag_table()[indices[i]].name);
    return out;
}

TEST(OpenFlags, DecomposeLoneAccessModes) {
    EXPECT_EQ(decompose(O_RDONLY),
              std::vector<std::string>{"O_RDONLY"});
    EXPECT_EQ(decompose(O_WRONLY),
              std::vector<std::string>{"O_WRONLY"});
    EXPECT_EQ(decompose(O_RDWR),
              std::vector<std::string>{"O_RDWR"});
}

TEST(OpenFlags, AccessModeCountsAsOneFlag) {
    EXPECT_EQ(decompose(O_RDONLY).size(), 1u);
    EXPECT_EQ(decompose(O_WRONLY | O_CREAT | O_TRUNC).size(), 3u);
    EXPECT_EQ(decompose(O_RDONLY | O_CREAT | O_EXCL | O_TRUNC | O_NONBLOCK |
                        O_CLOEXEC)
                  .size(),
              6u);
}

TEST(OpenFlags, OSyncAbsorbsODsync) {
    // O_SYNC includes the O_DSYNC bit; a flags word with full O_SYNC
    // must not double-report O_DSYNC.
    const auto labels = decompose(O_RDWR | O_SYNC);
    EXPECT_EQ(labels, (std::vector<std::string>{"O_RDWR", "O_SYNC"}));
    const auto dsync_only = decompose(O_RDWR | O_DSYNC);
    EXPECT_EQ(dsync_only, (std::vector<std::string>{"O_RDWR", "O_DSYNC"}));
}

TEST(OpenFlags, OTmpfileAbsorbsODirectory) {
    const auto labels = decompose(O_WRONLY | O_TMPFILE);
    EXPECT_EQ(labels, (std::vector<std::string>{"O_WRONLY", "O_TMPFILE"}));
}

TEST(OpenFlags, InvalidAccessMode3ReportsAsRdwr) {
    const auto labels = decompose(O_ACCMODE);
    EXPECT_EQ(labels, (std::vector<std::string>{"O_RDWR"}));
}

TEST(OpenFlags, ToStringJoinsWithPipe) {
    std::string joined;
    for (const auto& name : decompose(O_WRONLY | O_CREAT | O_TRUNC))
        joined += (joined.empty() ? "" : "|") + name;
    EXPECT_EQ(joined, "O_WRONLY|O_CREAT|O_TRUNC");
}

TEST(SeekWhence, NamesAndValues) {
    EXPECT_EQ(seek_whence_values().size(), 5u);
    EXPECT_EQ(*seek_whence_name(SEEK_SET_), "SEEK_SET");
    EXPECT_EQ(*seek_whence_name(SEEK_HOLE_), "SEEK_HOLE");
    EXPECT_FALSE(seek_whence_name(99).has_value());
    EXPECT_FALSE(seek_whence_name(-1).has_value());
}

TEST(StatMode, TypePredicates) {
    EXPECT_TRUE(is_reg(S_IFREG | 0644));
    EXPECT_TRUE(is_dir(S_IFDIR | 0755));
    EXPECT_TRUE(is_lnk(S_IFLNK | 0777));
    EXPECT_FALSE(is_reg(S_IFDIR | 0644));
}

}  // namespace
}  // namespace iocov::abi
