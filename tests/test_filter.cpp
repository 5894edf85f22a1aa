#include "trace/filter.hpp"

#include <gtest/gtest.h>

#include "abi/fcntl.hpp"

namespace iocov::trace {
namespace {

TraceEvent ev_open(const std::string& path, std::int64_t ret,
                   std::uint32_t pid = 1) {
    TraceEvent ev;
    ev.pid = pid;
    ev.tid = pid;
    ev.syscall = "open";
    ev.args = {{"pathname", ArgValue{path}},
               {"flags", ArgValue{std::uint64_t{0}}},
               {"mode", ArgValue{std::uint64_t{0}}}};
    ev.ret = ret;
    return ev;
}

TraceEvent ev_fd(const std::string& syscall, std::int64_t fd,
                 std::int64_t ret, std::uint32_t pid = 1) {
    TraceEvent ev;
    ev.pid = pid;
    ev.tid = pid;
    ev.syscall = syscall;
    ev.args = {{"fd", ArgValue{fd}}};
    ev.ret = ret;
    return ev;
}

TraceEvent ev_path(const std::string& syscall, const std::string& path,
                   std::int64_t ret, std::uint32_t pid = 1) {
    TraceEvent ev;
    ev.pid = pid;
    ev.tid = pid;
    ev.syscall = syscall;
    ev.args = {{"pathname", ArgValue{path}}};
    ev.ret = ret;
    return ev;
}

TEST(TraceFilter, AdmitsPathsUnderMountPoint) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/file", 3)));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test", 4)));
    EXPECT_FALSE(f.admit(ev_open("/home/user/file", 5)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/testsuffix/file", 6)));
    EXPECT_FALSE(f.admit(ev_open("/mnt", 7)));
}

TEST(TraceFilter, ExcludePatternsVetoIncludes) {
    FilterConfig cfg = FilterConfig::mount_point("/mnt/test");
    cfg.exclude.push_back("/mnt/test/private");
    TraceFilter f(cfg);
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/public", 3)));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/privateer", 4)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/test/private", 5)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/test/private/secret", 6)));
}

TEST(TraceFilter, TracksFdsFromAdmittedOpens) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    ASSERT_TRUE(f.admit(ev_open("/mnt/test/file", 3)));
    // fd-based syscalls on the watched fd are in scope.
    EXPECT_TRUE(f.admit(ev_fd("write", 3, 100)));
    EXPECT_TRUE(f.admit(ev_fd("lseek", 3, 0)));
    // A different fd belongs to some other file.
    EXPECT_FALSE(f.admit(ev_fd("write", 5, 100)));
}

TEST(TraceFilter, CloseUnwatchesTheFd) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    ASSERT_TRUE(f.admit(ev_open("/mnt/test/file", 3)));
    EXPECT_TRUE(f.admit(ev_fd("close", 3, 0)));
    EXPECT_FALSE(f.admit(ev_fd("write", 3, 100)));  // recycled fd, unknown
}

TEST(TraceFilter, FailedOpenDoesNotWatchAnFd) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/missing", -2)));
    EXPECT_FALSE(f.admit(ev_fd("write", -2, 100)));  // the errno is no fd
}

TEST(TraceFilter, OutOfScopeOpenFdStaysUnwatched) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    EXPECT_FALSE(f.admit(ev_open("/var/log/syslog", 3)));
    EXPECT_FALSE(f.admit(ev_fd("read", 3, 10)));
}

TEST(TraceFilter, FdTrackingIsPerPid) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    ASSERT_TRUE(f.admit(ev_open("/mnt/test/file", 3, /*pid=*/1)));
    EXPECT_FALSE(f.admit(ev_fd("write", 3, 10, /*pid=*/2)));
    EXPECT_TRUE(f.admit(ev_fd("write", 3, 10, /*pid=*/1)));
}

TEST(TraceFilter, ChdirEstablishesRelativePathScope) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    // Before any chdir, relative paths are out of scope.
    EXPECT_FALSE(f.admit(ev_path("chdir", "subdir", 0)));
    ASSERT_TRUE(f.admit(ev_path("chdir", "/mnt/test/scratch", 0)));
    // Now relative lookups resolve inside the mount point.
    EXPECT_TRUE(f.admit(ev_path("chdir", "subdir", 0)));
    EXPECT_TRUE(f.admit(ev_open("relative_file", 4)));
    // Leaving the mount point turns relative scope off again.
    ASSERT_FALSE(f.admit(ev_path("chdir", "/home", 0)));
    EXPECT_FALSE(f.admit(ev_open("relative_file", 5)));
}

TEST(TraceFilter, FailedChdirDoesNotChangeScope) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    ASSERT_TRUE(f.admit(ev_path("chdir", "/mnt/test", 0)));
    EXPECT_FALSE(f.admit(ev_path("chdir", "/elsewhere", -2)));
    EXPECT_TRUE(f.admit(ev_open("still_relative", 4)));
}

TEST(TraceFilter, OpenatThroughWatchedDfd) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    // Open the mount-point directory itself, then openat through it.
    TraceEvent dir_open = ev_open("/mnt/test", 7);
    ASSERT_TRUE(f.admit(dir_open));
    TraceEvent at;
    at.pid = 1;
    at.tid = 1;
    at.syscall = "openat";
    at.args = {{"dfd", ArgValue{std::int64_t{7}}},
               {"pathname", ArgValue{std::string("child")}},
               {"flags", ArgValue{std::uint64_t{0}}},
               {"mode", ArgValue{std::uint64_t{0}}}};
    at.ret = 8;
    EXPECT_TRUE(f.admit(at));
    EXPECT_TRUE(f.admit(ev_fd("write", 8, 4)));
}

TEST(TraceFilter, FilterResetsBetweenRuns) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    std::vector<TraceEvent> run1{ev_open("/mnt/test/a", 3)};
    EXPECT_EQ(f.filter(run1).size(), 1u);
    // A second filter() call must not remember run1's fd 3.
    std::vector<TraceEvent> run2{ev_fd("write", 3, 10)};
    EXPECT_EQ(f.filter(run2).size(), 0u);
}

TEST(TraceFilter, MountPointEscapingHandlesRegexMetacharacters) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test+dir(1)"));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test+dir(1)/file", 3)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/testXdir(1)/file", 4)));
}

TEST(TraceFilter, PrefixFastPathMatchesRegexSemantics) {
    // The outcomes the former regex filter, ^/mnt/test(/.*)?$, gave.
    const std::vector<std::pair<std::string, bool>> expected = {
        {"/mnt/test", true},        {"/mnt/test/", true},
        {"/mnt/test/a/b", true},    {"/mnt/testsuffix", false},
        {"/mnt/tes", false},        {"/mnt", false},
        {"/home/x", false},         {"/mnt/test2/file", false},
    };
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    for (const auto& [path, admitted] : expected)
        EXPECT_EQ(f.admit(ev_open(path, 3)), admitted) << path;
}

TEST(TraceFilter, PrefixAndRegexCompose) {
    FilterConfig cfg = FilterConfig::mount_point("/mnt/test");
    cfg.include.push_back("/media/other");
    cfg.exclude.push_back("/mnt/test/private");
    TraceFilter f(cfg);
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/f", 3)));
    EXPECT_TRUE(f.admit(ev_open("/media/other/f", 4)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/test/private/f", 5)));
    EXPECT_FALSE(f.admit(ev_open("/elsewhere", 6)));
}

TEST(TraceFilter, MountPointIgnoresTrailingSlashes) {
    for (const char* mount : {"/mnt/test/", "/mnt/test//"}) {
        TraceFilter f(FilterConfig::mount_point(mount));
        EXPECT_TRUE(f.admit(ev_open("/mnt/test", 3))) << mount;
        EXPECT_TRUE(f.admit(ev_open("/mnt/test/file", 4))) << mount;
        EXPECT_FALSE(f.admit(ev_open("/mnt/testsuffix", 5))) << mount;
    }
}

TEST(TraceFilter, RootMountAdmitsEveryAbsolutePath) {
    TraceFilter f(FilterConfig::mount_point("/"));
    EXPECT_TRUE(f.admit(ev_open("/", 3)));
    EXPECT_TRUE(f.admit(ev_open("/etc/passwd", 4)));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/file", 5)));
    EXPECT_FALSE(f.admit(ev_open("relative", 6)));  // cwd never entered
}

TEST(TraceFilter, LiteralPrefixAdmitsEmbeddedNul) {
    // The former regex's "." did not match NUL, so it rejected this
    // path; a literal prefix admits it.  IOCT can carry such a string
    // even though no kernel produces one.
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    EXPECT_TRUE(f.admit(ev_open(std::string("/mnt/test/a\0b", 13), 3)));
}

}  // namespace
}  // namespace iocov::trace
