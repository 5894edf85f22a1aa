#include "trace/syz_format.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "abi/fcntl.hpp"
#include "core/iocov.hpp"

namespace iocov::trace {
namespace {

std::optional<TraceEvent> parse_one(const std::string& line) {
    std::vector<std::string> resources;
    return parse_syz_line(line, &resources);
}

TEST(SyzParser, ParsesOpenatWithResultBinding) {
    std::vector<std::string> resources;
    auto ev = parse_syz_line(
        "r0 = openat(0xffffffffffffff9c, "
        "&(0x7f0000000000)='./file0\\x00', 0x42, 0x1ff)",
        &resources);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->syscall, "openat");
    // 0xff..9c wraps to -100.
    EXPECT_EQ(*int_value(ev->find_arg("dfd")->value), abi::AT_FDCWD);
    EXPECT_EQ(*ev->str_arg("pathname"), "./file0");
    EXPECT_EQ(*uint_value(ev->find_arg("flags")->value), 0x42u);
    EXPECT_EQ(*uint_value(ev->find_arg("mode")->value), 0x1ffu);
    EXPECT_TRUE(is_input_only(*ev));
    EXPECT_EQ(resources, std::vector<std::string>{"r0"});
}

TEST(SyzParser, ResourceReferencesBecomeFds) {
    std::vector<std::string> resources;
    parse_syz_line("r0 = open(&(0x7f0000000000)='./f\\x00', 0x0, 0x0)",
                   &resources);
    auto write = parse_syz_line("write(r0, &(0x7f0000000040), 0x1000)",
                                &resources);
    ASSERT_TRUE(write.has_value());
    // First resource -> fd 3.
    EXPECT_EQ(*int_value(write->find_arg("fd")->value), 3);
    EXPECT_EQ(*uint_value(write->find_arg("count")->value), 0x1000u);
    auto close = parse_syz_line("close(r0)", &resources);
    ASSERT_TRUE(close.has_value());
    EXPECT_EQ(*int_value(close->find_arg("fd")->value), 3);
}

TEST(SyzParser, SecondResourceGetsNextFd) {
    std::vector<std::string> resources;
    parse_syz_line("r0 = open(&(0x7f0000000000)='./a\\x00', 0x0, 0x0)",
                   &resources);
    parse_syz_line("r1 = open(&(0x7f0000000000)='./b\\x00', 0x0, 0x0)",
                   &resources);
    auto ev = parse_syz_line("ftruncate(r1, 0x100)", &resources);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*int_value(ev->find_arg("fd")->value), 4);
}

TEST(SyzParser, NilPointerBecomesFaultingPath) {
    auto ev = parse_one("open(0x0, 0x0, 0x0)");
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*ev->str_arg("pathname"), "<fault>");
}

TEST(SyzParser, BlobPointerIsElided) {
    auto ev = parse_one("write(0x3, &(0x7f0000000040), 0x200)");
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*uint_value(ev->find_arg("count")->value), 0x200u);
    EXPECT_FALSE(ev->find_arg("buf"));
}

TEST(SyzParser, Openat2StructExpands) {
    auto ev = parse_one(
        "openat2(0xffffffffffffff9c, &(0x7f0000000000)='./f\\x00', "
        "&(0x7f0000000040)={0x42, 0x1a4, 0x8}, 0x18)");
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*uint_value(ev->find_arg("flags")->value), 0x42u);
    EXPECT_EQ(*uint_value(ev->find_arg("mode")->value), 0x1a4u);
    EXPECT_EQ(*uint_value(ev->find_arg("resolve")->value), 0x8u);
    EXPECT_EQ(*uint_value(ev->find_arg("usize")->value), 0x18u);
}

TEST(SyzParser, StringEscapesAndNulPadding) {
    auto ev = parse_one(
        "chdir(&(0x7f0000000000)='./dir with space\\x00\\x00\\x00')");
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*ev->str_arg("pathname"), "./dir with space");
}

TEST(SyzParser, AutoConstantsAndDecimalNumbers) {
    auto ev = parse_one("lseek(0x3, 512, AUTO)");
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*int_value(ev->find_arg("offset")->value), 512);
    EXPECT_EQ(*int_value(ev->find_arg("whence")->value), 0);
}

TEST(SyzParser, SkipsCommentsBlanksAndUnknownSyscalls) {
    EXPECT_FALSE(parse_one(""));
    EXPECT_FALSE(parse_one("# a comment"));
    EXPECT_FALSE(parse_one("mmap(&(0x7f0000000000), 0x1000, 0x3)"));
    EXPECT_FALSE(parse_one("not a line at all"));
}

TEST(SyzParser, ProgramLevelParsing) {
    std::stringstream prog;
    prog << "# fs workload\n"
         << "r0 = openat(0xffffffffffffff9c, "
            "&(0x7f0000000000)='./file0\\x00', 0x42, 0x1ff)\n"
         << "write(r0, &(0x7f0000000040), 0x10000)\n"
         << "mmap(&(0x7f0000000000), 0x1000)\n"  // unsupported: skipped
         << "close(r0)\n";
    SyzParseStats stats;
    const auto events = parse_syz_program(prog, &stats);
    EXPECT_EQ(stats.lines, 5u);
    EXPECT_EQ(stats.parsed, 3u);
    EXPECT_EQ(stats.skipped, 2u);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].seq, 0u);
    EXPECT_EQ(events[2].seq, 2u);
}

TEST(SyzParser, FeedsInputCoverageButNotOutputCoverage) {
    std::stringstream prog;
    prog << "r0 = open(&(0x7f0000000000)='./f0\\x00', 0x8042, 0x1ff)\n"
         << "pwrite64(r0, &(0x7f0000000040), 0x100000, 0x0)\n"
         << "lseek(r0, 0x0, 0x4)\n"
         << "close(r0)\n";
    core::IOCov iocov;
    EXPECT_EQ(iocov.consume_syz(prog), 4u);
    const auto& r = iocov.report();
    // Inputs counted — including O_LARGEFILE (0x8000), which the
    // simulated hand-written suites never touch.
    EXPECT_EQ(r.find_input("open", "flags")->hist.count("O_LARGEFILE"), 1u);
    EXPECT_EQ(r.find_input("write", "count")->hist.count("2^20"), 1u);
    EXPECT_EQ(r.find_input("lseek", "whence")->hist.count("SEEK_HOLE"), 1u);
    EXPECT_EQ(r.find_input("close", "fd")->hist.count("valid(>=3)"), 1u);
    // Outputs untouched: declarative programs have no return values.
    EXPECT_EQ(r.find_output("open")->hist.total(), 0u);
    EXPECT_EQ(r.find_output("write")->hist.total(), 0u);
}

}  // namespace
}  // namespace iocov::trace
