// Syscall-layer fuzzing: random syscalls with adversarial arguments
// must never corrupt state, and the resulting trace must satisfy the
// analyzer's conservation properties.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "core/coverage.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "testers/rng.hpp"
#include "trace/sink.hpp"
#include "trace/text_format.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::syscall {
namespace {

using namespace iocov::abi;  // NOLINT

class SyscallFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyscallFuzz, RandomSyscallsKeepStateConsistent) {
    vfs::FsConfig cfg;
    cfg.capacity_blocks = 1 << 14;
    cfg.max_inodes = 2048;
    vfs::FileSystem fs(cfg);
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    trace::TraceBuffer buffer;
    Kernel kernel(fs, &buffer);
    auto proc = kernel.make_process(1, vfs::Credentials::user(1000, 1000));
    auto root_proc = kernel.make_process(2, vfs::Credentials::root());

    testers::Rng rng(GetParam());

    // Interesting argument pools: valid paths, hostile paths, boundary
    // numbers.
    const std::vector<std::string> paths = {
        fx.scratch + "/a",
        fx.scratch + "/b",
        fx.scratch,
        fx.plain_file,
        fx.noperm_file,
        fx.loop_link,
        fx.dangling_link,
        fx.fifo,
        fx.busy_dev,
        fx.plain_file + "/under_file",
        fx.scratch + "/" + std::string(300, 'x'),
        "relative_name",
        ".",
        "..",
        "/",
        "",
    };
    const std::vector<std::int64_t> numbers = {
        0,    1,     -1,   4096, -4096, 65536, (1LL << 31) - 1,
        1LL << 32, -(1LL << 40), std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min() + 1,
    };

    std::vector<int> open_fds;
    std::int64_t opens_ok = 0, closes_ok = 0;

    auto pick_path = [&] {
        return paths[rng.below(paths.size())].c_str();
    };
    auto pick_fd = [&]() -> int {
        if (!open_fds.empty() && rng.chance(3, 4))
            return open_fds[rng.below(open_fds.size())];
        return static_cast<int>(rng.below(2000)) - 200;
    };
    auto pick_num = [&] { return numbers[rng.below(numbers.size())]; };

    for (int step = 0; step < 2000; ++step) {
        switch (rng.below(14)) {
            case 0: {
                const auto flags =
                    static_cast<std::uint32_t>(rng.next() & 0x03ffffff);
                const auto fd = proc.sys_open(pick_path(), flags,
                                              static_cast<mode_t_>(
                                                  rng.below(010000)));
                if (fd >= 0) {
                    ++opens_ok;
                    open_fds.push_back(static_cast<int>(fd));
                }
                break;
            }
            case 1: {
                const int fd = pick_fd();
                if (proc.sys_close(fd) == 0) {
                    ++closes_ok;
                    open_fds.erase(
                        std::remove(open_fds.begin(), open_fds.end(), fd),
                        open_fds.end());
                }
                break;
            }
            case 2:
                proc.sys_write(pick_fd(),
                               WriteSrc::pattern(
                                   rng.below(1 << 18),
                                   static_cast<std::byte>(rng.below(256))));
                break;
            case 3:
                proc.sys_read(pick_fd(),
                              ReadDst::discard(rng.below(1 << 18)));
                break;
            case 4:
                proc.sys_pwrite64(pick_fd(),
                                  WriteSrc::pattern(rng.below(8192),
                                                    std::byte{7}),
                                  pick_num());
                break;
            case 5:
                proc.sys_lseek(pick_fd(), pick_num(),
                               static_cast<int>(rng.below(8)) - 1);
                break;
            case 6:
                proc.sys_truncate(pick_path(), pick_num());
                break;
            case 7:
                proc.sys_mkdir(pick_path(),
                               static_cast<mode_t_>(rng.below(010000)));
                break;
            case 8:
                proc.sys_chmod(pick_path(),
                               static_cast<mode_t_>(rng.below(010000)));
                break;
            case 9:
                proc.sys_chdir(pick_path());
                break;
            case 10: {
                std::vector<std::byte> val(rng.below(300), std::byte{9});
                proc.sys_setxattr(pick_path(), "user.fuzz", val,
                                  static_cast<int>(rng.below(4)));
                break;
            }
            case 11:
                proc.sys_getxattr(pick_path(), "user.fuzz",
                                  rng.below(512));
                break;
            case 12:
                proc.sys_unlink(pick_path());
                break;
            default:
                root_proc.sys_rename(pick_path(), pick_path());
                break;
        }
    }

    // fd-table consistency: our local bookkeeping matches the process.
    EXPECT_EQ(proc.open_fd_count(), open_fds.size());
    EXPECT_EQ(static_cast<std::int64_t>(open_fds.size()),
              opens_ok - closes_ok);

    // Trace conservation: one event per syscall issued, sequence
    // strictly monotonic.
    for (std::size_t i = 1; i < buffer.events().size(); ++i)
        ASSERT_LT(buffer.events()[i - 1].seq, buffer.events()[i].seq);

    // Analyzer conservation: for each base syscall, output events equal
    // the number of tracked trace events of that base.
    core::Analyzer analyzer;
    analyzer.consume_all(buffer.events());
    std::map<std::string, std::uint64_t> per_base;
    for (const auto& ev : buffer.events())
        if (const auto b = analyzer.table().bind(ev.syscall); b.tracked)
            ++per_base[b.spec->base];
    for (const auto& out : analyzer.report().outputs)
        EXPECT_EQ(out.hist.total(), per_base[out.base]) << out.base;

    // Every declared-partition histogram only ever grew (no negative
    // counts possible by construction; sanity-check totals).
    std::uint64_t tracked = 0;
    for (const auto& [base, n] : per_base) tracked += n;
    EXPECT_EQ(analyzer.report().events_tracked, tracked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyscallFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(SyscallFuzzSmoke, TextRoundTripOfFuzzTraceIsLossless) {
    vfs::FileSystem fs;
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    trace::TraceBuffer buffer;
    Kernel kernel(fs, &buffer);
    auto proc = kernel.make_process(1, vfs::Credentials::user(1000, 1000));
    testers::Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        proc.sys_open((fx.scratch + "/f" + std::to_string(rng.below(8)))
                          .c_str(),
                      static_cast<std::uint32_t>(rng.next() & 0xffff),
                      0644);
        proc.sys_close(static_cast<int>(rng.below(16)));
    }
    std::stringstream text;
    for (const auto& ev : buffer.events())
        text << trace::format_event(ev) << '\n';
    std::size_t dropped = 0;
    const auto parsed = trace::parse_stream(text, &dropped);
    EXPECT_EQ(dropped, 0u);
    ASSERT_EQ(parsed.size(), buffer.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        ASSERT_EQ(parsed[i], buffer.events()[i]) << i;
}

}  // namespace
}  // namespace iocov::syscall
