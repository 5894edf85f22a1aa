// Extended syscall registry: tracking unlink/rename/symlink/link/fsync
// on top of the paper's 27 (the §6 "support more syscalls" extension).
#include <gtest/gtest.h>

#include "abi/fcntl.hpp"
#include "core/coverage.hpp"
#include "core/syscall_table.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::core {
namespace {

using namespace iocov::abi;  // NOLINT

TEST(ExtendedRegistry, SupersetOfTheBaseRegistry) {
    const auto& base = syscall_registry();
    const auto& ext = extended_syscall_registry();
    EXPECT_EQ(ext.size(), base.size() + 5);
    const SyscallTable table(ext);
    for (const auto& spec : base)
        EXPECT_EQ(table.bind(spec.base).spec->base, spec.base);
    EXPECT_EQ(table.bind("unlink").spec->base, "unlink");
    EXPECT_EQ(table.bind("fsync").spec->base, "fsync");
    // The base registry still matches the paper's totals.
    EXPECT_EQ(tracked_variant_count(), 27u);
}

TEST(ExtendedRegistry, VariantResolutionPerRegistry) {
    EXPECT_FALSE(SyscallTable(syscall_registry()).bind("fdatasync").tracked);
    const SyscallTable ext(extended_syscall_registry());
    EXPECT_EQ(ext.bind("fdatasync").spec->base, "fsync");
    EXPECT_EQ(ext.bind("rmdir").spec->base, "unlink");
}

TEST(ExtendedRegistry, AnalyzerTracksTheExtraSyscalls) {
    vfs::FileSystem fs;
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fs, &buffer);
    auto proc = kernel.make_process(1, vfs::Credentials::user(1000, 1000));

    const auto path = fx.scratch + "/ext";
    const auto fd = proc.sys_open(path.c_str(), O_CREAT | O_WRONLY, 0644);
    proc.sys_fsync(static_cast<int>(fd));
    proc.sys_fdatasync(static_cast<int>(fd));
    proc.sys_close(static_cast<int>(fd));
    proc.sys_rename(path.c_str(), (fx.scratch + "/ext2").c_str());
    proc.sys_symlink("/mnt/test/scratch/ext2",
                     (fx.scratch + "/lnk").c_str());
    proc.sys_unlink((fx.scratch + "/ext2").c_str());
    proc.sys_unlink((fx.scratch + "/missing").c_str());

    // Base analyzer ignores all of those...
    Analyzer base;
    base.consume_all(buffer.events());
    EXPECT_EQ(base.report().find_output("unlink"), nullptr);

    // ...the extended analyzer reports them.
    Analyzer ext(extended_syscall_registry());
    ext.consume_all(buffer.events());
    const auto* unlink_out = ext.report().find_output("unlink");
    ASSERT_NE(unlink_out, nullptr);
    EXPECT_EQ(unlink_out->hist.count("OK"), 1u);
    EXPECT_EQ(unlink_out->hist.count("ENOENT"), 1u);
    const auto* fsync_out = ext.report().find_output("fsync");
    ASSERT_NE(fsync_out, nullptr);
    EXPECT_EQ(fsync_out->hist.count("OK"), 2u);  // fsync + fdatasync merged
    const auto* fsync_fd = ext.report().find_input("fsync", "fd");
    ASSERT_NE(fsync_fd, nullptr);
    EXPECT_EQ(fsync_fd->hist.count("valid(>=3)"), 2u);
    // rename/symlink identifier coverage.
    EXPECT_EQ(ext.report()
                  .find_input("rename", "oldpath")
                  ->hist.count("absolute"),
              1u);
    EXPECT_GT(ext.report().events_tracked, base.report().events_tracked);
}

TEST(ExtendedRegistry, BaseBehaviourUnchangedUnderExtension) {
    trace::TraceEvent ev;
    ev.syscall = "open";
    ev.args = {{"pathname", trace::ArgValue{std::string("/mnt/test/f")}},
               {"flags", trace::ArgValue{std::uint64_t{O_RDONLY}}},
               {"mode", trace::ArgValue{std::uint64_t{0}}}};
    ev.ret = 3;
    Analyzer base;
    Analyzer ext(extended_syscall_registry());
    base.consume(ev);
    ext.consume(ev);
    EXPECT_EQ(base.report().find_input("open", "flags")->hist,
              ext.report().find_input("open", "flags")->hist);
}

TEST(ExtendedRegistry, TracksPositionalIoOffsets) {
    trace::TraceEvent ev;
    ev.syscall = "pwrite64";
    ev.args = {{"fd", trace::ArgValue{std::int64_t{3}}},
               {"count", trace::ArgValue{std::uint64_t{4096}}},
               {"pos", trace::ArgValue{std::int64_t{1 << 20}}}};
    ev.ret = 4096;
    Analyzer ext(extended_syscall_registry());
    ext.consume(ev);
    const auto* pos = ext.report().find_input("write", "pos");
    ASSERT_NE(pos, nullptr);
    EXPECT_EQ(pos->hist.count("2^20"), 1u);
    // A plain write carries no pos; the partition space is unaffected.
    ev.syscall = "write";
    ev.args.pop_back();
    ext.consume(ev);
    EXPECT_EQ(pos->hist.total(), 1u);
    // The base registry does not declare the argument at all.
    Analyzer base;
    EXPECT_EQ(base.report().find_input("write", "pos"), nullptr);
}

}  // namespace
}  // namespace iocov::core
