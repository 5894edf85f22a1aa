// Tester simulators: profile calibration invariants and generated-
// workload shape properties.
#include <gtest/gtest.h>

#include "abi/fcntl.hpp"
#include "core/iocov.hpp"
#include "syscall/kernel.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "testers/profile.hpp"
#include "testers/rng.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::testers {
namespace {

using namespace iocov::abi;  // NOLINT

/// How many flags an open flags word combines (Table 1's statistic).
std::size_t flag_count(std::uint32_t flags) {
    std::uint16_t indices[kMaxOpenFlagLabels];
    return open_flag_indices(flags, indices, kMaxOpenFlagLabels);
}

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next(), b.next());
    Rng c(43);
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, RangeStaysInBounds) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(10, 20);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 20u);
    }
}

TEST(Profiles, XfstestsOpenCalibrationIsExact) {
    const auto p = xfstests_profile();
    std::uint64_t rdonly = 0, total = 0;
    for (const auto& combo : p.open_combos) {
        total += combo.count;
        if ((combo.flags & O_ACCMODE) == O_RDONLY) rdonly += combo.count;
    }
    // The paper's exact number for xfstests O_RDONLY.
    EXPECT_EQ(rdonly, 4099770u);
    // Table 1 cardinality distribution within 0.15 percentage points.
    const double expected[6] = {6.1, 28.2, 18.2, 46.8, 0.5, 0.4};
    double measured[6] = {};
    for (const auto& combo : p.open_combos)
        measured[flag_count(combo.flags) - 1] +=
            static_cast<double>(combo.count);
    for (int k = 0; k < 6; ++k)
        EXPECT_NEAR(100.0 * measured[k] / static_cast<double>(total),
                    expected[k], 0.15)
            << "cardinality " << k + 1;
}

TEST(Profiles, CrashmonkeyOpenCalibrationIsExact) {
    const auto p = crashmonkey_profile();
    std::uint64_t rdonly = 0;
    for (const auto& combo : p.open_combos)
        if ((combo.flags & O_ACCMODE) == O_RDONLY) rdonly += combo.count;
    EXPECT_EQ(rdonly, 7924u);  // the paper's exact number
    // No combo exceeds 6 flags (Table 1: column 6 is the last).
    for (const auto& combo : p.open_combos)
        EXPECT_LE(flag_count(combo.flags), 6u);
}

TEST(Profiles, WriteSizesRespectFig3Limits) {
    const auto xfs = xfstests_profile();
    unsigned max_exp = 0;
    bool has_zero = false;
    for (const auto& b : xfs.write_sizes) {
        if (b.zero) has_zero = true;
        else max_exp = std::max(max_exp, b.exp);
    }
    EXPECT_TRUE(has_zero);
    EXPECT_EQ(max_exp, 28u);  // 258 MiB bucket; nothing above

    const auto cm = crashmonkey_profile();
    for (const auto& b : cm.write_sizes) {
        EXPECT_FALSE(b.zero);  // CrashMonkey never writes 0 bytes
        EXPECT_LE(b.exp, 16u);
    }
}

TEST(Fixtures, PrepareEnvironmentBuildsAllObjects) {
    vfs::FileSystem fs;
    const auto fx = prepare_environment(fs, "/mnt/test");
    const auto root = vfs::Credentials::root();
    for (const auto& path :
         {fx.scratch, fx.plain_file, fx.noperm_file, fx.noperm_dir,
          fx.busy_dev, fx.nodriver_dev, fx.nounit_dev, fx.fifo,
          fx.running_exe, fx.big_file, fx.inner_mount, fx.deep_dir}) {
        EXPECT_TRUE(fs.resolve(path, root).ok()) << path;
    }
    // The loop links exist but do not resolve.
    EXPECT_EQ(fs.resolve(fx.loop_link, root).error(), abi::Err::ELOOP_);
    EXPECT_EQ(fs.resolve(fx.dangling_link, root).error(),
              abi::Err::ENOENT_);
    // The big file is sparse (3 GiB size, no blocks).
    const auto big = fs.resolve(fx.big_file, root).value();
    EXPECT_EQ(fs.stat(big).value().size, 3ULL << 30);
    EXPECT_EQ(fs.stat(big).value().blocks, 0u);
}

class GeneratorShape : public ::testing::Test {
  protected:
    static constexpr double kScale = 0.005;

    core::CoverageReport run(bool xfstests) {
        vfs::FileSystem fs(recommended_fs_config());
        auto fx = prepare_environment(fs, "/mnt/test");
        core::IOCov iocov;
        syscall::Kernel kernel(fs, &iocov.live_sink());
        if (xfstests) run_xfstests(kernel, fx, kScale, 7);
        else run_crashmonkey(kernel, fx, kScale, 7);
        return iocov.report();
    }
};

TEST_F(GeneratorShape, MeasuredOpenFlagsMatchScaledTargets) {
    const auto r = run(true);
    const auto& hist = r.find_input("open", "flags")->hist;
    // O_RDONLY scaled: 4,099,770 * 0.005 ~ 20,499 (+/- small workload
    // noise from budget overdraws).
    const double expected = 4099770 * kScale;
    EXPECT_NEAR(static_cast<double>(hist.count("O_RDONLY")), expected,
                expected * 0.03);
    // The paper's untested flags stay untested.
    for (const char* flag : {"O_LARGEFILE", "O_PATH", "O_TMPFILE",
                             "O_ASYNC", "O_NOCTTY"})
        EXPECT_EQ(hist.count(flag), 0u) << flag;
}

TEST_F(GeneratorShape, XfstestsDominatesCrashmonkeyEverywhere) {
    const auto xfs = run(true);
    const auto cm = run(false);
    const auto& xh = xfs.find_input("open", "flags")->hist;
    const auto& ch = cm.find_input("open", "flags")->hist;
    for (const auto& row : ch.rows()) {
        if (row.count == 0) continue;
        EXPECT_GE(xh.count(row.label), row.count) << row.label;
    }
    // Output coverage: xfstests wins everywhere except ENOTDIR.
    const auto& xo = xfs.find_output("open")->hist;
    const auto& co = cm.find_output("open")->hist;
    EXPECT_GT(co.count("ENOTDIR"), xo.count("ENOTDIR"));
    for (const auto& row : xo.rows()) {
        if (row.label == "ENOTDIR" || row.label == "OK") continue;
        EXPECT_GE(row.count, co.count(row.label)) << row.label;
    }
}

TEST_F(GeneratorShape, DeterministicForFixedSeed) {
    const auto a = run(true);
    const auto b = run(true);
    EXPECT_EQ(a.find_input("open", "flags")->hist,
              b.find_input("open", "flags")->hist);
    EXPECT_EQ(a.find_output("open")->hist, b.find_output("open")->hist);
    EXPECT_EQ(a.events_tracked, b.events_tracked);
}

TEST_F(GeneratorShape, CrashmonkeyLeavesXattrAndChmodUntested) {
    const auto cm = run(false);
    EXPECT_EQ(cm.find_input("setxattr", "size")->hist.total(), 0u);
    EXPECT_EQ(cm.find_input("chmod", "mode")->hist.total(), 0u);
    // But xfstests exercises both.
    const auto xfs = run(true);
    EXPECT_GT(xfs.find_input("setxattr", "size")->hist.total(), 0u);
    EXPECT_GT(xfs.find_input("chmod", "mode")->hist.total(), 0u);
}

TEST_F(GeneratorShape, ChdirIdentifierPartitionsDiverseOnlyForXfstests) {
    const auto xfs = run(true);
    const auto& xh = xfs.find_input("chdir", "pathname")->hist;
    EXPECT_GT(xh.count("absolute"), 0u);
    EXPECT_GT(xh.count("relative"), 0u);
    EXPECT_GT(xh.count("dot"), 0u);
    EXPECT_GT(xh.count("dotdot"), 0u);
    EXPECT_GT(xh.count("via-fd"), 0u);
    const auto cm = run(false);
    const auto& ch = cm.find_input("chdir", "pathname")->hist;
    EXPECT_GT(ch.count("absolute"), 0u);
    EXPECT_EQ(ch.count("dotdot"), 0u);
}

TEST_F(GeneratorShape, LtpIsWideButShallow) {
    vfs::FileSystem fs(recommended_fs_config());
    auto fx = prepare_environment(fs, "/mnt/test");
    core::IOCov iocov;
    syscall::Kernel kernel(fs, &iocov.live_sink());
    run_ltp(kernel, fx, 0.05, 7);
    const auto& r = iocov.report();

    // Shallow: far fewer events than xfstests at the same scale.
    const auto xfs = run(true);
    EXPECT_LT(r.events_tracked, xfs.events_tracked);

    // Wide: every lseek whence (including an INVALID value via its
    // EINVAL conformance test), every chmod bit, and a broad error set.
    EXPECT_EQ(r.find_input("lseek", "whence")->hist.untested().size(),
              0u);
    EXPECT_EQ(r.find_input("chmod", "mode")->hist.coverage_fraction(),
              1.0);
    const auto& open_out = r.find_output("open")->hist;
    EXPECT_GT(open_out.tested().size(), 12u);
    // LTP covers ENODEV, which xfstests leaves untested (Fig. 4).
    EXPECT_GT(open_out.count("ENODEV"), 0u);
}

TEST(Profiles, CrashmonkeyFullVolumeRunIsOnTarget) {
    // At scale 1.0 the generated trace must hit the paper's O_RDONLY
    // count exactly: workload phases and error scenarios all draw from
    // the same open budget (guards against budget-accounting leaks such
    // as the O_TMPFILE/O_DIRECTORY composite-mask bug).
    vfs::FileSystem fs(recommended_fs_config());
    auto fx = prepare_environment(fs, "/mnt/test");
    core::IOCov iocov;
    syscall::Kernel kernel(fs, &iocov.live_sink());
    run_crashmonkey(kernel, fx, 1.0, 42);
    const auto& hist =
        iocov.report().find_input("open", "flags")->hist;
    // Small overdrafts from unbudgeted scenario fallbacks (EEXIST's
    // write-access half) are expected; the O_RDONLY marginal is exact.
    EXPECT_NEAR(static_cast<double>(hist.count("O_RDONLY")), 7924.0,
                7924.0 * 0.01);
}

TEST(RunStatsCheck, GeneratorReportsItsOwnActivity) {
    vfs::FileSystem fs(recommended_fs_config());
    auto fx = prepare_environment(fs, "/mnt/test");
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fs, &buffer);
    const auto stats = run_crashmonkey(kernel, fx, 0.02, 1);
    EXPECT_GT(stats.opens, 0u);
    EXPECT_GT(stats.writes, 0u);
    EXPECT_GT(stats.reads, 0u);
    EXPECT_GT(stats.error_scenarios, 0u);
    // The trace contains at least as many events as counted operations
    // (closes, fsyncs, and error probes add more).
    EXPECT_GE(buffer.size(), stats.opens + stats.writes + stats.reads);
}

}  // namespace
}  // namespace iocov::testers
