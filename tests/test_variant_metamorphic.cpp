// Metamorphic relation: substituting a syscall for its variant leaves
// merged coverage unchanged.  SyscallTable::resolve is the one variant
// resolver, so these relations guard it end to end: seeded simulator
// traces are rewritten family by family and run through IOCov, with
// the fd-tracking filter in the path.
//
//   write <-> pwrite64 <-> single-iov writev
//   open <-> openat(AT_FDCWD) <-> creat, for O_CREAT|O_WRONLY|O_TRUNC
//   chmod <-> fchmodat(AT_FDCWD)
//
// Under the extended registry pwrite64's `pos` is tracked, which plain
// write and writev do not carry: that one difference is intended
// (DESIGN.md §6.4) and checked as such.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "abi/fcntl.hpp"
#include "core/iocov.hpp"
#include "core/report_io.hpp"
#include "syscall/kernel.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "testers/profile.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::core {
namespace {

using trace::Arg;
using trace::TraceEvent;

constexpr std::uint64_t kCwt = abi::O_CREAT | abi::O_WRONLY | abi::O_TRUNC;
constexpr std::int64_t kAtFdCwd = abi::AT_FDCWD;

/// One family of interchangeable variants.
struct Family {
    const char* name;
    std::vector<const char*> variants;
};

const std::vector<Family>& families() {
    static const std::vector<Family> kFamilies = {
        {"write", {"write", "pwrite64", "writev"}},
        {"open", {"open", "openat", "creat"}},
        {"chmod", {"chmod", "fchmodat"}},
    };
    return kFamilies;
}

std::optional<std::int64_t> int_of(const TraceEvent& ev, const char* key) {
    const Arg* a = ev.find_arg(key);
    return a ? trace::int_value(a->value) : std::nullopt;
}

std::optional<std::string> str_of(const TraceEvent& ev, const char* key) {
    const Arg* a = ev.find_arg(key);
    if (!a) return std::nullopt;
    if (const auto* s = std::get_if<std::string>(&a->value)) return *s;
    return std::nullopt;
}

/// Rewrites `ev` as `variant` when `ev` is an eligible member of the
/// family `variant` belongs to; returns whether it was.  The return
/// value and every tracked argument carry over; pwrite64 reads at the
/// event's own `pos`, or 0 for a plain write.
bool rewrite(TraceEvent& ev, std::string_view family,
             std::string_view variant) {
    const std::string& sc = ev.syscall;
    std::vector<Arg> args;
    if (family == "write") {
        const bool eligible = sc == "write" || sc == "pwrite64" ||
                              (sc == "writev" && int_of(ev, "vlen") == 1);
        const auto fd = int_of(ev, "fd");
        const auto count = int_of(ev, "count");
        if (!eligible || !fd || !count) return false;
        args = {{"fd", *fd}};
        if (variant == "writev") args.push_back({"vlen", std::uint64_t{1}});
        args.push_back({"count", static_cast<std::uint64_t>(*count)});
        if (variant == "pwrite64")
            args.push_back({"pos", int_of(ev, "pos").value_or(0)});
    } else if (family == "open") {
        const bool at_cwd = sc != "openat" || int_of(ev, "dfd") == kAtFdCwd;
        const bool cwt = sc == "creat" ||
                         static_cast<std::uint64_t>(
                             int_of(ev, "flags").value_or(0)) == kCwt;
        const bool eligible =
            (sc == "open" || sc == "openat" || sc == "creat") && at_cwd &&
            cwt;
        const auto path = str_of(ev, "pathname");
        const auto mode = int_of(ev, "mode");
        if (!eligible || !path || !mode) return false;
        if (variant == "openat") args.push_back({"dfd", kAtFdCwd});
        args.push_back({"pathname", *path});
        if (variant != "creat") args.push_back({"flags", kCwt});
        args.push_back({"mode", static_cast<std::uint64_t>(*mode)});
    } else {
        const bool eligible =
            sc == "chmod" || (sc == "fchmodat" &&
                              int_of(ev, "dfd") == kAtFdCwd &&
                              int_of(ev, "flags") == 0);
        const auto path = str_of(ev, "pathname");
        const auto mode = int_of(ev, "mode");
        if (!eligible || !path || !mode) return false;
        if (variant == "fchmodat") args.push_back({"dfd", kAtFdCwd});
        args.push_back({"pathname", *path});
        args.push_back({"mode", static_cast<std::uint64_t>(*mode)});
        if (variant == "fchmodat") args.push_back({"flags", std::uint64_t{0}});
    }
    ev.syscall = std::string(variant);
    ev.args = std::move(args);
    return true;
}

/// `events` with every eligible member of `family` rewritten as
/// `variant`; `*rewritten` counts them.
std::vector<TraceEvent> substitute(std::vector<TraceEvent> events,
                                   const Family& family, const char* variant,
                                   std::size_t* rewritten) {
    *rewritten = 0;
    for (auto& ev : events) *rewritten += rewrite(ev, family.name, variant);
    return events;
}

CoverageReport coverage(const std::vector<TraceEvent>& events,
                        const std::vector<SyscallSpec>& registry) {
    IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"), registry);
    iocov.consume_all(events);
    return iocov.report();
}

/// The saved form of `report`: equal exactly when the reports are, and
/// a failure shows the differing rows.
std::string saved(const CoverageReport& report) {
    std::ostringstream out;
    save_report(out, report);
    return out.str();
}

/// A seeded simulator run's raw trace, out-of-scope events included.
std::vector<TraceEvent> simulate(const testers::TesterProfile& profile,
                                 std::uint64_t seed) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    const auto fx = testers::prepare_environment(fs, "/mnt/test");
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fs, &buffer);
    testers::TesterSim(profile, {0.002, seed}).run(kernel, fx);
    return buffer.events();
}

class VariantSubstitution
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
  protected:
    std::vector<TraceEvent> trace() const {
        const auto& [suite, seed] = GetParam();
        return simulate(suite == "xfstests" ? testers::xfstests_profile()
                                            : testers::ltp_profile(),
                        seed);
    }
};

TEST_P(VariantSubstitution, MergedCoverageIsInvariantUnderTheDefaultRegistry) {
    const auto events = trace();
    for (const Family& family : families()) {
        std::size_t first_rewritten = 0;
        const auto expected = coverage(
            substitute(events, family, family.variants[0], &first_rewritten),
            syscall_registry());
        // Not vacuous: the rewritten events exist and reach the analyzer.
        EXPECT_GT(first_rewritten, 0u) << family.name;
        EXPECT_GT(expected.find_output(family.name)->hist.total(), 0u)
            << family.name;
        for (const char* variant : family.variants) {
            std::size_t rewritten = 0;
            const auto follow_up = substitute(events, family, variant,
                                              &rewritten);
            EXPECT_EQ(rewritten, first_rewritten) << variant;
            EXPECT_EQ(saved(coverage(follow_up, syscall_registry())),
                      saved(expected))
                << family.name << " -> " << variant;
        }
    }
}

TEST_P(VariantSubstitution, ExtendedRegistryDiffersOnlyInPwriteOffset) {
    const auto& registry = extended_syscall_registry();
    const auto events = trace();
    for (const Family& family : families()) {
        std::size_t n = 0;
        const auto first = coverage(
            substitute(events, family, family.variants[0], &n), registry);
        for (const char* variant : family.variants) {
            auto expected = first;
            auto follow_up =
                coverage(substitute(events, family, variant, &n), registry);
            if (std::string_view(variant) == "pwrite64") {
                // Intended: only pwrite64 carries `pos`, so its write.pos
                // space differs; every other space must still agree.
                ASSERT_NE(follow_up.find_input("write", "pos")->hist,
                          expected.find_input("write", "pos")->hist);
                follow_up.find_input("write", "pos")->hist = {};
                expected.find_input("write", "pos")->hist = {};
            }
            EXPECT_EQ(saved(follow_up), saved(expected))
                << family.name << " -> " << variant;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VariantSubstitution,
    ::testing::Combine(::testing::Values(std::string("ltp"),
                                         std::string("xfstests")),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2})),
    [](const auto& param_info) {
        return std::get<0>(param_info.param) + "_" +
               std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace iocov::core
