// Metamorphic relations over trace encodings and process ids: each
// rewrite of a seeded simulator trace below must leave merged coverage
// unchanged.
//
//   re-encode     text  <->  IOCT (serial and pid-sharded)
//   re-encode     syz, compared on input coverage only (syz programs
//                 carry no return values and are not mount-filtered)
//   interleave    events of extra, out-of-scope processes
//   renumber      every pid, onto values that include 0 and UINT32_MAX
//
// Every ingest path reaches the same filter and analyzer, so a
// divergence here means one path reads a record differently (an
// argument looked up by the wrong name, fd state keyed by the wrong
// pid) even when every path looks self-consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
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
#include "testers/rng.hpp"
#include "trace/binary_format.hpp"
#include "trace/filter.hpp"
#include "trace/sink.hpp"
#include "trace/text_format.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::core {
namespace {

using trace::Arg;
using trace::ArgValue;
using trace::TraceEvent;

constexpr const char* kMount = "/mnt/test";

/// A seeded simulator run's raw trace, out-of-scope events included.
std::vector<TraceEvent> simulate(const testers::TesterProfile& profile,
                                 std::uint64_t seed) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    const auto fx = testers::prepare_environment(fs, kMount);
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fs, &buffer);
    testers::TesterSim(profile, {0.002, seed}).run(kernel, fx);
    return buffer.events();
}

/// The saved form of `report`: equal exactly when the reports are, and
/// a failure shows the differing rows.
std::string saved(const CoverageReport& report) {
    std::ostringstream out;
    save_report(out, report);
    return out.str();
}

/// The input half of `report`, saved.
std::string saved_inputs(const CoverageReport& report) {
    CoverageReport inputs_only;
    inputs_only.inputs = report.inputs;
    return saved(inputs_only);
}

std::string as_text(const std::vector<TraceEvent>& events) {
    std::string out;
    for (const auto& ev : events) out += trace::format_event(ev) + '\n';
    return out;
}

std::string hex(std::uint64_t v) {
    std::ostringstream out;
    out << "0x" << std::hex << v;
    return out.str();
}

/// A syz single-quoted, NUL-terminated string literal.
std::string syz_string(std::string_view s) {
    std::string out = "'";
    for (const char ch : s) {
        if (ch == '\'' || ch == '\\') out += '\\';
        out += ch;
    }
    return out + "\\x00'";
}

/// The syz argument lists of the calls the simulators make: one key
/// per position, "-" for a data buffer syz elides.  Mirrors the
/// signatures trace/syz_format.cpp parses, written out independently.
const std::map<std::string, std::vector<std::string>>& syz_signatures() {
    static const std::map<std::string, std::vector<std::string>> kSigs = {
        {"open", {"pathname", "flags", "mode"}},
        {"openat", {"dfd", "pathname", "flags", "mode"}},
        {"creat", {"pathname", "mode"}},
        {"read", {"fd", "-", "count"}},
        {"pread64", {"fd", "-", "count", "pos"}},
        {"readv", {"fd", "-", "vlen"}},
        {"write", {"fd", "-", "count"}},
        {"pwrite64", {"fd", "-", "count", "pos"}},
        {"writev", {"fd", "-", "vlen"}},
        {"lseek", {"fd", "offset", "whence"}},
        {"truncate", {"pathname", "length"}},
        {"ftruncate", {"fd", "length"}},
        {"mkdir", {"pathname", "mode"}},
        {"mkdirat", {"dfd", "pathname", "mode"}},
        {"chmod", {"pathname", "mode"}},
        {"fchmod", {"fd", "mode"}},
        {"fchmodat", {"dfd", "pathname", "mode", "flags"}},
        {"close", {"fd"}},
        {"chdir", {"pathname"}},
        {"fchdir", {"fd"}},
        {"setxattr", {"pathname", "name", "-", "size", "flags"}},
        {"lsetxattr", {"pathname", "name", "-", "size", "flags"}},
        {"fsetxattr", {"fd", "name", "-", "size", "flags"}},
        {"getxattr", {"pathname", "name", "-", "size"}},
        {"lgetxattr", {"pathname", "name", "-", "size"}},
        {"fgetxattr", {"fd", "name", "-", "size"}},
        {"unlink", {"pathname"}},
        {"rmdir", {"pathname"}},
        {"rename", {"oldpath", "newpath"}},
        {"symlink", {"target", "linkpath"}},
        {"link", {"oldpath", "newpath"}},
        {"fsync", {"fd"}},
    };
    return kSigs;
}

/// `events` as syz sees them: calls it has a signature for, each with
/// only the arguments that signature carries.
std::vector<TraceEvent> syz_expressible(const std::vector<TraceEvent>& events) {
    std::vector<TraceEvent> out;
    for (const auto& ev : events) {
        const auto sig = syz_signatures().find(ev.syscall);
        if (sig == syz_signatures().end()) continue;
        TraceEvent kept = ev;
        kept.args.clear();
        for (const auto& key : sig->second)
            if (const Arg* a = ev.find_arg(key)) kept.args.push_back(*a);
        out.push_back(std::move(kept));
    }
    return out;
}

/// `events` written as a syz program.  Integers are hex (negative ones
/// as two's complement), strings are pointer-to-literal, a buffer is a
/// bare pointer, and an argument the event lacks is a token the parser
/// skips.
std::string as_syz(const std::vector<TraceEvent>& events) {
    std::string out;
    for (const auto& ev : events) {
        const auto& keys = syz_signatures().at(ev.syscall);
        out += ev.syscall + '(';
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (i) out += ", ";
            const Arg* a = keys[i] == "-" ? nullptr : ev.find_arg(keys[i]);
            if (keys[i] == "-") {
                out += "&(0x7f0000000000)";
            } else if (!a) {
                out += "none";
            } else if (const auto* s = std::get_if<std::string>(&a->value)) {
                out += "&(0x7f0000000000)=" + syz_string(*s);
            } else {
                out += hex(*trace::uint_value(a->value));
            }
        }
        out += ")\n";
    }
    return out;
}

/// The admitted events of `events`, as IOCov's filter sees them.
std::vector<TraceEvent> admitted(const std::vector<TraceEvent>& events) {
    trace::TraceFilter filter(trace::FilterConfig::mount_point(kMount));
    return filter.filter(events);
}

std::set<std::uint32_t> pids_of(const std::vector<TraceEvent>& events) {
    std::set<std::uint32_t> pids;
    for (const auto& ev : events) pids.insert(ev.pid);
    return pids;
}

/// Out-of-scope activity of `n_pids` processes the trace does not
/// have: opens under a build tree and /tmp (handing out fds the traced
/// processes also use), I/O and closes on them, and chdir/fchdir out of
/// the mount followed by relative opens.
std::vector<TraceEvent> noise(const std::set<std::uint32_t>& taken,
                              std::size_t n_pids, std::size_t n_events,
                              testers::Rng& rng) {
    std::vector<std::uint32_t> pids;
    for (std::uint32_t p = 7000; pids.size() < n_pids; ++p)
        if (!taken.count(p)) pids.push_back(p);
    const std::int64_t at_fdcwd = abi::AT_FDCWD;
    std::vector<TraceEvent> out;
    for (std::size_t i = 0; i < n_events; ++i) {
        TraceEvent ev;
        ev.pid = ev.tid = pids[rng.below(pids.size())];
        const auto fd = static_cast<std::int64_t>(rng.range(3, 12));
        const std::string file = "obj" + std::to_string(rng.below(50)) + ".o";
        switch (rng.below(8)) {
            case 0:
                ev.syscall = "openat";
                ev.args = {{"dfd", at_fdcwd},
                           {"pathname", "/build/" + file},
                           {"flags", std::uint64_t{abi::O_RDONLY}},
                           {"mode", std::uint64_t{0}}};
                ev.ret = fd;
                break;
            case 1:
                ev.syscall = "open";
                ev.args = {{"pathname", "/tmp/" + file},
                           {"flags", std::uint64_t{abi::O_CREAT |
                                                   abi::O_WRONLY}},
                           {"mode", std::uint64_t{0644}}};
                ev.ret = rng.chance(1, 4) ? -2 : fd;
                break;
            case 2:
                ev.syscall = "read";
                ev.args = {{"fd", fd}, {"count", std::uint64_t{4096}}};
                ev.ret = 4096;
                break;
            case 3:
                ev.syscall = "write";
                ev.args = {{"fd", fd}, {"count", std::uint64_t{17}}};
                ev.ret = 17;
                break;
            case 4:
                ev.syscall = "close";
                ev.args = {{"fd", fd}};
                break;
            case 5:
                ev.syscall = "chdir";
                ev.args = {{"pathname", std::string(rng.chance(1, 2)
                                                        ? "/build"
                                                        : "/tmp/work")}};
                break;
            case 6:
                ev.syscall = "fchdir";
                ev.args = {{"fd", fd}};
                break;
            default:
                ev.syscall = "openat";
                ev.args = {{"dfd", rng.chance(1, 2) ? at_fdcwd : fd},
                           {"pathname", file},
                           {"flags", std::uint64_t{abi::O_RDWR}},
                           {"mode", std::uint64_t{0}}};
                ev.ret = fd;
                break;
        }
        out.push_back(std::move(ev));
    }
    return out;
}

/// `base` with `extra` spliced in at seeded positions, each list's own
/// order kept.
std::vector<TraceEvent> interleave(const std::vector<TraceEvent>& base,
                                   const std::vector<TraceEvent>& extra,
                                   testers::Rng& rng) {
    std::vector<TraceEvent> out;
    out.reserve(base.size() + extra.size());
    std::size_t b = 0, e = 0;
    while (b < base.size() || e < extra.size()) {
        const std::size_t left = (base.size() - b) + (extra.size() - e);
        if (e < extra.size() && rng.below(left) < extra.size() - e)
            out.push_back(extra[e++]);
        else
            out.push_back(base[b++]);
    }
    for (std::size_t i = 0; i < out.size(); ++i) out[i].seq = i;
    return out;
}

/// Every pid of `events` mapped one-to-one onto a seeded shuffle of
/// targets that starts with the extremes.
std::vector<TraceEvent> renumber(std::vector<TraceEvent> events,
                                 testers::Rng& rng) {
    const auto pids = pids_of(events);
    std::vector<std::uint32_t> targets = {UINT32_MAX, 0, UINT32_MAX - 1, 1,
                                          0x80000000u, UINT32_MAX - 2};
    for (std::uint32_t p = 0x7FFFFFF0u; targets.size() < pids.size(); ++p)
        targets.push_back(p);
    targets.resize(pids.size());
    for (std::size_t i = targets.size(); i > 1; --i)
        std::swap(targets[i - 1], targets[rng.below(i)]);
    std::map<std::uint32_t, std::uint32_t> to;
    std::size_t i = 0;
    for (const auto pid : pids) to[pid] = targets[i++];
    for (auto& ev : events) ev.pid = ev.tid = to.at(ev.pid);
    return events;
}

class ReencodeRelation
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::uint64_t, std::string>> {
  protected:
    std::vector<TraceEvent> trace() const {
        const auto& suite = std::get<0>(GetParam());
        return simulate(suite == "xfstests" ? testers::xfstests_profile()
                                            : testers::ltp_profile(),
                        std::get<1>(GetParam()));
    }
    std::uint64_t seed() const { return std::get<1>(GetParam()); }
    const std::vector<SyscallSpec>& registry() const {
        return std::get<2>(GetParam()) == "paper"
                   ? syscall_registry()
                   : extended_syscall_registry();
    }
    IOCov fresh() const {
        return IOCov(trace::FilterConfig::mount_point(kMount), registry());
    }

    IOCov of_events(const std::vector<TraceEvent>& events) const {
        IOCov iocov = fresh();
        iocov.consume_all(events);
        return iocov;
    }
    IOCov of_text(const std::vector<TraceEvent>& events) const {
        IOCov iocov = fresh();
        std::istringstream in(as_text(events));
        EXPECT_EQ(iocov.consume_text(in), 0u);
        return iocov;
    }
    IOCov of_ioct(const std::vector<TraceEvent>& events,
                  unsigned threads) const {
        IOCov iocov = fresh();
        EXPECT_EQ(iocov.consume_binary_parallel(trace::encode_trace(events),
                                                threads),
                  0u);
        return iocov;
    }

    /// Every encoding and thread count of `events` gives `expected`,
    /// with `filtered` events rejected by the mount-point filter.
    void expect_everywhere(const std::vector<TraceEvent>& events,
                           const std::string& expected,
                           std::uint64_t filtered) const {
        const IOCov runs[] = {of_events(events), of_text(events),
                              of_ioct(events, 1), of_ioct(events, 3)};
        const char* names[] = {"events", "text", "ioct", "ioct x3"};
        for (std::size_t i = 0; i < std::size(runs); ++i) {
            EXPECT_EQ(saved(runs[i].report()), expected) << names[i];
            EXPECT_EQ(runs[i].events_filtered_out(), filtered) << names[i];
        }
    }
};

TEST_P(ReencodeRelation, TextAndIoctGiveTheSameCoverage) {
    const auto events = trace();
    const IOCov base = of_events(events);
    // Not vacuous: in-scope events reach the analyzer, others do not.
    ASSERT_GT(base.report().events_tracked, 0u);
    ASSERT_GT(base.events_filtered_out(), 0u);
    expect_everywhere(events, saved(base.report()),
                      base.events_filtered_out());
}

TEST_P(ReencodeRelation, SyzGivesTheSameInputCoverage) {
    const auto events = syz_expressible(admitted(trace()));
    ASSERT_FALSE(events.empty());
    Analyzer expected(registry());
    expected.consume_all(events);
    IOCov via_syz = fresh();
    std::istringstream in(as_syz(events));
    EXPECT_EQ(via_syz.consume_syz(in), events.size());
    EXPECT_EQ(saved_inputs(via_syz.report()),
              saved_inputs(expected.report()));
    // Declarative programs contribute no output coverage.
    for (const auto& out : via_syz.report().outputs)
        EXPECT_EQ(out.hist.total(), 0u) << out.base;
}

TEST_P(ReencodeRelation, OutOfScopeProcessesChangeNothing) {
    const auto events = trace();
    const IOCov base = of_events(events);
    testers::Rng rng(seed());
    const auto extra = noise(pids_of(events), 5, events.size() / 2 + 64, rng);
    const auto noisy = interleave(events, extra, rng);
    expect_everywhere(noisy, saved(base.report()),
                      base.events_filtered_out() + extra.size());
}

TEST_P(ReencodeRelation, RenumberedPidsChangeNothing) {
    // Renumber a multi-process trace so fd and cwd state of distinct
    // pids must stay apart under the extreme values too.
    const auto events = trace();
    testers::Rng rng(seed() + 100);
    const auto noisy = interleave(
        events, noise(pids_of(events), 5, events.size() / 4 + 64, rng), rng);
    const IOCov base = of_events(noisy);
    const auto renumbered = renumber(noisy, rng);
    ASSERT_TRUE(pids_of(renumbered).count(UINT32_MAX));
    ASSERT_TRUE(pids_of(renumbered).count(0));
    expect_everywhere(renumbered, saved(base.report()),
                      base.events_filtered_out());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ReencodeRelation,
    ::testing::Combine(::testing::Values(std::string("ltp"),
                                         std::string("xfstests")),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2}),
                       ::testing::Values(std::string("paper"),
                                         std::string("extended"))),
    [](const auto& param_info) {
        return std::get<0>(param_info.param) + "_" +
               std::to_string(std::get<1>(param_info.param)) + "_" +
               std::get<2>(param_info.param);
    });

}  // namespace
}  // namespace iocov::core
