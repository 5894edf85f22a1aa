#include "testers/campaign.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/iocov.hpp"
#include "core/schema.hpp"
#include "syscall/kernel.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "testers/profile.hpp"
#include "trace/sink.hpp"
#include "vfs/fault.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/fsck.hpp"

namespace iocov::testers {
namespace {

TesterProfile profile_for_suite(const std::string& suite) {
    if (suite == "crashmonkey") return crashmonkey_profile();
    if (suite == "xfstests") return xfstests_profile();
    if (suite == "ltp") return ltp_profile();
    throw std::invalid_argument("unknown suite: " + suite);
}

/// Everything one workload replay produces.
struct RunOutcome {
    core::CoverageReport report;
    /// Calls per tracked variant (the sweep's fault-point universe).
    std::map<std::string, std::uint64_t> op_counts;
    /// Failing events per (variant, errno value), across *all* traced
    /// syscalls — chaos faults can fire on untracked variants too.
    std::map<std::pair<std::string, int>, std::uint64_t> errno_counts;
    std::vector<vfs::FaultInjector::FiredStat> fired;
    std::uint64_t fired_total = 0;
    vfs::FsckReport fsck;
};

/// Replays the configured workload once on a fresh file system, with
/// `arm` (possibly empty) installing faults before the run.  Fresh
/// FileSystem/Kernel/IOCov per run keeps runs fully independent: no
/// filter state, fd table, or quota ledger carries over.
template <typename ArmFn>
RunOutcome execute_run(const CampaignConfig& cfg,
                       const TesterProfile& profile,
                       const std::vector<core::SyscallSpec>& registry,
                       ArmFn&& arm) {
    vfs::FileSystem fs(recommended_fs_config());
    Fixtures fx = prepare_environment(fs, cfg.mount);
    core::IOCov iocov(trace::FilterConfig::mount_point(cfg.mount), registry);

    RunOutcome out;
    // Tee: count raw kernel returns (pre-filter, so injected faults on
    // paths outside the mount still count) while feeding IOCov live.
    trace::CallbackSink tee([&](const trace::TraceEvent& ev) {
        if (ev.ret < 0)
            ++out.errno_counts[{ev.syscall, static_cast<int>(-ev.ret)}];
        if (iocov.schema().table().bind(ev.syscall).tracked)
            ++out.op_counts[ev.syscall];
        iocov.consume(ev);
    });

    syscall::Kernel kernel(fs, &tee);
    arm(kernel.faults());
    TesterSim sim(profile, {cfg.scale, cfg.seed});
    sim.run(kernel, fx);

    out.fired = kernel.faults().stats();
    out.fired_total = kernel.faults().fired_total();
    // Processes live inside run(), so every anonymous (O_TMPFILE)
    // inode has been released by now: fsck needs no pins, and genuine
    // leaks surface as OrphanInode.
    out.fsck = vfs::fsck(fs);
    out.report = iocov.report();
    return out;
}

/// Property 2: every fired (op, errno) must appear in the trace at
/// least as many times as it fired.  Returns the number of fired stats
/// the trace under-reports.
std::uint64_t count_unsurfaced(const RunOutcome& run) {
    std::uint64_t unsurfaced = 0;
    for (const auto& stat : run.fired) {
        const auto it = run.errno_counts.find(
            {stat.op, static_cast<int>(stat.err)});
        const std::uint64_t surfaced =
            it == run.errno_counts.end() ? 0 : it->second;
        if (surfaced < stat.count) ++unsurfaced;
    }
    return unsurfaced;
}

void absorb_run(CampaignResult& result, const CampaignConfig& cfg,
                CampaignRun run, const RunOutcome& outcome) {
    run.fired = outcome.fired_total;
    run.unsurfaced = count_unsurfaced(outcome);
    run.fsck_violations = outcome.fsck.violations.size();

    result.faults_fired += run.fired;
    if (!run.faithful()) ++result.unfaithful_runs;
    result.fsck_violations += run.fsck_violations;
    for (const auto& v : outcome.fsck.violations) {
        if (result.fsck_details.size() >= 8) break;
        result.fsck_details.push_back(v.to_string());
    }
    result.aggregate.merge(outcome.report);
    (run.probabilistic ? result.chaos_runs : result.sweep_runs) += 1;
    result.runs.push_back(std::move(run));
    (void)cfg;
}

bool is_errno_label(const std::string& label) {
    return label.rfind("OK", 0) != 0;  // "OK", "OK:=0", "OK:2^k", ...
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
    const TesterProfile profile = profile_for_suite(config.suite);
    const auto& registry = config.extended_registry
                               ? core::extended_syscall_registry()
                               : core::syscall_registry();

    CampaignResult result;

    // ---- fault-free baseline ------------------------------------------
    const RunOutcome baseline =
        execute_run(config, profile, registry, [](vfs::FaultInjector&) {});
    result.baseline = baseline.report;
    result.aggregate = baseline.report;
    result.baseline_fsck_violations = baseline.fsck.violations.size();
    for (const auto& v : baseline.fsck.violations) {
        if (result.fsck_details.size() >= 8) break;
        result.fsck_details.push_back("[baseline] " + v.to_string());
    }

    // ---- systematic sweep ---------------------------------------------
    // Fault-point universe: every tracked variant the baseline actually
    // calls, crossed with every configured errno, at occurrence targets
    // spaced evenly over the variant's baseline call count.  The armed
    // one-shot is inert until its k-th occurrence, so the replay (same
    // seed) is bit-identical to the baseline up to the firing call —
    // which therefore always exists: skip < baseline count.
    std::vector<FaultPoint> plan;
    for (const auto& [op, count] : baseline.op_counts) {
        for (const abi::Err err : config.errors) {
            const std::uint64_t samples =
                std::min<std::uint64_t>(
                    std::max(1u, config.occurrences_per_point), count);
            for (std::uint64_t i = 0; i < samples; ++i)
                plan.push_back(
                    {op, err, static_cast<unsigned>(count * i / samples)});
        }
    }
    result.points_planned = plan.size();

    // Bounded sweep: subsample evenly (not a prefix truncation, which
    // would drop whole ops) down to max_runs points.
    if (config.max_runs != 0 && plan.size() > config.max_runs) {
        std::vector<FaultPoint> bounded;
        bounded.reserve(config.max_runs);
        for (std::size_t j = 0; j < config.max_runs; ++j)
            bounded.push_back(plan[j * plan.size() / config.max_runs]);
        plan = std::move(bounded);
    }

    for (const FaultPoint& point : plan) {
        const RunOutcome outcome = execute_run(
            config, profile, registry, [&](vfs::FaultInjector& faults) {
                faults.arm(point.op, point.err, point.skip);
            });
        absorb_run(result, config, CampaignRun{point, false, 0, 0, 0},
                   outcome);
    }

    // ---- probabilistic chaos runs -------------------------------------
    // Each run arms one seeded "*" fault per errno; the injector's
    // SplitMix64 streams make every run replayable from the config.
    for (unsigned r = 0; r < config.chaos_runs; ++r) {
        const RunOutcome outcome = execute_run(
            config, profile, registry, [&](vfs::FaultInjector& faults) {
                std::uint64_t salt = config.seed;
                for (const abi::Err err : config.errors) {
                    salt = salt * 6364136223846793005ULL +
                           (static_cast<std::uint64_t>(err) << 8 | (r + 1));
                    faults.arm_probabilistic("*", err, config.chaos_permille,
                                             salt);
                }
            });
        absorb_run(result, config,
                   CampaignRun{{"*", config.errors.empty()
                                         ? abi::Err::EIO_
                                         : config.errors.front(),
                                0},
                               true, 0, 0, 0},
                   outcome);
    }

    // ---- coverage delta ------------------------------------------------
    for (const auto& out : result.aggregate.outputs) {
        const core::OutputCoverage* base_out =
            result.baseline.find_output(out.base);
        for (const auto& row : out.hist.rows()) {
            if (row.count == 0 || !is_errno_label(row.label)) continue;
            const std::uint64_t before =
                base_out ? base_out->hist.count(row.label) : 0;
            if (before == 0)
                result.new_output_partitions.push_back(out.base + ":" +
                                                       row.label);
        }
    }
    // Canonical (lexicographic) order: the loop above walks reports in
    // registry order, which is only incidentally stable — sort so the
    // summary is a pure function of the partition set and golden-output
    // tests can lock it down.
    std::sort(result.new_output_partitions.begin(),
              result.new_output_partitions.end());
    return result;
}

std::string CampaignResult::summary() const {
    std::ostringstream os;
    os << "campaign: " << (sweep_runs + chaos_runs) << " injected runs ("
       << sweep_runs << " systematic of " << points_planned << " planned, "
       << chaos_runs << " chaos), " << faults_fired << " faults fired\n";
    os << "faithfulness: " << unfaithful_runs << " unfaithful run(s)\n";
    os << "fsck: " << fsck_violations << " violation(s) across injected runs"
       << ", " << baseline_fsck_violations << " in baseline\n";
    for (const auto& d : fsck_details) os << "  " << d << "\n";
    os << "new errno output partitions: " << new_output_partitions.size()
       << "\n";
    for (const auto& p : new_output_partitions) os << "  + " << p << "\n";
    os << "verdict: " << (clean() ? "CLEAN" : "VIOLATIONS") << "\n";
    return os.str();
}

}  // namespace iocov::testers
