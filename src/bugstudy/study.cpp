#include "bugstudy/study.hpp"

#include "core/syscall_table.hpp"
#include "syscall/kernel.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/sink.hpp"

namespace iocov::bugstudy {

StudyResult evaluate_corpus(const CoverageTracker& tracker,
                            const std::vector<trace::TraceEvent>& events) {
    StudyResult r;

    // Resolve every event once onto its base syscall; evaluate all
    // triggers against the resolved views.
    const core::SyscallTable table(core::syscall_registry());
    std::vector<core::CanonicalView> canon;
    canon.reserve(events.size());
    for (const auto& ev : events)
        if (auto view = table.resolve(ev)) canon.push_back(*view);

    for (const Bug& bug : bug_corpus()) {
        BugOutcome o;
        o.bug = &bug;
        o.fn_covered =
            !bug.function_site.empty() && tracker.covered(bug.function_site);
        o.line_covered =
            !bug.line_site.empty() && tracker.covered(bug.line_site);
        o.branch_covered =
            !bug.branch_site.empty() && tracker.covered(bug.branch_site);
        for (const auto& ce : canon) {
            if (bug.trigger && bug.trigger(ce)) {
                o.detected = true;
                break;
            }
        }

        ++r.total;
        if (bug.fs == "ext4") ++r.ext4;
        else ++r.btrfs;
        if (o.detected) ++r.detected;
        if (!o.detected) {
            if (o.line_covered) ++r.line_cbm;
            if (o.fn_covered) ++r.fn_cbm;
            if (o.branch_covered) ++r.branch_cbm;
            if (o.line_covered && bug.input_bug) ++r.cbm_input_triggerable;
        }
        if (bug.input_bug) ++r.input_bugs;
        if (bug.output_bug) ++r.output_bugs;
        if (bug.input_bug || bug.output_bug) ++r.either_bugs;
        if (bug.input_bug && bug.output_bug) ++r.both_bugs;
        if (!bug.input_bug && !bug.output_bug) ++r.neither_bugs;

        r.outcomes.push_back(o);
    }
    return r;
}

StudyResult run_bug_study(const StudyOptions& options) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");

    // Attach instrumentation only for the suite run itself, the way the
    // paper resets Gcov counters before running xfstests.
    CoverageTracker tracker;
    fs.set_hooks(&tracker);

    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fs, &buffer);
    testers::run_xfstests(kernel, fx, options.scale, options.seed);

    fs.set_hooks(nullptr);
    return evaluate_corpus(tracker, buffer.events());
}

}  // namespace iocov::bugstudy
