// The injected-bug corpus: 70 synthetic bugs modeled on the paper's
// study of 2022 Ext4 and BtrFS bug-fix commits (51 + 19).
//
// Each bug records:
//  * the instrumented code regions it lives in, at three granularities
//    (function / line / branch sites of the VFS's probe instrumentation),
//    so the harness can ask "did the suite cover this code?" the way the
//    paper asked Gcov;
//  * a trigger predicate over trace events: "would this syscall, with
//    these arguments/results, have exposed the bug?".  A suite detects
//    the bug iff some event of its run satisfies the trigger — the
//    paper's notion that most bugs need *specific inputs* (often
//    boundary values) or manifest as *specific outputs* (error paths);
//  * its input-bug / output-bug classification.
//
// Marquee entries reproduce the paper's cited bugs: the Fig. 1
// lsetxattr maximum-size overflow in ext4_xattr_ibody_set, the
// O_LARGEFILE generic_file_open issue, BtrFS's NOWAIT buffered write
// returning ENOSPC, and ext4_get_branch's wrong error code on the exit
// path.  The rest follow the same recurring shapes the study found.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/syscall_table.hpp"
#include "trace/event.hpp"

namespace iocov::bugstudy {

struct Bug {
    std::string id;           ///< e.g. "ext4-22-031"
    std::string fs;           ///< "ext4" or "btrfs"
    std::string description;  ///< what the (modeled) commit fixed

    /// Instrumentation sites at the three coverage granularities.  An
    /// empty site means "not reachable at this granularity" (counts as
    /// uncovered).
    std::string function_site;
    std::string line_site;
    std::string branch_site;

    bool input_bug = false;   ///< needs specific syscall arguments
    bool output_bug = false;  ///< manifests on the exit/return path

    /// Human-readable statement of the trigger condition — the
    /// "triggers for each bug" column of the dataset the paper promises
    /// to release.  Empty for pure concurrency bugs (no syscall-level
    /// trigger).
    std::string trigger_description;

    /// True iff this trace event, resolved onto its base syscall, would
    /// have exposed the bug.  The harness resolves each event once and
    /// evaluates all 70 triggers against it.
    std::function<bool(const core::CanonicalView&)> trigger;
};

/// The full corpus: 51 ext4 + 19 btrfs bugs.
const std::vector<Bug>& bug_corpus();

/// Renders the corpus as the paper's promised public dataset: one
/// markdown table row per bug (id, fs, coverage sites, classification,
/// trigger, description).
std::string render_bug_dataset();

}  // namespace iocov::bugstudy
