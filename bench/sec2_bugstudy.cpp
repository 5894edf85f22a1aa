// Section 2: the real-world bug study, recomputed against the
// instrumented VFS and the simulated xfstests run.
//
// Paper reference points (70 bugs: 51 ext4 + 19 btrfs):
//   * 53% of bugs (37/70) sat in line-covered code yet were missed;
//     61% (43/70) for function coverage; 29% (20/70) for branches.
//   * 71% input bugs (50/70), 59% output bugs (41/70), 81% either
//     (57/70).
//   * 65% (24/37) of the line-covered-but-missed bugs are triggerable
//     by specific syscall arguments.
#include <cstdio>

#include "bugstudy/study.hpp"
#include "common.hpp"
#include "report/table.hpp"

int main() {
    using namespace iocov;
    const double scale = bench::env_scale();
    bench::print_banner("Section 2",
                        "bug study: code coverage vs bug detection", scale);

    const auto r = bugstudy::run_bug_study({scale, 42});

    std::printf("corpus: %d bugs (%d ext4 + %d btrfs); xfstests-sim "
                "detected %d\n\n",
                r.total, r.ext4, r.btrfs, r.detected);

    std::vector<std::vector<std::string>> rows = {
        {"line coverage", std::to_string(r.line_cbm),
         report::fixed(r.pct(r.line_cbm), 0) + "%", "37/70 = 53%"},
        {"function coverage", std::to_string(r.fn_cbm),
         report::fixed(r.pct(r.fn_cbm), 0) + "%", "43/70 = 61%"},
        {"branch coverage", std::to_string(r.branch_cbm),
         report::fixed(r.pct(r.branch_cbm), 0) + "%", "20/70 = 29%"},
    };
    std::printf("%s\n",
                report::render_table({"covered-but-missed", "bugs",
                                      "measured", "paper"},
                                     rows)
                    .c_str());

    rows = {
        {"input bugs", std::to_string(r.input_bugs),
         report::fixed(r.pct(r.input_bugs), 0) + "%", "50/70 = 71%"},
        {"output bugs", std::to_string(r.output_bugs),
         report::fixed(r.pct(r.output_bugs), 0) + "%", "41/70 = 59%"},
        {"input or output", std::to_string(r.either_bugs),
         report::fixed(r.pct(r.either_bugs), 0) + "%", "57/70 = 81%"},
        {"both", std::to_string(r.both_bugs),
         report::fixed(r.pct(r.both_bugs), 0) + "%", "(34/70)"},
        {"neither", std::to_string(r.neither_bugs),
         report::fixed(r.pct(r.neither_bugs), 0) + "%", "(13/70)"},
    };
    std::printf("%s\n",
                report::render_table({"classification", "bugs", "measured",
                                      "paper"},
                                     rows)
                    .c_str());

    const double pct_trig =
        r.line_cbm ? 100.0 * r.cbm_input_triggerable / r.line_cbm : 0.0;
    std::printf("line-covered-but-missed bugs triggerable by specific "
                "arguments: %d/%d = %.0f%% (paper: 24/37 = 65%%)\n\n",
                r.cbm_input_triggerable, r.line_cbm, pct_trig);

    // The Fig. 1 marquee bug, spelled out.
    bool fig1_covered_but_missed = false;
    for (const auto& o : r.outcomes) {
        if (o.bug->id != "ext4-22-019") continue;
        std::printf("Fig. 1 bug (%s): %s\n", o.bug->id.c_str(),
                    o.bug->description.c_str());
        std::printf("  line/function/branch covered: %s/%s/%s — detected: "
                    "%s (paper: covered at all three levels, missed)\n",
                    o.line_covered ? "yes" : "no",
                    o.fn_covered ? "yes" : "no",
                    o.branch_covered ? "yes" : "no",
                    o.detected ? "YES" : "no");
        fig1_covered_but_missed = o.line_covered && o.fn_covered &&
                                  o.branch_covered && !o.detected;
    }

    // The paper's counts are the gate: exit 1 when one does not hold.
    const bool matches =
        r.total == 70 && r.ext4 == 51 && r.btrfs == 19 && r.line_cbm == 37 &&
        r.fn_cbm == 43 && r.branch_cbm == 20 && r.input_bugs == 50 &&
        r.output_bugs == 41 && r.either_bugs == 57 &&
        r.cbm_input_triggerable == 24 && fig1_covered_but_missed;
    return matches ? 0 : 1;
}
