// Figure 2: input coverage of open flags for CrashMonkey and xfstests.
//
// Paper reference points: O_RDONLY used 7,924 (CrashMonkey) and
// 4,099,770 (xfstests) times; xfstests exceeds CrashMonkey on every
// flag; several flags (e.g. O_LARGEFILE) are untested by both.
#include <cstdio>

#include "common.hpp"
#include "report/table.hpp"

int main() {
    using namespace iocov;
    const double scale = bench::env_scale();
    bench::print_banner("Figure 2",
                        "input coverage of open flags (CrashMonkey vs "
                        "xfstests)",
                        scale);

    const auto runs = bench::run_both(scale);
    const auto* cm = runs.crashmonkey.find_input("open", "flags");
    const auto* xfs = runs.xfstests.find_input("open", "flags");

    std::printf("%s\n",
                report::render_comparison("CrashMonkey", cm->hist,
                                          "xfstests", xfs->hist)
                    .c_str());

    std::printf("paper reference (scale 1.0): O_RDONLY = 7,924 "
                "(CrashMonkey) vs 4,099,770 (xfstests)\n");
    std::printf("measured at scale %.3g:      O_RDONLY = %s vs %s\n", scale,
                report::with_thousands(cm->hist.count("O_RDONLY")).c_str(),
                report::with_thousands(xfs->hist.count("O_RDONLY")).c_str());

    // Shape checks the paper asserts in prose.
    bool xfs_wins_everywhere = true;
    for (const auto& row : xfs->hist.rows()) {
        if (row.count < cm->hist.count(row.label) ||
            (row.count == 0 && cm->hist.count(row.label) > 0))
            xfs_wins_everywhere = false;
    }
    std::printf("xfstests >= CrashMonkey on every flag: %s\n",
                xfs_wins_everywhere ? "yes (matches paper)" : "NO");
    std::printf("untested by CrashMonkey: %zu flags; untested by xfstests: "
                "%zu flags\n",
                cm->hist.untested().size(), xfs->hist.untested().size());
    // The paper's claim is the gate: exit 1 when it does not hold.
    return xfs_wins_everywhere ? 0 : 1;
}
