// Figure 4: output coverage of open (success + 27 documented error
// codes) for CrashMonkey and xfstests.
//
// Paper reference points: xfstests covers more error codes than
// CrashMonkey for every code except ENOTDIR; many codes stay untested
// by both.
#include <cstdio>

#include "abi/errno.hpp"
#include "common.hpp"
#include "report/table.hpp"

int main() {
    using namespace iocov;
    const double scale = bench::env_scale();
    bench::print_banner("Figure 4",
                        "output coverage of open (success + error codes)",
                        scale);

    const auto runs = bench::run_both(scale);
    const auto* cm = runs.crashmonkey.find_output("open");
    const auto* xfs = runs.xfstests.find_output("open");

    std::printf("%s\n",
                report::render_comparison("CrashMonkey", cm->hist,
                                          "xfstests", xfs->hist)
                    .c_str());

    bool xfs_wins_except_enotdir = true;
    for (const auto& row : xfs->hist.rows()) {
        if (row.label == "OK" || row.label == "ENOTDIR") continue;
        if (row.count < cm->hist.count(row.label))
            xfs_wins_except_enotdir = false;
    }
    const bool enotdir_cm_ahead =
        cm->hist.count("ENOTDIR") > xfs->hist.count("ENOTDIR");
    const bool matches = xfs_wins_except_enotdir && enotdir_cm_ahead;
    std::printf("xfstests covers >= CrashMonkey on every error code except "
                "ENOTDIR: %s\n",
                matches ? "yes (matches paper)" : "NO");
    std::printf("error codes untested by both: ");
    std::size_t untested_both = 0;
    for (abi::Err e : abi::open_manpage_errors()) {
        const auto name = abi::err_name(e);
        if (cm->hist.count(name) == 0 && xfs->hist.count(name) == 0) {
            std::printf("%s ", name.c_str());
            ++untested_both;
        }
    }
    std::printf("(%zu of 27)\n", untested_both);
    // The paper's claim is the gate: exit 1 when it does not hold.
    return matches ? 0 : 1;
}
