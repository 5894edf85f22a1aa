// Table 1: percentage of opens using 1..6 flags together, for all opens
// and for opens including O_RDONLY.
//
// Paper reference rows:
//   CrashMonkey all:      9.3  2.8 22.1 65.4 0.5 0
//   CrashMonkey O_RDONLY: 9.3  2.8 21.9 65.6 0.5 0
//   xfstests all:         6.1 28.2 18.2 46.8 0.5 0.4
//   xfstests O_RDONLY:    6.0 30.8 10.5 51.9 0.5 0.3
#include <cstdint>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "report/table.hpp"

namespace {

std::vector<std::string> percent_row(
    const std::string& name, const iocov::stats::PartitionHistogram& hist) {
    const auto total = static_cast<double>(hist.total());
    std::vector<std::string> row{name};
    for (const char* k : {"1", "2", "3", "4", "5", "6"}) {
        const double pct =
            total ? 100.0 * static_cast<double>(hist.count(k)) / total : 0.0;
        row.push_back(iocov::report::fixed(pct, 1));
    }
    return row;
}

}  // namespace

int main() {
    using namespace iocov;
    const double scale = bench::env_scale();
    bench::print_banner("Table 1",
                        "open flag-combination cardinality (percent)",
                        scale);

    const auto runs = bench::run_both(scale);
    const auto* cm = runs.crashmonkey.find_input("open", "flags");
    const auto* xfs = runs.xfstests.find_input("open", "flags");

    std::vector<std::vector<std::string>> rows = {
        percent_row("CrashMonkey: all flags", cm->combo_cardinality),
        percent_row("CrashMonkey: O_RDONLY", cm->combo_cardinality_rdonly),
        percent_row("xfstests: all flags", xfs->combo_cardinality),
        percent_row("xfstests: O_RDONLY", xfs->combo_cardinality_rdonly),
    };
    std::printf("%s\n",
                report::render_table(
                    {"Test Suite / % for #flags", "1", "2", "3", "4", "5",
                     "6"},
                    rows)
                    .c_str());

    std::printf("paper: CM all    9.3  2.8 22.1 65.4 0.5 0.0\n");
    std::printf("paper: CM RDONLY 9.3  2.8 21.9 65.6 0.5 0.0\n");
    std::printf("paper: xfs all   6.1 28.2 18.2 46.8 0.5 0.4\n");
    std::printf("paper: xfs RDONLY 6.0 30.8 10.5 51.9 0.5 0.3\n");

    // The paper's observations: both suites max out at 6 flags; 4-flag
    // combos dominate; CrashMonkey's runner-up is 3 flags, xfstests' is
    // 2 flags.
    auto second_most = [](const stats::PartitionHistogram& h) {
        std::string best1, best2;
        std::uint64_t c1 = 0, c2 = 0;
        for (const auto& row : h.rows()) {
            if (row.count > c1) {
                best2 = best1; c2 = c1;
                best1 = row.label; c1 = row.count;
            } else if (row.count > c2) {
                best2 = row.label; c2 = row.count;
            }
        }
        return best2;
    };
    const std::string cm_mode = cm->combo_cardinality.max_row()->label;
    const std::string xfs_mode = xfs->combo_cardinality.max_row()->label;
    const std::string cm_second = second_most(cm->combo_cardinality);
    const std::string xfs_second = second_most(xfs->combo_cardinality);
    const std::uint64_t cm_7 = cm->combo_cardinality.count("7+");
    const std::uint64_t xfs_7 = xfs->combo_cardinality.count("7+");
    std::printf("\nmost common combo size: CM=%s xfs=%s (paper: 4 / 4)\n",
                cm_mode.c_str(), xfs_mode.c_str());
    std::printf("second most common:     CM=%s xfs=%s (paper: 3 / 2)\n",
                cm_second.c_str(), xfs_second.c_str());
    std::printf("7+ flag combinations:   CM=%llu xfs=%llu (paper: none)\n",
                static_cast<unsigned long long>(cm_7),
                static_cast<unsigned long long>(xfs_7));
    // The three observations are the gate: exit 1 when any fails.
    const bool holds = cm_mode == "4" && xfs_mode == "4" &&
                       cm_second == "3" && xfs_second == "2" && cm_7 == 0 &&
                       xfs_7 == 0;
    return holds ? 0 : 1;
}
