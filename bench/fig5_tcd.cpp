// Figure 5: Test Coverage Deviation (TCD) for open flags vs a uniform
// target, swept over target values.
//
// Paper reference points: below a target of ~5,237 tests per flag,
// CrashMonkey has the better (lower) TCD; above it, xfstests wins.
// The crossover scales with workload volume, so at scale s the expected
// crossover is ~5,237 * s; the bench reports both.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/tcd.hpp"
#include "report/table.hpp"

int main() {
    using namespace iocov;
    const double scale = bench::env_scale();
    bench::print_banner("Figure 5",
                        "TCD for open flags vs uniform target", scale);

    const auto runs = bench::run_both(scale);
    const auto& cm = runs.crashmonkey.find_input("open", "flags")->hist;
    const auto& xfs = runs.xfstests.find_input("open", "flags")->hist;

    std::vector<std::vector<std::string>> rows;
    for (double exp = 0.0; exp <= 7.0; exp += 0.5) {
        const double target = std::pow(10.0, exp) * scale;
        rows.push_back({"10^" + report::fixed(exp, 1) + " * scale",
                        report::fixed(core::tcd_uniform(cm, target), 3),
                        report::fixed(core::tcd_uniform(xfs, target), 3)});
    }
    std::printf("%s\n",
                report::render_table({"target", "CrashMonkey TCD",
                                      "xfstests TCD"},
                                     rows)
                    .c_str());

    // Binary-search the crossover target where the two TCDs meet.
    double lo = 1e-6, hi = 1e9;
    for (int i = 0; i < 200; ++i) {
        const double mid = std::sqrt(lo * hi);
        const double d = core::tcd_uniform(cm, mid) -
                         core::tcd_uniform(xfs, mid);
        if (d < 0) lo = mid;  // CrashMonkey still better
        else hi = mid;
    }
    const double crossover = std::sqrt(lo * hi);
    std::printf("measured crossover target: %.0f\n", crossover);
    std::printf("paper crossover (5,237) scaled to this run: %.0f\n",
                5237.0 * scale);
    const bool matches = core::tcd_uniform(cm, crossover / 10) <
                             core::tcd_uniform(xfs, crossover / 10) &&
                         core::tcd_uniform(cm, crossover * 10) >
                             core::tcd_uniform(xfs, crossover * 10);
    std::printf("CrashMonkey better below the crossover, xfstests better "
                "above: %s\n",
                matches ? "yes (matches paper)" : "NO");
    // The paper's claim is the gate: exit 1 when it does not hold.
    return matches ? 0 : 1;
}
