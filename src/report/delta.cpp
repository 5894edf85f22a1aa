#include "report/delta.hpp"

#include "core/tcd.hpp"
#include "report/table.hpp"
#include "stats/rmsd.hpp"

namespace iocov::report {
namespace {

std::size_t tested_count(const stats::PartitionHistogram& hist) {
    return hist.tested().size();
}

SpaceDelta make_delta(std::string space,
                      const stats::PartitionHistogram* before,
                      const stats::PartitionHistogram& after, double target) {
    SpaceDelta d;
    d.space = std::move(space);
    d.declared = after.partition_count();
    d.tested_after = tested_count(after);
    d.tcd_after = core::tcd_uniform(after, target);
    if (before) {
        d.tested_before = tested_count(*before);
        d.tcd_before = core::tcd_uniform(*before, target);
    } else {
        // Absent space = fully untested: every partition sits the full
        // log-distance from the target.
        d.tested_before = 0;
        d.tcd_before = stats::safe_log10(target);
    }
    return d;
}

}  // namespace

std::vector<SpaceDelta> coverage_deltas(const core::CoverageReport& before,
                                        const core::CoverageReport& after,
                                        double target) {
    std::vector<SpaceDelta> out;
    for (const core::ArgCoverage& in : after.inputs) {
        const core::ArgCoverage* b = before.find_input(in.base, in.key);
        out.push_back(make_delta(in.base + "." + in.key,
                                 b ? &b->hist : nullptr, in.hist, target));
    }
    for (const core::OutputCoverage& o : after.outputs) {
        const core::OutputCoverage* b = before.find_output(o.base);
        out.push_back(make_delta(o.base + " (out)", b ? &b->hist : nullptr,
                                 o.hist, target));
    }
    return out;
}

std::string render_coverage_delta(const std::vector<SpaceDelta>& deltas) {
    // Appended, not "+" + std::string&&: GCC 12 takes that for an
    // overlapping copy (-Wrestrict) in Release builds.
    const auto plus = [](std::size_t n) {
        std::string s = "+";
        return s += std::to_string(n);
    };
    std::vector<std::vector<std::string>> rows;
    std::size_t declared = 0, before = 0, after = 0;
    for (const SpaceDelta& d : deltas) {
        declared += d.declared;
        before += d.tested_before;
        after += d.tested_after;
        rows.push_back({d.space, std::to_string(d.declared),
                        std::to_string(d.tested_before),
                        std::to_string(d.tested_after),
                        plus(d.closed()),
                        fixed(d.tcd_before, 3), fixed(d.tcd_after, 3)});
    }
    rows.push_back({"TOTAL", std::to_string(declared),
                    std::to_string(before), std::to_string(after),
                    plus(after - before), "", ""});
    return render_table({"space", "parts", "tested<", "tested>", "closed",
                         "tcd<", "tcd>"},
                        rows);
}

}  // namespace iocov::report
