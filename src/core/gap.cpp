#include "core/gap.hpp"

#include <map>
#include <tuple>

#include "core/tcd.hpp"
#include "core/untested.hpp"
#include "stats/rmsd.hpp"

namespace iocov::core {
namespace {

using SuggestionKey = std::tuple<int, std::string, std::string, std::string>;

SuggestionKey key_of(const UntestedPartition& u) {
    return {u.kind == UntestedPartition::Kind::Input ? 0 : 1, u.base, u.arg,
            u.partition};
}

/// Gaps for one space, in tcd_attribution order (deviation-ranked).
void append_gaps(std::vector<Gap>& out, Gap::Kind kind,
                 const std::string& base, const std::string& arg,
                 const stats::PartitionHistogram& hist, double target,
                 const std::map<SuggestionKey, std::string>& suggestions) {
    for (const TcdContribution& c :
         tcd_attribution_uniform(hist, target)) {
        if (!c.untested()) continue;
        Gap g;
        g.kind = kind;
        g.base = base;
        g.arg = arg;
        g.partition = c.label;
        g.tcd_share = c.deviation;
        const auto it = suggestions.find(
            {kind == Gap::Kind::Input ? 0 : 1, base, arg, c.label});
        if (it != suggestions.end()) g.suggestion = it->second;
        out.push_back(std::move(g));
    }
}

SpaceTcd space_of(const std::string& base, const std::string& arg,
                  const stats::PartitionHistogram& hist, double target) {
    SpaceTcd s;
    s.base = base;
    s.arg = arg;
    s.tcd = tcd_uniform(hist, target);
    s.declared = hist.partition_count();
    s.untested = hist.untested().size();
    return s;
}

}  // namespace

std::string Gap::id() const {
    return kind == Kind::Input ? base + "." + arg + ":" + partition
                               : base + ":" + partition;
}

GapReport extract_gaps(const CoverageReport& report, double target) {
    std::map<SuggestionKey, std::string> suggestions;
    for (const UntestedPartition& u : find_untested(report))
        suggestions.emplace(key_of(u), u.suggestion);

    GapReport out;
    out.target = target;
    std::vector<double> tcds;
    for (const ArgCoverage& in : report.inputs) {
        append_gaps(out.input_gaps, Gap::Kind::Input, in.base, in.key,
                    in.hist, target, suggestions);
        out.spaces.push_back(space_of(in.base, in.key, in.hist, target));
        tcds.push_back(out.spaces.back().tcd);
    }
    for (const OutputCoverage& o : report.outputs) {
        append_gaps(out.output_gaps, Gap::Kind::Output, o.base, "", o.hist,
                    target, suggestions);
        out.spaces.push_back(space_of(o.base, "", o.hist, target));
        tcds.push_back(out.spaces.back().tcd);
    }
    out.aggregate_tcd = stats::mean(tcds);
    return out;
}

}  // namespace iocov::core
