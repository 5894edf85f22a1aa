#include "core/combos.hpp"

#include <algorithm>

#include "abi/fcntl.hpp"
#include "core/schema.hpp"

namespace iocov::core {

std::vector<std::string> feasible_open_flag_pairs() {
    const auto& flags = abi::open_flag_table();
    std::vector<std::string> out;
    for (std::size_t i = 0; i < flags.size(); ++i) {
        for (std::size_t j = i + 1; j < flags.size(); ++j) {
            const auto& a = flags[i];
            const auto& b = flags[j];
            // Two access modes share one 2-bit field.
            if (a.access_mode && b.access_mode) continue;
            // A composite flag (O_SYNC, O_TMPFILE) absorbs the flag its
            // bits contain, so decomposition never reports the pair.
            const std::uint32_t both = a.bits & b.bits;
            if (!a.access_mode && !b.access_mode &&
                (both == a.bits || both == b.bits))
                continue;
            out.push_back(open_flag_pair_label(a.name, b.name));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

PairCoverage open_flag_pair_coverage(const ArgCoverage& flags) {
    PairCoverage cov;
    const auto feasible = feasible_open_flag_pairs();
    cov.feasible = feasible.size();
    for (const auto& pair : feasible) {
        if (flags.pairs.count(pair) > 0) ++cov.tested;
        else cov.untested.push_back(pair);
    }
    cov.fraction = cov.feasible
                       ? static_cast<double>(cov.tested) /
                             static_cast<double>(cov.feasible)
                       : 0.0;
    return cov;
}

}  // namespace iocov::core
