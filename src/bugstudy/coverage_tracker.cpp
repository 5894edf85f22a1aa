#include "bugstudy/coverage_tracker.hpp"

namespace iocov::bugstudy {

void CoverageTracker::probe(std::string_view site) {
    ++counts_[std::string(site)];
}

std::optional<abi::Err> CoverageTracker::inject(std::string_view site) {
    ++counts_[std::string(site)];  // an injected site was also executed
    return std::nullopt;
}

std::uint64_t CoverageTracker::hits(std::string_view site) const {
    auto it = counts_.find(std::string(site));
    return it == counts_.end() ? 0 : it->second;
}

}  // namespace iocov::bugstudy
