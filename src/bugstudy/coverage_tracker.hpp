// Code-coverage tracker: the Gcov stand-in for the bug study.
//
// Implements the VFS instrumentation hooks: every probe() hit is counted
// per site, giving "did the suite execute this code region" at function,
// line, and branch granularity (sites are named "fn", "fn:line-ish",
// "fn:branch").  It never fails a site: inject() only counts it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "vfs/hooks.hpp"

namespace iocov::bugstudy {

class CoverageTracker final : public vfs::VfsHooks {
  public:
    void probe(std::string_view site) override;
    std::optional<abi::Err> inject(std::string_view site) override;

    /// Number of times `site` executed.
    std::uint64_t hits(std::string_view site) const;
    bool covered(std::string_view site) const { return hits(site) > 0; }

    /// All sites with nonzero hits.
    const std::map<std::string, std::uint64_t>& sites() const {
        return counts_;
    }

    std::size_t distinct_sites() const { return counts_.size(); }
    void reset() { counts_.clear(); }

  private:
    std::map<std::string, std::uint64_t> counts_;
};

}  // namespace iocov::bugstudy
