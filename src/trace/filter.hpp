// Trace filter: keeps only syscalls aimed at the file system under test.
//
// A tracer records *every* syscall a tester makes, including ones against
// the build tree, /proc, temporary files, etc.  Like the real IOCov, we
// filter by mount point before analysis.  Path-less
// syscalls (read/write/close/... on a file descriptor) cannot be matched
// textually, so the filter is stateful: it watches fds returned by admitted
// open-family calls and admits subsequent fd-based calls on those fds.
// This mirrors how one reconstructs fd provenance from an LTTng trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace iocov::trace {

/// Filter configuration: literal directory prefixes.  A path matches
/// prefix P when it equals P or starts with P + "/", so "/mnt/test"
/// covers "/mnt/test/a" but not "/mnt/testsuffix".  `include` selects
/// in-scope paths; `exclude` vetoes paths even when an include matched
/// (useful to drop a tester's scratch subdirectory).
struct FilterConfig {
    std::vector<std::string> include;
    std::vector<std::string> exclude;

    /// The paper's xfstests setup: everything under `mount`.  Trailing
    /// slashes are ignored, so "/mnt/test/" means "/mnt/test" and "/"
    /// admits every absolute path.
    static FilterConfig mount_point(const std::string& mount);
};

class TraceFilter {
  public:
    explicit TraceFilter(const FilterConfig& config);

    /// Decides whether `event` targets the file system under test,
    /// updating fd-watch state as a side effect.  Events must be fed in
    /// trace order (fd admission depends on the preceding opens).
    bool admit(const TraceEvent& event);

    /// Convenience: runs admit() over a whole trace, returning the kept
    /// events. Resets state first so a filter can be reused.
    std::vector<TraceEvent> filter(const std::vector<TraceEvent>& events);

    /// Forgets all watched fds (e.g. between test-suite runs).
    void reset();

  private:
    /// Sorted-vector fd set.  A process keeps a handful of fds open, so
    /// binary search beats a node-based std::set and — the point for
    /// the ingest hot path — insert/erase reuse the vector's capacity
    /// instead of allocating a node per open (steady-state admit()
    /// performs zero heap allocations; tests/test_batch_decode.cpp
    /// asserts it through the exec allocation hook).
    class FdSet {
      public:
        bool contains(std::int64_t fd) const {
            return std::binary_search(fds_.begin(), fds_.end(), fd);
        }
        void insert(std::int64_t fd) {
            auto it = std::lower_bound(fds_.begin(), fds_.end(), fd);
            if (it == fds_.end() || *it != fd) fds_.insert(it, fd);
        }
        void erase(std::int64_t fd) {
            auto it = std::lower_bound(fds_.begin(), fds_.end(), fd);
            if (it != fds_.end() && *it == fd) fds_.erase(it);
        }
        std::size_t size() const { return fds_.size(); }

      private:
        std::vector<std::int64_t> fds_;
    };

    bool path_in_scope(const std::string& path) const;

    FilterConfig config_;
    /// pid -> set of fds opened within the mount point.
    std::map<std::uint32_t, FdSet> watched_;
    /// pid -> whether its cwd is inside the mount point (tracked via
    /// chdir/fchdir so relative paths resolve correctly).
    std::map<std::uint32_t, bool> cwd_in_scope_;
};

}  // namespace iocov::trace
