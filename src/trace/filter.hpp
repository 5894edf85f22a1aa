// Trace filter: keeps only syscalls aimed at the file system under test.
//
// A tracer records *every* syscall a tester makes, including ones against
// the build tree, /proc, temporary files, etc.  Like the real IOCov, we
// filter by mount point before analysis.  Path-less
// syscalls (read/write/close/... on a file descriptor) cannot be matched
// textually, so the filter is stateful: it watches fds returned by admitted
// open-family calls and admits subsequent fd-based calls on those fds.
// This mirrors how one reconstructs fd provenance from an LTTng trace.
//
// The admit logic reads one small projection of a call, FilterCall.  A
// TraceEvent projects onto it by argument name.  A decoded IOCT row
// projects onto it with three indexed loads: the keyed decode already
// stamped the row with the positions of its first pathname, dfd and fd
// arguments (trace/binary_format.hpp), and the role of its syscall is
// resolved once per trace file (core/syscall_table).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/binary_format.hpp"
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

/// What a syscall does to the filter's per-pid state.
enum class SyscallRole : std::uint8_t {
    Other,   ///< reads state only
    Open,    ///< open family: a successful in-scope call watches its fd
    Chdir,   ///< sets the cwd scope from its pathname
    Fchdir,  ///< sets the cwd scope from a watched fd
    Close,   ///< unwatches its fd
};

/// Every syscall name with a role other than Other.
std::span<const std::pair<std::string_view, SyscallRole>> syscall_roles();
SyscallRole syscall_role(std::string_view name);

/// The part of one call the filter reads: pid, role, return value and
/// the first argument named pathname, dfd and fd (Missing when absent).
struct FilterCall {
    std::uint32_t pid = 0;
    SyscallRole role = SyscallRole::Other;
    std::int64_t ret = 0;
    ArgView pathname, dfd, fd;

    /// Projection by argument name.
    static FilterCall of(const TraceEvent& event);

    /// Projection of row `r` of a keyed decode (`batch.keyed`):
    /// `role` is its syscall's, and `strings` the table it was decoded
    /// against.
    static FilterCall of(const EventBatch& batch, std::size_t r,
                         const std::vector<std::string_view>& strings,
                         SyscallRole role) {
        assert(batch.keyed && "a keyless decode stamps no positions");
        const BatchRow& row = batch.rows[r];
        const BatchArg* args = batch.args.data() + row.arg_begin;
        const auto at = [&](FilterKey key) {
            const std::uint8_t i = row.first_arg[key];
            return i == kNoArg ? ArgView() : args[i].view(strings);
        };
        return {row.pid, role, row.ret, at(kPathnameKey), at(kDfdKey),
                at(kFdKey)};
    }
};

class TraceFilter {
  public:
    explicit TraceFilter(const FilterConfig& config);

    /// Decides whether `call` targets the file system under test,
    /// updating fd-watch state as a side effect.  Calls must be fed in
    /// trace order (fd admission depends on the preceding opens).
    bool admit(const FilterCall& call);

    /// admit(FilterCall::of(event)).
    bool admit(const TraceEvent& event) { return admit(FilterCall::of(event)); }

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

      private:
        std::vector<std::int64_t> fds_;
    };

    /// What the filter knows about one pid: the fds it opened within
    /// the mount point, and whether its cwd is inside it (tracked via
    /// chdir/fchdir so relative paths resolve correctly).
    struct PidState {
        std::uint32_t pid = 0;
        bool cwd_in_scope = false;
        FdSet watched;
    };

    /// The state of `pid`, or nullptr: a pid gets an entry only once it
    /// has state.
    PidState* find(std::uint32_t pid);
    PidState& find_or_add(std::uint32_t pid);

    bool path_in_scope(std::string_view path) const;

    FilterConfig config_;
    /// One flat table of the pids that have state.  Pids come from
    /// untrusted files, so nothing is sized or indexed by a pid value:
    /// `slots_` is an open-addressing hash index (power-of-two size,
    /// at most half full) of positions in `pids_` plus one, 0 = empty.
    /// Traces interleave a handful of pids, so the last hit is checked
    /// first.
    std::vector<PidState> pids_;
    std::vector<std::uint32_t> slots_;
    std::size_t last_ = 0;
};

}  // namespace iocov::trace
