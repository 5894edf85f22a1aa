// Load generator for `iocov serve`: one process, three connections.
//
//   small producer  closed loop: pushes small shards back to back under
//                   unique names, the next one only after the previous
//                   reply (a fleet of test runners that each wait).
//   large producer  open loop: pushes a large shard every 2 s, on
//                   schedule whatever the daemon's state (a periodic big
//                   xfstests run).
//   query client    open loop: `ping` at 200/s and `query report` at 5/s
//                   (independent dashboard users).
//
// Open-loop latencies are timed from each request's due time, so a
// stalled daemon loop counts against every request that fell due while
// it stalled; how late the generator itself sent is reported as
// gen_late.  A failed request (transport error, ERR reply, wrong event
// count) is counted and recorded as an infinite latency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay.hpp"

namespace perfbench {

struct LoadOptions {
    std::string socket;
    std::vector<ReplayFile> small;  ///< pool the small producer cycles
    std::vector<ReplayFile> large;  ///< pool the large producer cycles
    double seconds = 10;            ///< push phase length
    /// false: push every small file exactly once and stop (no large
    /// pushes, no queries) — the traced run's daemon pass.
    bool cycle = true;
    std::uint64_t seed = 1;
    /// Written with one "name<TAB>path" line per accepted push.
    std::string names_out;
};

/// Runs the load and returns its results as one JSON object.
std::string run_load(const LoadOptions& opt);

}  // namespace perfbench
