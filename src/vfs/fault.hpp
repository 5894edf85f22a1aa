// Deterministic fault injection for hard-to-reach error paths.
//
// Some errno values cannot arise from argument validation alone — ENOMEM
// needs memory pressure, EIO a bad disk, EINTR a signal.  The paper
// notes these are the hardest outputs to cover.  FaultInjector lets a
// test or workload arm "the Nth next call to syscall X fails with E"
// or a seeded probabilistic fault ("each matching call fails with
// probability p"), and records which faults actually fired so campaigns
// can verify injection coverage.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abi/errno.hpp"

namespace iocov::vfs {

class FaultInjector {
  public:
    /// Arms a one-shot fault: after `skip` matching calls pass through,
    /// the next call whose operation name equals `op` (or any call, for
    /// op == "*") fails with `err`.  Armed one-shots form a queue: a
    /// call is counted against (and can fire) only the frontmost
    /// matching entry, so arming the same op twice yields two distinct
    /// consecutive faults, not two counters racing on the same call.
    void arm(std::string op, abi::Err err, unsigned skip = 0);

    /// Arms a probabilistic fault: each matching call fails with
    /// probability `permille`/1000, driven by a private SplitMix64
    /// stream seeded with `seed` — the same seed over the same call
    /// sequence fires the same faults (reproducible chaos runs).
    void arm_probabilistic(std::string op, abi::Err err, unsigned permille,
                           std::uint64_t seed);

    /// Consults the injector; returns the errno to fail with, if any.
    std::optional<abi::Err> check(std::string_view op);

    /// Removes the first armed one-shot matching (op, err) exactly.
    /// Returns false if none was armed (it already fired or never was).
    bool disarm(std::string_view op, abi::Err err);

    bool empty() const {
        return one_shots_.empty() && probabilistics_.empty();
    }

    // ---- fired-fault statistics -------------------------------------

    /// One (op, errno) row of fired-fault counts.
    struct FiredStat {
        std::string op;
        abi::Err err;
        std::uint64_t count = 0;
    };

    /// Every fault fired since construction, sorted by (op, errno
    /// value) so identical runs report identically.
    std::vector<FiredStat> stats() const;

    std::uint64_t fired_total() const { return fired_total_; }

  private:
    struct OneShot {
        std::string op;
        abi::Err err;
        unsigned skip;
    };
    struct Probabilistic {
        std::string op;
        abi::Err err;
        unsigned permille;
        std::uint64_t rng_state;
    };

    void record_fired(std::string_view op, abi::Err err);

    std::deque<OneShot> one_shots_;
    std::deque<Probabilistic> probabilistics_;
    /// Sorted by (op, errno value).
    std::vector<FiredStat> fired_;
    std::uint64_t fired_total_ = 0;
};

}  // namespace iocov::vfs
