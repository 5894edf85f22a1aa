#include "vfs/fault.hpp"

#include <algorithm>

namespace iocov::vfs {

namespace {

/// SplitMix64 step (same generator as testers::Rng, inlined here so the
/// VFS layer stays dependency-free).  Identical on every platform —
/// probabilistic faults must replay exactly under the campaign's seed.
std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool matches(const std::string& armed_op, std::string_view op) {
    return armed_op == "*" || armed_op == op;
}

}  // namespace

void FaultInjector::arm(std::string op, abi::Err err, unsigned skip) {
    one_shots_.push_back({std::move(op), err, skip});
}

void FaultInjector::arm_probabilistic(std::string op, abi::Err err,
                                      unsigned permille,
                                      std::uint64_t seed) {
    if (permille > 1000) permille = 1000;
    probabilistics_.push_back({std::move(op), err, permille, seed});
}

std::optional<abi::Err> FaultInjector::check(std::string_view op) {
    // One-shots form a queue per call: only the frontmost matching
    // entry is consulted, so a single call never decrements the skip of
    // several queued entries at once (arming "*" twice with skip=1 must
    // fire on the 2nd and 3rd calls, not twice on the 2nd).
    for (auto it = one_shots_.begin(); it != one_shots_.end(); ++it) {
        if (!matches(it->op, op)) continue;
        if (it->skip > 0) {
            --it->skip;
            break;  // this call is consumed as a skip; queue intact
        }
        const abi::Err err = it->err;
        one_shots_.erase(it);
        record_fired(op, err);
        return err;
    }
    for (auto& p : probabilistics_) {
        if (!matches(p.op, op)) continue;
        if (p.permille > 0 && splitmix64(p.rng_state) % 1000 < p.permille) {
            record_fired(op, p.err);
            return p.err;
        }
    }
    return std::nullopt;
}

bool FaultInjector::disarm(std::string_view op, abi::Err err) {
    for (auto it = one_shots_.begin(); it != one_shots_.end(); ++it) {
        if (it->op == op && it->err == err) {
            one_shots_.erase(it);
            return true;
        }
    }
    return false;
}

void FaultInjector::record_fired(std::string_view op, abi::Err err) {
    ++fired_total_;
    auto it = std::lower_bound(
        fired_.begin(), fired_.end(), std::make_pair(op, err),
        [](const FiredStat& a, const std::pair<std::string_view, abi::Err>& b) {
            if (a.op != b.first) return a.op < b.first;
            return static_cast<int>(a.err) < static_cast<int>(b.second);
        });
    if (it != fired_.end() && it->op == op && it->err == err) {
        ++it->count;
        return;
    }
    fired_.insert(it, {std::string(op), err, 1});
}

std::vector<FaultInjector::FiredStat> FaultInjector::stats() const {
    return fired_;
}

}  // namespace iocov::vfs
