// Deterministic RNG for workload generation.
//
// SplitMix64: tiny, fast, and identical on every platform (std::
// distributions are not guaranteed reproducible across libstdc++
// versions, and reproducible traces are the point of the simulators).
#pragma once

#include <cassert>
#include <cstdint>

namespace iocov::testers {

class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ULL) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Uniform in [0, n); n must be > 0.
    std::uint64_t below(std::uint64_t n) {
        assert(n > 0);
        return next() % n;
    }

    /// Uniform in [lo, hi] inclusive.
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
        assert(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /// True with probability num/den.
    bool chance(std::uint64_t num, std::uint64_t den) {
        return below(den) < num;
    }

  private:
    std::uint64_t state_;
};

}  // namespace iocov::testers
