// EffectLog: the recorded WAL of one workload run.
//
// Installed on a FileSystem via set_effect_observer(), it accumulates
// every durable effect the workload produced, and exposes the barrier
// segmentation the crash-point enumerator works over: the log is a
// sequence of *epochs*, each a run of effects terminated by a Barrier
// record (the final epoch may be open, i.e. never synced).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "vfs/effect.hpp"

namespace iocov::testers::crash {

class EffectLog final : public vfs::EffectObserver {
  public:
    void on_effect(const vfs::Effect& effect) override {
        effects_.push_back(effect);
    }

    const std::vector<vfs::Effect>& effects() const { return effects_; }
    std::size_t size() const { return effects_.size(); }
    bool empty() const { return effects_.empty(); }
    void clear() { effects_.clear(); }

    /// Indices of Barrier records, ascending.
    std::vector<std::size_t> barrier_positions() const;

    /// One run of mutations ending at a barrier (or at EOF).
    struct Epoch {
        std::size_t begin = 0;    ///< first effect index (inclusive)
        std::size_t end = 0;      ///< one past the last mutation (the
                                  ///< barrier's index, or log size)
        std::size_t barrier = 0;  ///< index of the terminating Barrier
        bool has_barrier = false; ///< false only for the open tail epoch

        std::size_t length() const { return end - begin; }
    };

    /// Barrier segmentation, in log order.  Always returns at least the
    /// open tail epoch (possibly empty) so enumeration code need not
    /// special-case an unsynced log.
    std::vector<Epoch> epochs() const;

  private:
    std::vector<vfs::Effect> effects_;
};

}  // namespace iocov::testers::crash
