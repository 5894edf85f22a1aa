#include "testers/crash/effect_log.hpp"


namespace iocov::testers::crash {

std::vector<std::size_t> EffectLog::barrier_positions() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < effects_.size(); ++i)
        if (effects_[i].op == vfs::EffectOp::Barrier) out.push_back(i);
    return out;
}

std::vector<EffectLog::Epoch> EffectLog::epochs() const {
    std::vector<Epoch> out;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < effects_.size(); ++i) {
        if (effects_[i].op != vfs::EffectOp::Barrier) continue;
        Epoch e;
        e.begin = begin;
        e.end = i;
        e.barrier = i;
        e.has_barrier = true;
        out.push_back(e);
        begin = i + 1;
    }
    Epoch tail;
    tail.begin = begin;
    tail.end = effects_.size();
    tail.has_barrier = false;
    out.push_back(tail);
    return out;
}

}  // namespace iocov::testers::crash
