#include "vfs/effect.hpp"

namespace iocov::vfs {

bool barrier_is_global(BarrierKind kind) {
    return kind == BarrierKind::Sync || kind == BarrierKind::Syncfs;
}

}  // namespace iocov::vfs
