#include "abi/fcntl.hpp"

#include <array>

namespace iocov::abi {

const std::vector<OpenFlagInfo>& open_flag_table() {
    static const std::vector<OpenFlagInfo> kTable = {
        {"O_RDONLY", O_RDONLY, true},
        {"O_WRONLY", O_WRONLY, true},
        {"O_RDWR", O_RDWR, true},
        {"O_CREAT", O_CREAT, false},
        {"O_EXCL", O_EXCL, false},
        {"O_NOCTTY", O_NOCTTY, false},
        {"O_TRUNC", O_TRUNC, false},
        {"O_APPEND", O_APPEND, false},
        {"O_NONBLOCK", O_NONBLOCK, false},
        {"O_DSYNC", O_DSYNC, false},
        {"O_ASYNC", O_ASYNC, false},
        {"O_DIRECT", O_DIRECT, false},
        {"O_LARGEFILE", O_LARGEFILE, false},
        {"O_DIRECTORY", O_DIRECTORY, false},
        {"O_NOFOLLOW", O_NOFOLLOW, false},
        {"O_NOATIME", O_NOATIME, false},
        {"O_CLOEXEC", O_CLOEXEC, false},
        {"O_SYNC", O_SYNC, false},
        {"O_PATH", O_PATH, false},
        {"O_TMPFILE", O_TMPFILE, false},
    };
    return kTable;
}

std::size_t open_flag_indices(std::uint32_t flags, std::uint16_t* out,
                              std::size_t cap) {
    // Visit order: the access modes, then the composite flags, so that
    // O_SYNC absorbs O_DSYNC and O_TMPFILE absorbs O_DIRECTORY (matching
    // how the kernel distinguishes them), then the rest in table order.
    // Built once, in an array: this is the analyzer's per-event path,
    // which must not allocate.
    const auto& table = open_flag_table();
    static const auto kOrder = [&table] {
        std::array<std::uint16_t, kMaxOpenFlagLabels> order{};
        std::size_t n = 0;
        for (int rank = 0; rank < 3; ++rank)
            for (std::size_t i = 0; i < table.size(); ++i) {
                const std::uint32_t bits = table[i].bits;
                const bool composite = bits == O_SYNC || bits == O_TMPFILE;
                if (rank == (table[i].access_mode ? 0 : composite ? 1 : 2))
                    order[n++] = static_cast<std::uint16_t>(i);
            }
        return order;
    }();
    // Exactly one access mode.  The kernel treats mode 3 as invalid; we
    // report it as O_RDWR for coverage purposes (the syscall layer
    // rejects it with EINVAL).
    const std::uint32_t mode =
        (flags & O_ACCMODE) == O_ACCMODE ? O_RDWR : flags & O_ACCMODE;
    std::uint32_t rest = flags & ~O_ACCMODE;
    std::size_t n = 0;
    for (std::size_t k = 0; k < table.size(); ++k) {
        const std::uint16_t i = kOrder[k];
        const auto& info = table[i];
        if (info.access_mode ? info.bits != mode
                             : (rest & info.bits) != info.bits)
            continue;
        if (n < cap) out[n++] = i;
        if (!info.access_mode) rest &= ~info.bits;
    }
    return n;
}

}  // namespace iocov::abi
