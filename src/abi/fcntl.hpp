// open(2) flags, AT_* constants, and openat2(2) RESOLVE_* flags
// (Linux x86-64 numbering, octal as in the kernel headers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

// Drop the host <fcntl.h> macros: these constants are the library's own
// self-contained ABI definitions.  Include the system header first so
// its include guard prevents any later re-introduction of the macros.
#include <fcntl.h>  // IWYU pragma: keep
#undef O_RDONLY
#undef O_WRONLY
#undef O_RDWR
#undef O_ACCMODE
#undef O_CREAT
#undef O_EXCL
#undef O_NOCTTY
#undef O_TRUNC
#undef O_APPEND
#undef O_NONBLOCK
#undef O_DSYNC
#undef O_ASYNC
#undef O_DIRECT
#undef O_LARGEFILE
#undef O_DIRECTORY
#undef O_NOFOLLOW
#undef O_NOATIME
#undef O_CLOEXEC
#undef O_SYNC
#undef O_PATH
#undef O_TMPFILE
#undef AT_FDCWD
#undef AT_SYMLINK_NOFOLLOW
#undef AT_SYMLINK_FOLLOW
#undef AT_EMPTY_PATH

namespace iocov::abi {

/// Open flags. O_RDONLY/O_WRONLY/O_RDWR form the 2-bit access mode; all
/// other flags OR in.  Values match Linux/x86-64 so traces look native.
enum OpenFlag : std::uint32_t {
    O_RDONLY = 00000000,
    O_WRONLY = 00000001,
    O_RDWR = 00000002,
    O_ACCMODE = 00000003,
    O_CREAT = 00000100,
    O_EXCL = 00000200,
    O_NOCTTY = 00000400,
    O_TRUNC = 00001000,
    O_APPEND = 00002000,
    O_NONBLOCK = 00004000,
    O_DSYNC = 00010000,
    O_ASYNC = 00020000,
    O_DIRECT = 00040000,
    O_LARGEFILE = 00100000,
    O_DIRECTORY = 00200000,
    O_NOFOLLOW = 00400000,
    O_NOATIME = 01000000,
    O_CLOEXEC = 02000000,
    // __O_SYNC | O_DSYNC, as in the kernel.
    O_SYNC = 04000000 | O_DSYNC,
    O_PATH = 010000000,
    // __O_TMPFILE | O_DIRECTORY.
    O_TMPFILE = 020000000 | O_DIRECTORY,
};

/// One row of the open-flag partition space: name + bit pattern.
struct OpenFlagInfo {
    const char* name;
    std::uint32_t bits;
    /// True for the access-mode "flags" (O_RDONLY/O_WRONLY/O_RDWR) which
    /// are a 2-bit field, not independent bits.
    bool access_mode;
};

/// All open-flag partitions in the order of the paper's Fig. 2 x-axis
/// (22 entries: 3 access modes + 19 OR-able flags).
const std::vector<OpenFlagInfo>& open_flag_table();

/// Upper bound on the labels one flags word can decompose into (one
/// access mode + every OR-able flag, rounded up for headroom).
inline constexpr std::size_t kMaxOpenFlagLabels = 24;

/// Decomposes a flags word into the open_flag_table() indices of the
/// flags it contains, writing up to `cap` of them into `out` and
/// returning the count (the paper's Table 1 statistic: a lone O_RDONLY
/// counts as one flag).  The access mode contributes exactly one index
/// and comes first; composite flags (O_SYNC, O_TMPFILE) absorb their
/// contained bits so O_SYNC does not also report O_DSYNC.  cap >=
/// kMaxOpenFlagLabels never truncates.  Allocation-free: this is the
/// analyzer's per-event path.
std::size_t open_flag_indices(std::uint32_t flags, std::uint16_t* out,
                              std::size_t cap);

// Directory-fd sentinel and lookup-control flags for the *at() variants.
inline constexpr int AT_FDCWD = -100;
inline constexpr std::uint32_t AT_SYMLINK_NOFOLLOW = 0x100;
inline constexpr std::uint32_t AT_SYMLINK_FOLLOW = 0x400;
inline constexpr std::uint32_t AT_EMPTY_PATH = 0x1000;

// openat2(2) resolve flags.
inline constexpr std::uint64_t RESOLVE_NO_XDEV = 0x01;
inline constexpr std::uint64_t RESOLVE_NO_MAGICLINKS = 0x02;
inline constexpr std::uint64_t RESOLVE_NO_SYMLINKS = 0x04;
inline constexpr std::uint64_t RESOLVE_BENEATH = 0x08;
inline constexpr std::uint64_t RESOLVE_IN_ROOT = 0x10;
inline constexpr std::uint64_t RESOLVE_CACHED = 0x20;
inline constexpr std::uint64_t RESOLVE_VALID_MASK = 0x3f;

/// openat2(2) argument block (struct open_how).
struct OpenHow {
    std::uint64_t flags = 0;
    std::uint64_t mode = 0;
    std::uint64_t resolve = 0;
};

}  // namespace iocov::abi
