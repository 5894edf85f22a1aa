// File mode bits: type field and permission bits (Linux numbering).
#pragma once

#include <cstdint>

// The host's <sys/stat.h> defines these names as macros; our constants
// are the library's own self-contained ABI.  Pull the system header in
// now (its include guard makes any later include a no-op) and drop the
// macros, so no other header can re-introduce them behind our back.
#include <sys/stat.h>  // IWYU pragma: keep
#undef S_IFMT
#undef S_IFSOCK
#undef S_IFLNK
#undef S_IFREG
#undef S_IFBLK
#undef S_IFDIR
#undef S_IFCHR
#undef S_IFIFO
#undef S_ISUID
#undef S_ISGID
#undef S_ISVTX
#undef S_IRWXU
#undef S_IRUSR
#undef S_IWUSR
#undef S_IXUSR
#undef S_IRWXG
#undef S_IRGRP
#undef S_IWGRP
#undef S_IXGRP
#undef S_IRWXO
#undef S_IROTH
#undef S_IWOTH
#undef S_IXOTH

namespace iocov::abi {

using mode_t_ = std::uint32_t;

// File-type field (S_IFMT).
inline constexpr mode_t_ S_IFMT = 0170000;
inline constexpr mode_t_ S_IFSOCK = 0140000;
inline constexpr mode_t_ S_IFLNK = 0120000;
inline constexpr mode_t_ S_IFREG = 0100000;
inline constexpr mode_t_ S_IFBLK = 0060000;
inline constexpr mode_t_ S_IFDIR = 0040000;
inline constexpr mode_t_ S_IFCHR = 0020000;
inline constexpr mode_t_ S_IFIFO = 0010000;

constexpr bool is_reg(mode_t_ m) { return (m & S_IFMT) == S_IFREG; }
constexpr bool is_dir(mode_t_ m) { return (m & S_IFMT) == S_IFDIR; }
constexpr bool is_lnk(mode_t_ m) { return (m & S_IFMT) == S_IFLNK; }

// Special bits.
inline constexpr mode_t_ S_ISUID = 04000;
inline constexpr mode_t_ S_ISGID = 02000;
inline constexpr mode_t_ S_ISVTX = 01000;

// Permission bits.
inline constexpr mode_t_ S_IRWXU = 00700;
inline constexpr mode_t_ S_IRUSR = 00400;
inline constexpr mode_t_ S_IWUSR = 00200;
inline constexpr mode_t_ S_IXUSR = 00100;
inline constexpr mode_t_ S_IRWXG = 00070;
inline constexpr mode_t_ S_IRGRP = 00040;
inline constexpr mode_t_ S_IWGRP = 00020;
inline constexpr mode_t_ S_IXGRP = 00010;
inline constexpr mode_t_ S_IRWXO = 00007;
inline constexpr mode_t_ S_IROTH = 00004;
inline constexpr mode_t_ S_IWOTH = 00002;
inline constexpr mode_t_ S_IXOTH = 00001;

/// All bits chmod(2) accepts (permissions + suid/sgid/sticky).
inline constexpr mode_t_ MODE_PERM_MASK = 07777;

}  // namespace iocov::abi
