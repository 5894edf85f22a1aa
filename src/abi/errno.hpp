// Errno values and names (Linux x86-64 numbering).
//
// The whole library is self-contained: we define our own errno table
// instead of relying on <cerrno> so that traces, coverage reports, and
// tests are identical on any host.  Values match Linux so that a trace
// from the simulated syscall layer reads like an LTTng trace of the real
// kernel.  The set covers every code on the open(2) manual page (the
// x-axis of the paper's Fig. 4) plus the codes our other 26 syscalls can
// return.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iocov::abi {

enum class Err : int {
    // Success sentinel (never encoded in a return value; ret >= 0 is OK).
    Ok = 0,
    EPERM_ = 1,
    ENOENT_ = 2,
    EINTR_ = 4,
    EIO_ = 5,
    ENXIO_ = 6,
    E2BIG_ = 7,
    EBADF_ = 9,
    EAGAIN_ = 11,
    ENOMEM_ = 12,
    EACCES_ = 13,
    EFAULT_ = 14,
    EBUSY_ = 16,
    EEXIST_ = 17,
    EXDEV_ = 18,
    ENODEV_ = 19,
    ENOTDIR_ = 20,
    EISDIR_ = 21,
    EINVAL_ = 22,
    ENFILE_ = 23,
    EMFILE_ = 24,
    ETXTBSY_ = 26,
    EFBIG_ = 27,
    ENOSPC_ = 28,
    ESPIPE_ = 29,
    EPIPE_ = 32,
    EROFS_ = 30,
    EMLINK_ = 31,
    ERANGE_ = 34,
    ENAMETOOLONG_ = 36,
    ENOSYS_ = 38,
    ENOTEMPTY_ = 39,
    ELOOP_ = 40,
    ENODATA_ = 61,
    EOVERFLOW_ = 75,
    EOPNOTSUPP_ = 95,
    EDQUOT_ = 122,
};

/// Canonical name ("ENOENT") for an errno value; "E?<n>" for unknown.
std::string err_name(Err e);
std::string err_name(int errno_value);

/// Reverse lookup: "ENOENT" -> Err::ENOENT_. Accepts only canonical names.
std::optional<Err> err_from_name(std::string_view name);

/// Encodes a failing syscall return: -static_cast<int>(e).
constexpr std::int64_t fail(Err e) { return -static_cast<std::int64_t>(e); }

/// True if a raw syscall return indicates success.
constexpr bool is_ok(std::int64_t ret) { return ret >= 0; }

/// The kernel's MAX_ERRNO: a failing syscall returns -1..-kMaxErrno.
/// Anything lower is not an errno at all — only a corrupt or forged
/// trace carries one.
inline constexpr std::int64_t kMaxErrno = 4095;

/// Extracts the errno from a failing return (precondition: ret < 0).
constexpr Err err_of(std::int64_t ret) { return static_cast<Err>(-ret); }

/// The error codes documented for open(2)/openat(2)/creat(2)/openat2(2),
/// in reverse-alphabetical order — exactly the x-axis of the paper's
/// Fig. 4 (27 codes following the "OK" column).
const std::vector<Err>& open_manpage_errors();

}  // namespace iocov::abi
