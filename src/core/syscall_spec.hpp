// Registry of tracked syscalls, their variants, and their argument
// classes — Section 3 of the paper.
//
// IOCov tracks 27 file-system syscalls: 11 base syscalls plus variants
// that share the base's kernel implementation (open/openat/creat/openat2,
// read/pread64/readv, ...).  Across the 11 bases it tracks 14 distinct
// arguments, each classified as identifier, bitmap, numeric, or
// categorical; the partitioning strategy is chosen per class.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "abi/errno.hpp"

namespace iocov::core {

/// The paper's four argument classes.
enum class ArgClass : std::uint8_t {
    Identifier,   ///< file descriptors, path names
    Bitmap,       ///< OR-able flags (open flags, chmod permission bits)
    Numeric,      ///< byte counts, offsets — partitioned by powers of 2
    Categorical,  ///< fixed value sets (lseek whence, setxattr flags)
};

std::string_view arg_class_name(ArgClass c);

/// How successful returns are partitioned for a base syscall.
enum class SuccessKind : std::uint8_t {
    Unit,       ///< success is just "OK" (mkdir, close, ...)
    ByteCount,  ///< success returns a size — partition by powers of 2
    Offset,     ///< success returns an offset (lseek) — powers of 2
    NewFd,      ///< success returns a file descriptor (open family)
};

/// One tracked argument of a base syscall.
struct ArgSpec {
    std::string key;  ///< trace arg name, identical across variants
    ArgClass cls;
};

/// One base syscall: its variants and tracked arguments.
struct SyscallSpec {
    std::string base;                    ///< e.g. "open"
    std::vector<std::string> variants;   ///< e.g. {"open","openat",...}
    std::vector<ArgSpec> args;           ///< the tracked arguments
    SuccessKind success = SuccessKind::Unit;
    /// Error codes documented for this syscall (its output partitions).
    std::vector<abi::Err> errors;
};

/// The full registry: 11 bases / 27 variants / 14 tracked arguments.
const std::vector<SyscallSpec>& syscall_registry();

/// The paper's future-work "support more syscalls": the base registry
/// plus unlink, rename, symlink, link, and fsync (with identifier
/// arguments and their documented error sets).  Pass to Analyzer for
/// wider tracking.
const std::vector<SyscallSpec>& extended_syscall_registry();

/// Totals used in the paper's prose ("27 syscalls", "14 arguments").
std::size_t tracked_variant_count();
std::size_t tracked_argument_count();

}  // namespace iocov::core
