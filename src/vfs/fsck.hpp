// In-memory VFS invariant checker ("fsck").
//
// Fault campaigns perturb the file system mid-operation; a run only
// counts as survived if the metadata afterwards is still internally
// consistent.  This checker walks the whole inode table — not just the
// reachable namespace — and cross-checks every piece of redundant
// bookkeeping the FileSystem maintains: link counts vs. actual dirent
// references, directory-graph shape (single parent, acyclic, correct
// ".."), file size vs. extent allocation, the global block counter and
// per-uid quota ledger, and fd-table pins.  Violations are collected
// into a structured report rather than asserted, so a campaign can
// attribute corruption to the exact fault that caused it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vfs/filesystem.hpp"
#include "vfs/types.hpp"

namespace iocov::vfs {

/// Invariant classes fsck checks.  Each violation carries one of these
/// so tests and campaigns can filter by failure kind.
enum class FsckCode {
    DanglingDirent,    ///< a dirent names an inode not in the table
    LinkCountMismatch, ///< nlink != computed dirent/"."/".." references
    ZeroLinkInode,     ///< inode with nlink == 0 still in the table
    OrphanInode,       ///< no dirent references it and no fd pins it
    MultipleDirParents,///< a directory referenced by more than one dirent
    BadDotDot,         ///< dir's parent pointer wrong, dead, or not a dir
    DirectoryCycle,    ///< parent chain never reaches the root
    DataOnNonFile,     ///< non-regular inode carries file bytes
    AllocationBeyondEof, ///< extents mapped at or past the file size
    BlockSumMismatch,  ///< sum of per-inode blocks != used_blocks()
    QuotaSumMismatch,  ///< per-uid block sums != the quota ledger
    StaleFdInode,      ///< an fd pins an inode id absent from the table
};

/// Human-readable name of a violation code (stable, for reports).
const char* fsck_code_name(FsckCode code);

struct FsckViolation {
    FsckCode code;
    /// Inode the violation is anchored to (kInvalidInode for global
    /// accounting mismatches).
    InodeId ino = kInvalidInode;
    /// One-line diagnosis with the expected-vs-actual numbers.
    std::string detail;

    /// "[code] inode N: detail" (inode omitted for global mismatches).
    std::string to_string() const;
};

struct FsckReport {
    std::vector<FsckViolation> violations;
    std::uint64_t inodes_checked = 0;
    std::uint64_t dirents_checked = 0;

    bool clean() const { return violations.empty(); }
};

struct FsckOptions {
    /// Inodes pinned by open file descriptions (Process::fd_inodes()
    /// across every live process).  A pinned inode with no dirent
    /// references is an O_TMPFILE file, not an orphan; a pin naming a
    /// dead inode is itself a violation.
    std::vector<InodeId> pinned_inodes;
};

/// Runs every invariant check over `fs`.  Read-only; never throws or
/// asserts on corruption — corruption is the return value.
FsckReport fsck(const FileSystem& fs, const FsckOptions& opts = {});

}  // namespace iocov::vfs
