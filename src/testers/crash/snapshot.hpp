// VFS -> core::StateSnapshot bridge.
//
// Walks the reachable namespace of a FileSystem and renders every path
// as a StateFact (type, mode, owner, size, content/xattr hashes).  The
// walk is over std::map dirents, so path order — and every diff or
// report derived from a snapshot — is deterministic.  Lives in
// testers/crash rather than core so core stays VFS-free.
#pragma once

#include <map>
#include <string>

#include "core/diff.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::testers::crash {

/// Snapshots every reachable path ("/" included).  When `path_inos` is
/// non-null it receives path -> inode id for the snapshotted tree (the
/// oracle uses this to translate effect inodes to paths).  Reads file
/// contents via the extent map directly — no atime updates, no fault
/// injection, usable on a const FileSystem.
core::StateSnapshot snapshot_vfs(
    const vfs::FileSystem& fs,
    std::map<std::string, vfs::InodeId>* path_inos = nullptr);

}  // namespace iocov::testers::crash
