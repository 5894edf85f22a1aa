// Persistence-effect records: the VFS's write-ahead log of durable state.
//
// Crash-consistency testing (B3 / CrashMonkey style) needs to know, for
// every successful mutation, exactly what would have to reach the disk
// for that mutation to survive a crash.  The FileSystem emits one Effect
// per successful mutator call — dirent changes, data extents, metadata
// updates — plus Barrier records at every persistence point (fsync,
// fdatasync, sync, syncfs, O_SYNC writes).  A crash replayer can then
// rebuild the file system from any log prefix, and reorder or tear the
// un-barriered tail, without re-deriving semantics from syscall traces.
//
// Effects are *redo* records: they carry the post-operation result
// (resulting mode/owner/bytes), not the caller's request, so replaying
// them with superuser credentials reproduces the state without running
// the permission paths again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vfs/inode.hpp"
#include "vfs/types.hpp"

namespace iocov::vfs {

/// What kind of durable mutation an Effect records.
enum class EffectOp : std::uint8_t {
    Create,           ///< new inode linked at (parent, name)
    CreateAnonymous,  ///< O_TMPFILE inode; no dirent references it
    ReleaseAnonymous, ///< last fd on an anonymous inode closed; inode freed
    Link,             ///< extra dirent (parent, name) -> existing ino
    Unlink,           ///< dirent (parent, name) removed
    Rmdir,            ///< empty directory (parent, name) removed and freed
    Rename,           ///< (parent, name) moved to (parent2, name2)
    Write,            ///< bytes or a fill pattern written at [off, off+len)
    Truncate,         ///< file size set to `size`
    SetMode,          ///< resulting mode bits (type | perms)
    SetOwner,         ///< resulting uid/gid
    SetXattr,         ///< xattr `name` set to `bytes`
    RemoveXattr,      ///< xattr `name` removed
    Barrier,          ///< persistence point; see BarrierKind + scope
};

/// Which primitive created a persistence barrier.  Scoped kinds (Fsync,
/// Fdatasync, OSync) persist one file's data; global kinds (Sync,
/// Syncfs) persist every file's.  Under this VFS's ordered-journal
/// model, *every* barrier commits all metadata logged so far.
enum class BarrierKind : std::uint8_t {
    Fsync,
    Fdatasync,
    Sync,
    Syncfs,
    OSync,  ///< implicit barrier after a successful O_SYNC/O_DSYNC write
};

/// True for barriers whose data scope is the whole file system rather
/// than the single inode in Effect::ino.
bool barrier_is_global(BarrierKind kind);

struct Effect {
    EffectOp op = EffectOp::Barrier;
    BarrierKind barrier = BarrierKind::Fsync;

    /// Primary inode the effect applies to (the created/linked/written
    /// inode; kInvalidInode for global barriers).
    InodeId ino = kInvalidInode;
    /// Dirent parent (Create/Link/Unlink/Rmdir, rename source).
    InodeId parent = kInvalidInode;
    /// Rename destination parent.
    InodeId parent2 = kInvalidInode;
    /// Inode a rename displaced (kInvalidInode if none).
    InodeId replaced = kInvalidInode;

    /// Resulting mode (type | perm) for Create/SetMode.
    abi::mode_t_ mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;

    std::uint64_t off = 0;
    std::uint64_t len = 0;   ///< pattern-write length (bytes empty)
    std::uint64_t size = 0;  ///< Truncate target size
    std::byte fill{0};       ///< pattern-write fill byte

    /// Dirent name, or xattr name for SetXattr/RemoveXattr.
    std::string name;
    /// Rename destination name, or symlink target for Create.
    std::string name2;
    /// Write payload or xattr value.
    std::vector<std::byte> bytes;

    /// Created inode is a directory (Create only).
    bool is_dir = false;
    /// DeviceState for special-node creation, as a raw byte.
    std::uint8_t device = 0;
};

/// Observer the FileSystem notifies after every successful mutation.
/// Implementations must not call back into the emitting FileSystem.
class EffectObserver {
  public:
    virtual ~EffectObserver() = default;
    virtual void on_effect(const Effect& effect) = 0;
};

}  // namespace iocov::vfs
