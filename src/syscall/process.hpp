// Process: per-process syscall entry points.
//
// Implements the 27 file-system syscalls the paper tracks (11 base +
// variants) plus a handful of untracked extras (fsync, unlink, rename,
// ...) so generated workloads — and therefore traces — look like real
// tester runs.  Every entry point returns the kernel-convention int64
// (>= 0 success, -errno failure) and emits one TraceEvent.
//
// Pathname arguments are `const char*` deliberately: a nullptr models a
// faulting user pointer and yields EFAULT, exactly like the kernel's
// strncpy_from_user() path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "abi/fcntl.hpp"
#include "abi/stat_mode.hpp"
#include "syscall/kernel.hpp"
#include "syscall/userbuf.hpp"
#include "vfs/types.hpp"

namespace iocov::syscall {

/// An open file description (what a struct file holds).
struct FileDescription {
    vfs::InodeId ino = vfs::kInvalidInode;
    std::uint32_t flags = 0;  ///< open flags as granted
    std::uint64_t offset = 0;
    bool is_directory = false;
    /// O_TMPFILE inodes are anonymous: freed when the fd closes.
    bool anonymous = false;

    bool readable() const {
        const auto acc = flags & abi::O_ACCMODE;
        return acc == abi::O_RDONLY || acc == abi::O_RDWR;
    }
    bool writable() const {
        const auto acc = flags & abi::O_ACCMODE;
        return acc == abi::O_WRONLY || acc == abi::O_RDWR;
    }
    bool path_only() const { return flags & abi::O_PATH; }
};

class Process {
  public:
    Process(Kernel& kernel, std::uint32_t pid, vfs::Credentials cred);
    ~Process();

    Process(Process&&) = default;
    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    // ---- open family (tracked) --------------------------------------
    std::int64_t sys_open(const char* pathname, std::uint32_t flags,
                          abi::mode_t_ mode = 0);
    std::int64_t sys_openat(int dfd, const char* pathname,
                            std::uint32_t flags, abi::mode_t_ mode = 0);
    std::int64_t sys_creat(const char* pathname, abi::mode_t_ mode);
    std::int64_t sys_openat2(int dfd, const char* pathname,
                             const abi::OpenHow& how,
                             std::uint64_t usize = 24);

    // ---- read family (tracked) --------------------------------------
    std::int64_t sys_read(int fd, ReadDst dst);
    std::int64_t sys_pread64(int fd, ReadDst dst, std::int64_t pos);
    std::int64_t sys_readv(int fd, std::vector<ReadDst> iov);

    // ---- write family (tracked) -------------------------------------
    std::int64_t sys_write(int fd, WriteSrc src);
    std::int64_t sys_pwrite64(int fd, WriteSrc src, std::int64_t pos);
    std::int64_t sys_writev(int fd, std::vector<WriteSrc> iov);

    // ---- offsets / sizes (tracked) ----------------------------------
    std::int64_t sys_lseek(int fd, std::int64_t offset, int whence);
    std::int64_t sys_truncate(const char* pathname, std::int64_t length);
    std::int64_t sys_ftruncate(int fd, std::int64_t length);

    // ---- directories / modes (tracked) ------------------------------
    std::int64_t sys_mkdir(const char* pathname, abi::mode_t_ mode);
    std::int64_t sys_mkdirat(int dfd, const char* pathname,
                             abi::mode_t_ mode);
    std::int64_t sys_chmod(const char* pathname, abi::mode_t_ mode);
    std::int64_t sys_fchmod(int fd, abi::mode_t_ mode);
    std::int64_t sys_fchmodat(int dfd, const char* pathname,
                              abi::mode_t_ mode, std::uint32_t flags = 0);

    // ---- fd / cwd (tracked) ------------------------------------------
    std::int64_t sys_close(int fd);
    std::int64_t sys_chdir(const char* pathname);
    std::int64_t sys_fchdir(int fd);

    // ---- xattrs (tracked) --------------------------------------------
    std::int64_t sys_setxattr(const char* pathname, const char* name,
                              std::span<const std::byte> value, int flags);
    std::int64_t sys_lsetxattr(const char* pathname, const char* name,
                               std::span<const std::byte> value, int flags);
    std::int64_t sys_fsetxattr(int fd, const char* name,
                               std::span<const std::byte> value, int flags);
    /// `size` is the caller's buffer size; 0 probes the value length.
    std::int64_t sys_getxattr(const char* pathname, const char* name,
                              std::uint64_t size);
    std::int64_t sys_lgetxattr(const char* pathname, const char* name,
                               std::uint64_t size);
    std::int64_t sys_fgetxattr(int fd, const char* name, std::uint64_t size);

    // ---- extras (traced but not in IOCov's tracked set) --------------
    /// `size` is the caller's list buffer size; 0 probes the length.
    std::int64_t sys_listxattr(const char* pathname, std::uint64_t size);
    std::int64_t sys_llistxattr(const char* pathname, std::uint64_t size);
    std::int64_t sys_flistxattr(int fd, std::uint64_t size);
    std::int64_t sys_removexattr(const char* pathname, const char* name);
    std::int64_t sys_lremovexattr(const char* pathname, const char* name);
    std::int64_t sys_fremovexattr(int fd, const char* name);
    /// stat family: fills `out` when non-null; returns 0 or -errno.
    std::int64_t sys_stat(const char* pathname, vfs::Stat* out = nullptr);
    std::int64_t sys_lstat(const char* pathname, vfs::Stat* out = nullptr);
    std::int64_t sys_fstat(int fd, vfs::Stat* out = nullptr);
    std::int64_t sys_fsync(int fd);
    std::int64_t sys_fdatasync(int fd);
    std::int64_t sys_sync();
    std::int64_t sys_syncfs(int fd);
    std::int64_t sys_unlink(const char* pathname);
    std::int64_t sys_rmdir(const char* pathname);
    std::int64_t sys_rename(const char* oldpath, const char* newpath);
    std::int64_t sys_symlink(const char* target, const char* linkpath);
    std::int64_t sys_link(const char* oldpath, const char* newpath);

    // ---- process state ------------------------------------------------
    std::uint32_t pid() const { return pid_; }
    const vfs::Credentials& cred() const { return cred_; }
    void set_cred(vfs::Credentials cred) { cred_ = cred; }
    void set_umask(abi::mode_t_ mask) { umask_ = mask & 0777; }
    abi::mode_t_ umask() const { return umask_; }

    /// 32-bit personality: without O_LARGEFILE, opening a file larger
    /// than 2 GiB fails with EOVERFLOW (how O_LARGEFILE bugs like the
    /// paper's XFS citation become reachable).
    void set_large_file_default(bool on) { large_file_default_ = on; }

    /// fd-table introspection for tests.
    std::size_t open_fd_count() const { return fds_.size(); }

    /// Inodes pinned by this process's open fds (fsck uses these to
    /// excuse O_TMPFILE anonymous inodes from orphan checks and to
    /// verify every fd references a live inode).
    std::vector<vfs::InodeId> fd_inodes() const {
        std::vector<vfs::InodeId> out;
        out.reserve(fds_.size());
        for (const auto& [fd, desc] : fds_) out.push_back(desc.ino);
        return out;
    }

  private:
    struct OpenOutcome {
        std::int64_t ret;  // fd or -errno
    };

    std::int64_t do_open(int dfd, const char* pathname, std::uint32_t flags,
                         abi::mode_t_ mode, std::uint64_t resolve,
                         bool strict_openat2);
    std::int64_t do_read(int fd, ReadDst& dst, std::int64_t pos,
                         bool use_pos);
    std::int64_t do_write(int fd, const WriteSrc& src, std::int64_t pos,
                          bool use_pos);
    std::int64_t do_chmod_path(int dfd, const char* pathname,
                               abi::mode_t_ mode, bool follow);
    std::int64_t do_setxattr(const char* pathname, const char* name,
                             std::span<const std::byte> value, int flags,
                             bool follow, const char* variant);
    std::int64_t do_getxattr(const char* pathname, const char* name,
                             std::uint64_t size, bool follow,
                             const char* variant);

    /// Validates an xattr name: EFAULT for nullptr, ERANGE when too
    /// long, EOPNOTSUPP for unknown namespaces, EPERM for trusted.*
    /// without privilege. Returns 0 or -errno.
    std::int64_t check_xattr_name(const char* name) const;

    /// Resolves a (dfd, pathname) pair to a starting dir + path string,
    /// handling EFAULT/EBADF/ENOTDIR.
    struct PathArg {
        std::int64_t err = 0;  // 0 ok, else -errno
        vfs::InodeId base = vfs::kRootInode;
        std::string path;
    };
    PathArg path_arg(int dfd, const char* pathname) const;

    /// Lowest-numbered free fd; -EMFILE/-ENFILE when tables are full.
    std::int64_t alloc_fd();
    FileDescription* lookup_fd(int fd);
    void drop_fd_entry(int fd);

    /// Emits the trace event for a completed syscall.
    void emit(const char* name, std::vector<trace::Arg> args,
              std::int64_t ret);

    /// Fault-injection check shared by all entry points.
    std::optional<abi::Err> fault(const char* syscall_name) {
        return kernel_.faults().check(syscall_name);
    }

    Kernel& kernel_;
    std::uint32_t pid_;
    vfs::Credentials cred_;
    abi::mode_t_ umask_ = 022;
    vfs::InodeId cwd_ = vfs::kRootInode;
    bool large_file_default_ = true;
    std::map<int, FileDescription> fds_;
};

/// Shorthands for building trace args.
trace::Arg targ(const char* name, std::int64_t v);
trace::Arg uarg(const char* name, std::uint64_t v);
trace::Arg sarg(const char* name, const char* s);  // nullptr -> "<fault>"

}  // namespace iocov::syscall
