#include "vfs/filesystem.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

#include "abi/limits.hpp"
#include "abi/xattr.hpp"
#include "vfs/path.hpp"

namespace iocov::vfs {

using abi::Err;

namespace {

/// Per-xattr metadata overhead inside the inode, mirroring ext4's
/// struct ext4_xattr_entry (4 x u32) rounded up.
constexpr std::uint32_t kXattrEntryOverhead = 16;

}  // namespace

FileSystem::FileSystem(FsConfig config) : config_(config) {
    Inode root;
    root.id = kRootInode;
    root.mode = abi::S_IFDIR | 0755;
    root.nlink = 2;
    root.parent = kRootInode;
    root.xattr_space = config_.inode_xattr_capacity;
    inodes_.emplace(kRootInode, std::move(root));
    next_ino_ = kRootInode + 1;
}

// ---- inode lifecycle ----------------------------------------------------

Result<InodeId> FileSystem::alloc_inode(abi::mode_t_ mode,
                                        const Credentials& cred) {
    hook_probe("ext4_new_inode");
    if (inodes_.size() >= config_.max_inodes) {
        hook_probe("ext4_new_inode:enospc");
        return Err::ENOSPC_;
    }
    Inode node;
    node.id = next_ino_++;
    node.mode = mode;
    node.uid = cred.uid;
    node.gid = cred.gid;
    node.xattr_space = config_.inode_xattr_capacity;
    node.times = {clock_, clock_, clock_};
    const InodeId id = node.id;
    inodes_.emplace(id, std::move(node));
    return id;
}

void FileSystem::free_inode(InodeId ino) {
    auto it = inodes_.find(ino);
    if (it == inodes_.end()) return;
    const std::uint64_t blocks =
        it->second.data.allocated_blocks(config_.block_size);
    if (blocks) {
        used_blocks_ -= std::min(used_blocks_, blocks);
        auto q = quota_used_.find(it->second.uid);
        if (q != quota_used_.end()) q->second -= std::min(q->second, blocks);
    }
    inodes_.erase(it);
}

const Inode* FileSystem::find(InodeId ino) const {
    auto it = inodes_.find(ino);
    return it == inodes_.end() ? nullptr : &it->second;
}

Inode* FileSystem::find_mutable(InodeId ino) {
    auto it = inodes_.find(ino);
    return it == inodes_.end() ? nullptr : &it->second;
}

// ---- permissions ---------------------------------------------------------

Status FileSystem::access_check(InodeId ino, unsigned mask,
                                const Credentials& cred) const {
    const Inode* node = find(ino);
    if (!node) return Err::ENOENT_;
    if (cred.is_superuser()) {
        // Root bypasses rw checks; x requires at least one x bit, as in
        // the kernel's generic_permission().
        if ((mask & 1u) && !node->is_dir() &&
            (node->mode & (abi::S_IXUSR | abi::S_IXGRP | abi::S_IXOTH)) == 0)
            return Err::EACCES_;
        return {};
    }
    abi::mode_t_ bits;
    if (cred.uid == node->uid) bits = (node->mode >> 6) & 7;
    else if (cred.gid == node->gid) bits = (node->mode >> 3) & 7;
    else bits = node->mode & 7;
    if ((mask & bits) != mask) return Err::EACCES_;
    return {};
}

// ---- path walking ---------------------------------------------------------

Result<InodeId> FileSystem::resolve(std::string_view path,
                                    const Credentials& cred,
                                    const ResolveOpts& opts) {
    hook_probe("vfs_path_lookup");
    if (path.empty()) return Err::ENOENT_;
    if (path.size() >= abi::PATH_MAX_) return Err::ENAMETOOLONG_;

    if (is_absolute(path) && opts.beneath) return Err::EXDEV_;

    InodeId cur = is_absolute(path) ? kRootInode : opts.base;
    const Inode* base = find(cur);
    if (!base) return Err::ENOENT_;
    if (!base->is_dir() && !split_path(path).empty()) return Err::ENOTDIR_;

    std::deque<std::string> comps;
    for (auto& c : split_path(path)) comps.push_back(std::move(c));
    const bool trailing = has_trailing_slash(path) || path == "/";

    unsigned symlink_hops = 0;
    // Depth below `base` for RESOLVE_BENEATH: ".." at depth 0 escapes.
    long depth = 0;

    while (!comps.empty()) {
        const std::string name = std::move(comps.front());
        comps.pop_front();

        Inode* dir = find_mutable(cur);
        assert(dir);
        if (!dir->is_dir()) return Err::ENOTDIR_;
        IOCOV_TRY_STATUS(access_check(cur, 1 /*x*/, cred));

        if (name == ".") continue;
        if (name == "..") {
            if (opts.beneath && depth == 0) return Err::EXDEV_;
            --depth;
            cur = dir->parent;
            continue;
        }
        if (name.size() > abi::NAME_MAX_) return Err::ENAMETOOLONG_;

        auto entry = dir->dirents.find(name);
        if (entry == dir->dirents.end()) return Err::ENOENT_;
        InodeId child_id = entry->second;
        Inode* child = find_mutable(child_id);
        assert(child);

        if (opts.no_xdev && child->mountpoint) return Err::EXDEV_;

        if (child->is_lnk()) {
            const bool is_final = comps.empty();
            if (opts.no_symlinks) {
                hook_probe("vfs_follow_link:nosymlinks");
                return Err::ELOOP_;
            }
            if (is_final && !opts.follow_final && !trailing) {
                return child_id;  // O_NOFOLLOW-style: the link itself
            }
            hook_probe("vfs_follow_link");
            if (++symlink_hops > abi::SYMLOOP_MAX_) return Err::ELOOP_;
            const std::string& target = child->symlink_target;
            if (target.empty()) return Err::ENOENT_;
            if (is_absolute(target)) {
                if (opts.beneath) return Err::EXDEV_;
                cur = kRootInode;
                depth = 0;
            }
            auto tcomps = split_path(target);
            for (auto rit = tcomps.rbegin(); rit != tcomps.rend(); ++rit)
                comps.push_front(std::move(*rit));
            continue;
        }

        ++depth;
        cur = child_id;
    }

    const Inode* final_node = find(cur);
    if (!final_node) return Err::ENOENT_;
    if (trailing && !final_node->is_dir()) return Err::ENOTDIR_;
    return cur;
}

Result<ParentAndName> FileSystem::resolve_parent(std::string_view path,
                                                 const Credentials& cred,
                                                 const ResolveOpts& opts) {
    if (path.empty()) return Err::ENOENT_;
    if (path.size() >= abi::PATH_MAX_) return Err::ENAMETOOLONG_;

    auto comps = split_path(path);
    ParentAndName out;
    out.trailing_slash = has_trailing_slash(path);

    if (comps.empty()) {
        // Path is "/" (or equivalent): final component is the root.
        out.parent = kRootInode;
        out.name.clear();
        return out;
    }

    out.name = comps.back();
    comps.pop_back();

    if (comps.empty()) {
        out.parent = is_absolute(path) ? kRootInode : opts.base;
        const Inode* p = find(out.parent);
        if (!p) return Err::ENOENT_;
        if (!p->is_dir()) return Err::ENOTDIR_;
        return out;
    }

    // Re-join the directory part and resolve it (always following
    // intermediate symlinks).
    std::string dir_part;
    if (is_absolute(path)) dir_part.push_back('/');
    for (std::size_t i = 0; i < comps.size(); ++i) {
        if (i) dir_part += '/';
        dir_part += comps[i];
    }
    ResolveOpts dir_opts = opts;
    dir_opts.follow_final = true;
    IOCOV_TRY(parent, resolve(dir_part, cred, dir_opts));
    const Inode* p = find(parent);
    if (!p->is_dir()) return Err::ENOTDIR_;
    out.parent = parent;
    return out;
}

// ---- creation -------------------------------------------------------------

Status FileSystem::can_create(InodeId parent, std::string_view name,
                              const Credentials& cred) const {
    const Inode* dir = find(parent);
    if (!dir) return Err::ENOENT_;
    if (!dir->is_dir()) return Err::ENOTDIR_;
    if (name.empty() || name == "." || name == "..") return Err::EEXIST_;
    if (name.size() > abi::NAME_MAX_) return Err::ENAMETOOLONG_;
    if (dir->dirents.count(std::string(name))) return Err::EEXIST_;
    if (config_.read_only) return Err::EROFS_;
    // Creating an entry needs write+search permission on the directory.
    return access_check(parent, 3 /*wx*/, cred);
}

Result<InodeId> FileSystem::create_file(InodeId parent, std::string_view name,
                                        abi::mode_t_ perm,
                                        const Credentials& cred) {
    hook_probe("ext4_create");
    if (auto e = hook_inject("ext4_create")) return *e;
    IOCOV_TRY_STATUS(can_create(parent, name, cred));
    IOCOV_TRY(ino, alloc_inode(abi::S_IFREG | (perm & abi::MODE_PERM_MASK),
                               cred));
    Inode* node = find_mutable(ino);
    node->nlink = 1;
    Inode* dir = find_mutable(parent);
    dir->dirents.emplace(std::string(name), ino);
    dir->times.mtime = dir->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Create;
        e.ino = ino;
        e.parent = parent;
        e.name = std::string(name);
        e.mode = node->mode;
        e.uid = node->uid;
        e.gid = node->gid;
        emit_effect(std::move(e));
    }
    return ino;
}

Result<InodeId> FileSystem::make_dir(InodeId parent, std::string_view name,
                                     abi::mode_t_ perm,
                                     const Credentials& cred) {
    hook_probe("ext4_mkdir");
    if (auto e = hook_inject("ext4_mkdir")) return *e;
    IOCOV_TRY_STATUS(can_create(parent, name, cred));
    Inode* dir = find_mutable(parent);
    if (dir->nlink >= config_.max_links) return Err::EMLINK_;
    IOCOV_TRY(ino, alloc_inode(abi::S_IFDIR | (perm & abi::MODE_PERM_MASK),
                               cred));
    Inode* node = find_mutable(ino);
    node->nlink = 2;  // "." plus the parent entry
    node->parent = parent;
    dir = find_mutable(parent);  // map may have rehashed on insert
    dir->dirents.emplace(std::string(name), ino);
    ++dir->nlink;  // the child's ".."
    dir->times.mtime = dir->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Create;
        e.ino = ino;
        e.parent = parent;
        e.name = std::string(name);
        e.mode = node->mode;
        e.uid = node->uid;
        e.gid = node->gid;
        e.is_dir = true;
        emit_effect(std::move(e));
    }
    return ino;
}

Result<InodeId> FileSystem::make_symlink(InodeId parent, std::string_view name,
                                         std::string_view target,
                                         const Credentials& cred) {
    hook_probe("ext4_symlink");
    IOCOV_TRY_STATUS(can_create(parent, name, cred));
    if (target.empty() || target.size() >= abi::PATH_MAX_)
        return target.empty() ? Err::ENOENT_ : Err::ENAMETOOLONG_;
    IOCOV_TRY(ino, alloc_inode(abi::S_IFLNK | 0777, cred));
    Inode* node = find_mutable(ino);
    node->nlink = 1;
    node->symlink_target = std::string(target);
    Inode* dir = find_mutable(parent);
    dir->dirents.emplace(std::string(name), ino);
    dir->times.mtime = dir->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Create;
        e.ino = ino;
        e.parent = parent;
        e.name = std::string(name);
        e.name2 = std::string(target);
        e.mode = node->mode;
        e.uid = node->uid;
        e.gid = node->gid;
        emit_effect(std::move(e));
    }
    return ino;
}

Result<InodeId> FileSystem::make_special(InodeId parent, std::string_view name,
                                         abi::mode_t_ mode, DeviceState device,
                                         const Credentials& cred) {
    IOCOV_TRY_STATUS(can_create(parent, name, cred));
    IOCOV_TRY(ino, alloc_inode(mode, cred));
    Inode* node = find_mutable(ino);
    node->nlink = 1;
    node->device = device;
    Inode* dir = find_mutable(parent);
    dir->dirents.emplace(std::string(name), ino);
    dir->times.mtime = dir->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Create;
        e.ino = ino;
        e.parent = parent;
        e.name = std::string(name);
        e.mode = node->mode;
        e.uid = node->uid;
        e.gid = node->gid;
        e.device = static_cast<std::uint8_t>(device);
        emit_effect(std::move(e));
    }
    return ino;
}

Result<InodeId> FileSystem::create_anonymous(InodeId dir, abi::mode_t_ perm,
                                             const Credentials& cred) {
    hook_probe("ext4_tmpfile");
    const Inode* d = find(dir);
    if (!d) return Err::ENOENT_;
    if (!d->is_dir()) return Err::ENOTDIR_;
    if (config_.read_only) return Err::EROFS_;
    IOCOV_TRY_STATUS(access_check(dir, 3 /*wx*/, cred));
    IOCOV_TRY(ino, alloc_inode(abi::S_IFREG | (perm & abi::MODE_PERM_MASK),
                               cred));
    Inode* node = find_mutable(ino);
    node->nlink = 1;  // pinned by the open fd, not a dirent
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::CreateAnonymous;
        e.ino = ino;
        e.parent = dir;
        e.mode = node->mode;
        e.uid = node->uid;
        e.gid = node->gid;
        emit_effect(std::move(e));
    }
    return ino;
}

void FileSystem::release_anonymous(InodeId ino) {
    Inode* node = find_mutable(ino);
    if (node && node->nlink == 1) {
        free_inode(ino);
        if (logging_effects()) {
            Effect e;
            e.op = EffectOp::ReleaseAnonymous;
            e.ino = ino;
            emit_effect(std::move(e));
        }
    }
}

Status FileSystem::link(InodeId target, InodeId parent, std::string_view name,
                        const Credentials& cred) {
    hook_probe("ext4_link");
    Inode* node = find_mutable(target);
    if (!node) return Err::ENOENT_;
    if (node->is_dir()) return Err::EPERM_;
    if (node->nlink >= config_.max_links) return Err::EMLINK_;
    IOCOV_TRY_STATUS(can_create(parent, name, cred));
    Inode* dir = find_mutable(parent);
    dir->dirents.emplace(std::string(name), target);
    ++node->nlink;
    node->times.ctime = dir->times.mtime = dir->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Link;
        e.ino = target;
        e.parent = parent;
        e.name = std::string(name);
        emit_effect(std::move(e));
    }
    return {};
}

// ---- removal --------------------------------------------------------------

void FileSystem::unlink_inode(Inode& inode) {
    assert(inode.nlink > 0);
    if (--inode.nlink == 0) free_inode(inode.id);
}

Status FileSystem::unlink(InodeId parent, std::string_view name,
                          const Credentials& cred) {
    hook_probe("ext4_unlink");
    Inode* dir = find_mutable(parent);
    if (!dir) return Err::ENOENT_;
    if (!dir->is_dir()) return Err::ENOTDIR_;
    auto it = dir->dirents.find(std::string(name));
    if (it == dir->dirents.end()) return Err::ENOENT_;
    Inode* node = find_mutable(it->second);
    assert(node);
    if (node->is_dir()) return Err::EISDIR_;
    if (config_.read_only) return Err::EROFS_;
    IOCOV_TRY_STATUS(access_check(parent, 3 /*wx*/, cred));
    // Sticky directory: only the entry's owner, the directory's owner,
    // or root may remove.
    if ((dir->mode & abi::S_ISVTX) && !cred.is_superuser() &&
        cred.uid != node->uid && cred.uid != dir->uid)
        return Err::EPERM_;
    const InodeId victim_id = node->id;
    // `name` may alias the dirent key we are about to erase (callers
    // legitimately pass views into dir->dirents) — copy it first.
    std::string name_copy(name);
    dir->dirents.erase(it);
    dir->times.mtime = dir->times.ctime = tick();
    unlink_inode(*node);
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Unlink;
        e.ino = victim_id;
        e.parent = parent;
        e.name = std::move(name_copy);
        emit_effect(std::move(e));
    }
    return {};
}

Status FileSystem::remove_dir(InodeId parent, std::string_view name,
                              const Credentials& cred) {
    hook_probe("ext4_rmdir");
    Inode* dir = find_mutable(parent);
    if (!dir) return Err::ENOENT_;
    if (!dir->is_dir()) return Err::ENOTDIR_;
    if (name == ".") return Err::EINVAL_;
    if (name == "..") return Err::ENOTEMPTY_;
    auto it = dir->dirents.find(std::string(name));
    if (it == dir->dirents.end()) return Err::ENOENT_;
    Inode* node = find_mutable(it->second);
    assert(node);
    if (!node->is_dir()) return Err::ENOTDIR_;
    if (node->mountpoint) return Err::EBUSY_;
    if (!node->dirents.empty()) {
        hook_probe("ext4_rmdir:notempty");
        return Err::ENOTEMPTY_;
    }
    if (config_.read_only) return Err::EROFS_;
    IOCOV_TRY_STATUS(access_check(parent, 3 /*wx*/, cred));
    if ((dir->mode & abi::S_ISVTX) && !cred.is_superuser() &&
        cred.uid != node->uid && cred.uid != dir->uid)
        return Err::EPERM_;
    const InodeId victim_id = node->id;
    // `name` may alias the dirent key we are about to erase — copy it.
    std::string name_copy(name);
    dir->dirents.erase(it);
    --dir->nlink;  // child's ".." went away
    dir->times.mtime = dir->times.ctime = tick();
    node->nlink = 0;
    free_inode(victim_id);
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Rmdir;
        e.ino = victim_id;
        e.parent = parent;
        e.name = std::move(name_copy);
        emit_effect(std::move(e));
    }
    return {};
}

Status FileSystem::rename(InodeId old_parent, std::string_view old_name,
                          InodeId new_parent, std::string_view new_name,
                          const Credentials& cred) {
    hook_probe("ext4_rename");
    Inode* odir = find_mutable(old_parent);
    Inode* ndir = find_mutable(new_parent);
    if (!odir || !ndir) return Err::ENOENT_;
    if (!odir->is_dir() || !ndir->is_dir()) return Err::ENOTDIR_;
    auto oit = odir->dirents.find(std::string(old_name));
    if (oit == odir->dirents.end()) return Err::ENOENT_;
    const InodeId moving_id = oit->second;
    Inode* moving = find_mutable(moving_id);
    assert(moving);

    if (config_.read_only) return Err::EROFS_;
    IOCOV_TRY_STATUS(access_check(old_parent, 3, cred));
    IOCOV_TRY_STATUS(access_check(new_parent, 3, cred));
    if (new_name.empty() || new_name == "." || new_name == "..")
        return Err::EINVAL_;
    if (new_name.size() > abi::NAME_MAX_) return Err::ENAMETOOLONG_;

    // Either view may alias a dirent key erased below — copy both now.
    std::string old_name_copy(old_name);
    std::string new_name_copy(new_name);

    // A directory must not be moved into its own subtree.
    if (moving->is_dir()) {
        for (InodeId cur = new_parent;;) {
            if (cur == moving_id) return Err::EINVAL_;
            if (cur == kRootInode) break;
            cur = find(cur)->parent;
        }
    }

    InodeId replaced_id = kInvalidInode;
    auto nit = ndir->dirents.find(std::string(new_name));
    if (nit != ndir->dirents.end()) {
        if (nit->second == moving_id) return {};  // same file: no-op
        Inode* victim = find_mutable(nit->second);
        assert(victim);
        replaced_id = nit->second;
        if (moving->is_dir()) {
            if (!victim->is_dir()) return Err::ENOTDIR_;
            if (!victim->dirents.empty()) return Err::ENOTEMPTY_;
            ndir->dirents.erase(nit);
            --ndir->nlink;
            victim->nlink = 0;
            free_inode(victim->id);
        } else {
            if (victim->is_dir()) return Err::EISDIR_;
            ndir->dirents.erase(nit);
            unlink_inode(*victim);
        }
        ndir = find_mutable(new_parent);
        odir = find_mutable(old_parent);
        moving = find_mutable(moving_id);
    }

    odir->dirents.erase(old_name_copy);
    ndir->dirents.emplace(new_name_copy, moving_id);
    if (moving->is_dir() && old_parent != new_parent) {
        --odir->nlink;
        ++ndir->nlink;
        moving->parent = new_parent;
    }
    odir->times.mtime = odir->times.ctime = tick();
    ndir->times.mtime = ndir->times.ctime = tick();
    moving->times.ctime = clock_;
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Rename;
        e.ino = moving_id;
        e.parent = old_parent;
        e.name = std::move(old_name_copy);
        e.parent2 = new_parent;
        e.name2 = std::move(new_name_copy);
        e.replaced = replaced_id;
        e.is_dir = moving->is_dir();
        emit_effect(std::move(e));
    }
    return {};
}

// ---- regular-file I/O ------------------------------------------------------

Result<std::uint64_t> FileSystem::read(InodeId ino, std::uint64_t off,
                                       std::span<std::byte> out) {
    hook_probe("ext4_file_read_iter");
    if (auto e = hook_inject("ext4_file_read_iter")) return *e;
    Inode* node = find_mutable(ino);
    if (!node) return Err::EBADF_;
    hook_probe("ext4_get_branch");
    if (auto e = hook_inject("ext4_get_branch")) return *e;
    const std::uint64_t n = node->data.read(off, out);
    node->times.atime = tick();
    return n;
}

Status FileSystem::charge_blocks(std::uint32_t uid, std::int64_t delta) {
    if (delta > 0) {
        const auto d = static_cast<std::uint64_t>(delta);
        if (used_blocks_ + d > config_.capacity_blocks) {
            hook_probe("ext4_should_retry_alloc:enospc");
            return Err::ENOSPC_;
        }
        if (config_.quota_blocks_per_uid > 0 && uid != 0) {
            auto& used = quota_used_[uid];
            if (used + d > config_.quota_blocks_per_uid) {
                hook_probe("dquot_alloc_block:edquot");
                return Err::EDQUOT_;
            }
            used += d;
        }
        used_blocks_ += d;
    } else if (delta < 0) {
        const auto d = static_cast<std::uint64_t>(-delta);
        used_blocks_ -= std::min(used_blocks_, d);
        if (config_.quota_blocks_per_uid > 0 && uid != 0) {
            auto it = quota_used_.find(uid);
            if (it != quota_used_.end()) it->second -= std::min(it->second, d);
        }
    }
    return {};
}

Result<std::uint64_t> FileSystem::write(InodeId ino, std::uint64_t off,
                                        std::span<const std::byte> bytes) {
    hook_probe("ext4_file_write_iter");
    if (auto e = hook_inject("ext4_file_write_iter")) return *e;
    Inode* node = find_mutable(ino);
    if (!node) return Err::EBADF_;
    if (config_.read_only) return Err::EROFS_;
    if (bytes.empty()) return std::uint64_t{0};
    if (off > config_.max_file_size ||
        off + bytes.size() > config_.max_file_size) {
        hook_probe("generic_write_checks:efbig");
        return Err::EFBIG_;
    }
    hook_probe("ext4_da_write_begin");
    const std::uint64_t new_blocks =
        node->data.new_blocks_for(off, bytes.size(), config_.block_size);
    IOCOV_TRY_STATUS(
        charge_blocks(node->uid, static_cast<std::int64_t>(new_blocks)));
    node->data.write(off, bytes);
    node->times.mtime = node->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Write;
        e.ino = ino;
        e.off = off;
        e.bytes.assign(bytes.begin(), bytes.end());
        emit_effect(std::move(e));
    }
    return static_cast<std::uint64_t>(bytes.size());
}

Result<std::uint64_t> FileSystem::write_pattern(InodeId ino, std::uint64_t off,
                                                std::uint64_t len,
                                                std::byte fill) {
    hook_probe("ext4_file_write_iter");
    if (auto e = hook_inject("ext4_file_write_iter")) return *e;
    Inode* node = find_mutable(ino);
    if (!node) return Err::EBADF_;
    if (config_.read_only) return Err::EROFS_;
    if (len == 0) return std::uint64_t{0};
    if (off > config_.max_file_size || off + len > config_.max_file_size) {
        hook_probe("generic_write_checks:efbig");
        return Err::EFBIG_;
    }
    hook_probe("ext4_da_write_begin");
    const std::uint64_t new_blocks =
        node->data.new_blocks_for(off, len, config_.block_size);
    IOCOV_TRY_STATUS(
        charge_blocks(node->uid, static_cast<std::int64_t>(new_blocks)));
    node->data.write_pattern(off, len, fill);
    node->times.mtime = node->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Write;
        e.ino = ino;
        e.off = off;
        e.len = len;
        e.fill = fill;
        emit_effect(std::move(e));
    }
    return len;
}

Status FileSystem::truncate(InodeId ino, std::uint64_t new_size) {
    hook_probe("ext4_truncate");
    if (auto e = hook_inject("ext4_truncate")) return *e;
    Inode* node = find_mutable(ino);
    if (!node) return Err::EBADF_;
    if (config_.read_only) return Err::EROFS_;
    if (new_size > config_.max_file_size) {
        hook_probe("generic_write_checks:efbig");
        return Err::EFBIG_;
    }
    const std::uint64_t before =
        node->data.allocated_blocks(config_.block_size);
    node->data.set_size(new_size);
    const std::uint64_t after = node->data.allocated_blocks(config_.block_size);
    // Shrinking only releases blocks (growth extends the EOF hole), so
    // this charge can never fail.
    charge_blocks(node->uid,
                  static_cast<std::int64_t>(after) -
                      static_cast<std::int64_t>(before));
    node->times.mtime = node->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Truncate;
        e.ino = ino;
        e.size = new_size;
        emit_effect(std::move(e));
    }
    return {};
}

// ---- persistence barriers ---------------------------------------------------

void FileSystem::sync_inode(InodeId ino, BarrierKind kind) {
    hook_probe("ext4_sync_file");
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Barrier;
        e.barrier = kind;
        e.ino = ino;
        emit_effect(std::move(e));
    }
}

void FileSystem::sync_all(BarrierKind kind) {
    hook_probe("sync_filesystem");
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::Barrier;
        e.barrier = kind;
        emit_effect(std::move(e));
    }
}

// ---- metadata ---------------------------------------------------------------

Result<Stat> FileSystem::stat(InodeId ino) const {
    const Inode* node = find(ino);
    if (!node) return Err::ENOENT_;
    Stat st;
    st.ino = node->id;
    st.mode = node->mode;
    st.uid = node->uid;
    st.gid = node->gid;
    st.nlink = node->nlink;
    st.size = node->is_lnk() ? node->symlink_target.size()
                             : node->data.size();
    st.blocks = node->data.allocated_blocks(config_.block_size) *
                (config_.block_size / 512);
    st.times = node->times;
    return st;
}

Status FileSystem::chmod(InodeId ino, abi::mode_t_ mode,
                         const Credentials& cred) {
    hook_probe("ext4_setattr");
    if (auto e = hook_inject("ext4_setattr")) return *e;
    Inode* node = find_mutable(ino);
    if (!node) return Err::ENOENT_;
    if (config_.read_only) return Err::EROFS_;
    if (!cred.is_superuser() && cred.uid != node->uid) return Err::EPERM_;
    abi::mode_t_ perm = mode & abi::MODE_PERM_MASK;
    // Non-members lose the setgid bit (kernel's setattr_copy()).
    if (!cred.is_superuser() && cred.gid != node->gid)
        perm &= ~abi::S_ISGID;
    node->mode = (node->mode & abi::S_IFMT) | perm;
    node->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::SetMode;
        e.ino = ino;
        e.mode = node->mode;
        emit_effect(std::move(e));
    }
    return {};
}

Status FileSystem::chown(InodeId ino, std::uint32_t uid, std::uint32_t gid,
                         const Credentials& cred) {
    Inode* node = find_mutable(ino);
    if (!node) return Err::ENOENT_;
    if (config_.read_only) return Err::EROFS_;
    const bool change_uid = uid != node->uid;
    const bool change_gid = gid != node->gid;
    if (!cred.is_superuser()) {
        if (change_uid) return Err::EPERM_;
        if (change_gid && (cred.uid != node->uid || gid != cred.gid))
            return Err::EPERM_;
    }
    // Ownership change moves the inode's charged blocks to the new
    // owner's quota (the kernel's dquot_transfer); uid 0 is never
    // charged.  chown does not fail with EDQUOT here — the blocks are
    // already allocated, only the ledger entry moves.
    if (change_uid && config_.quota_blocks_per_uid > 0) {
        const std::uint64_t blocks =
            node->data.allocated_blocks(config_.block_size);
        if (blocks) {
            if (node->uid != 0) {
                auto q = quota_used_.find(node->uid);
                if (q != quota_used_.end())
                    q->second -= std::min(q->second, blocks);
            }
            if (uid != 0) quota_used_[uid] += blocks;
        }
    }
    node->uid = uid;
    node->gid = gid;
    // Clear set-id bits on ownership change, as the kernel does.
    if (change_uid || change_gid)
        node->mode &= ~(abi::S_ISUID | abi::S_ISGID);
    node->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::SetOwner;
        e.ino = ino;
        e.uid = node->uid;
        e.gid = node->gid;
        emit_effect(std::move(e));
    }
    return {};
}

// ---- extended attributes ------------------------------------------------------

Status FileSystem::set_xattr(InodeId ino, std::string_view name,
                             std::span<const std::byte> value, int flags,
                             const Credentials& cred) {
    hook_probe("ext4_xattr_set");
    Inode* node = find_mutable(ino);
    if (!node) return Err::ENOENT_;
    if (config_.read_only) return Err::EROFS_;
    if (!cred.is_superuser() && cred.uid != node->uid) return Err::EPERM_;

    const std::string key(name);
    auto it = node->xattrs.find(key);
    const bool exists = it != node->xattrs.end();
    if ((flags & abi::XATTR_CREATE_) && exists) return Err::EEXIST_;
    if ((flags & abi::XATTR_REPLACE_) && !exists) return Err::ENODATA_;

    // In-inode space accounting — the code region of the paper's Fig. 1
    // bug (ext4_xattr_ibody_set / EXT4_INODE_HAS_XATTR_SPACE).
    hook_probe("ext4_xattr_ibody_set");
    if (auto e = hook_inject("ext4_xattr_ibody_set")) return *e;
    std::uint64_t used = 0;
    for (const auto& [k, v] : node->xattrs) {
        if (exists && k == key) continue;  // being replaced
        used += k.size() + v.size() + kXattrEntryOverhead;
    }
    const std::uint64_t need =
        key.size() + value.size() + kXattrEntryOverhead;
    if (used + need > node->xattr_space) {
        hook_probe("ext4_xattr_ibody_set:enospc");
        return Err::ENOSPC_;
    }
    hook_probe("ext4_xattr_ibody_set:fits");

    node->xattrs[key].assign(value.begin(), value.end());
    node->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::SetXattr;
        e.ino = ino;
        e.name = key;
        e.bytes.assign(value.begin(), value.end());
        emit_effect(std::move(e));
    }
    return {};
}

Result<std::vector<std::byte>> FileSystem::get_xattr(
    InodeId ino, std::string_view name) const {
    const Inode* node = find(ino);
    if (!node) return Err::ENOENT_;
    auto it = node->xattrs.find(std::string(name));
    if (it == node->xattrs.end()) return Err::ENODATA_;
    return it->second;
}

Result<std::vector<std::string>> FileSystem::list_xattr(InodeId ino) const {
    const Inode* node = find(ino);
    if (!node) return Err::ENOENT_;
    std::vector<std::string> names;
    names.reserve(node->xattrs.size());
    for (const auto& [k, v] : node->xattrs) names.push_back(k);
    return names;
}

Status FileSystem::remove_xattr(InodeId ino, std::string_view name,
                                const Credentials& cred) {
    Inode* node = find_mutable(ino);
    if (!node) return Err::ENOENT_;
    if (config_.read_only) return Err::EROFS_;
    if (!cred.is_superuser() && cred.uid != node->uid) return Err::EPERM_;
    auto it = node->xattrs.find(std::string(name));
    if (it == node->xattrs.end()) return Err::ENODATA_;
    node->xattrs.erase(it);
    node->times.ctime = tick();
    if (logging_effects()) {
        Effect e;
        e.op = EffectOp::RemoveXattr;
        e.ino = ino;
        e.name = std::string(name);
        emit_effect(std::move(e));
    }
    return {};
}

// ---- accounting ----------------------------------------------------------------

FsUsage FileSystem::usage() const {
    return {config_.capacity_blocks, used_blocks_, config_.max_inodes,
            inodes_.size()};
}

}  // namespace iocov::vfs
