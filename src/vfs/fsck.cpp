#include "vfs/fsck.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace iocov::vfs {

namespace {

std::string n(std::uint64_t v) { return std::to_string(v); }

}  // namespace

const char* fsck_code_name(FsckCode code) {
    switch (code) {
        case FsckCode::DanglingDirent: return "dangling-dirent";
        case FsckCode::LinkCountMismatch: return "link-count-mismatch";
        case FsckCode::ZeroLinkInode: return "zero-link-inode";
        case FsckCode::OrphanInode: return "orphan-inode";
        case FsckCode::MultipleDirParents: return "multiple-dir-parents";
        case FsckCode::BadDotDot: return "bad-dotdot";
        case FsckCode::DirectoryCycle: return "directory-cycle";
        case FsckCode::DataOnNonFile: return "data-on-non-file";
        case FsckCode::AllocationBeyondEof: return "allocation-beyond-eof";
        case FsckCode::BlockSumMismatch: return "block-sum-mismatch";
        case FsckCode::QuotaSumMismatch: return "quota-sum-mismatch";
        case FsckCode::StaleFdInode: return "stale-fd-inode";
    }
    return "unknown";
}

std::string FsckViolation::to_string() const {
    std::string out = "[";
    out += fsck_code_name(code);
    out += "]";
    if (ino != kInvalidInode) out += " inode " + n(ino);
    out += ": " + detail;
    return out;
}

FsckReport fsck(const FileSystem& fs, const FsckOptions& opts) {
    FsckReport rep;
    const auto& table = fs.inodes();
    const auto& cfg = fs.config();

    auto add = [&](FsckCode code, InodeId ino, std::string detail) {
        rep.violations.push_back({code, ino, std::move(detail)});
    };

    // Pass 1: count how many dirents reference each inode.
    std::map<InodeId, std::uint64_t> refs;
    for (const auto& [id, node] : table) {
        if (!node.is_dir()) continue;
        for (const auto& [name, child] : node.dirents) {
            ++rep.dirents_checked;
            if (!table.count(child)) {
                add(FsckCode::DanglingDirent, id,
                    "entry '" + name + "' names missing inode " + n(child));
                continue;
            }
            ++refs[child];
        }
    }

    const std::set<InodeId> pinned(opts.pinned_inodes.begin(),
                                   opts.pinned_inodes.end());
    for (InodeId ino : pinned) {
        if (!table.count(ino))
            add(FsckCode::StaleFdInode, ino,
                "an open fd references an inode absent from the table");
    }

    // Pass 2: per-inode invariants + accounting sums.
    std::uint64_t total_blocks = 0;
    std::map<std::uint32_t, std::uint64_t> uid_blocks;

    for (const auto& [id, node] : table) {
        ++rep.inodes_checked;
        const auto rit = refs.find(id);
        const std::uint64_t r = rit == refs.end() ? 0 : rit->second;

        if (node.nlink == 0)
            add(FsckCode::ZeroLinkInode, id, "nlink 0 but inode not freed");

        if (node.is_dir()) {
            if (id == kRootInode) {
                if (r != 0)
                    add(FsckCode::MultipleDirParents, id,
                        "root referenced by " + n(r) + " dirent(s)");
            } else if (r == 0) {
                add(FsckCode::OrphanInode, id,
                    "directory has no parent dirent");
            } else if (r > 1) {
                add(FsckCode::MultipleDirParents, id,
                    "directory referenced by " + n(r) + " dirents");
            }

            // ".." correctness: the parent pointer must name a live
            // directory that actually holds an entry for this inode.
            const Inode* parent = fs.find(node.parent);
            if (id == kRootInode) {
                if (node.parent != kRootInode)
                    add(FsckCode::BadDotDot, id,
                        "root '..' must be the root, is " + n(node.parent));
            } else if (!parent) {
                add(FsckCode::BadDotDot, id,
                    "parent inode " + n(node.parent) + " does not exist");
            } else if (!parent->is_dir()) {
                add(FsckCode::BadDotDot, id,
                    "parent inode " + n(node.parent) + " is not a directory");
            } else {
                const bool referenced = std::any_of(
                    parent->dirents.begin(), parent->dirents.end(),
                    [&](const auto& e) { return e.second == id; });
                if (!referenced)
                    add(FsckCode::BadDotDot, id,
                        "parent inode " + n(node.parent) +
                            " has no entry for this directory");
            }

            // nlink = "." + parent entry (or root's own "..") + one ".."
            // per live subdirectory.
            std::uint64_t subdirs = 0;
            for (const auto& [name, child] : node.dirents) {
                const Inode* c = fs.find(child);
                if (c && c->is_dir()) ++subdirs;
            }
            const std::uint64_t expect = 2 + subdirs;
            if (node.nlink != expect)
                add(FsckCode::LinkCountMismatch, id,
                    "nlink " + n(node.nlink) + ", expected " + n(expect) +
                        " (2 + " + n(subdirs) + " subdirs)");

            // Acyclicity: the parent chain must reach the root.  A chain
            // broken by a dead or non-directory parent is BadDotDot (above),
            // not a cycle.
            InodeId cur = id;
            bool reached = false, broken = false;
            for (std::uint64_t hops = 0; hops <= table.size() + 1; ++hops) {
                if (cur == kRootInode) {
                    reached = true;
                    break;
                }
                const Inode* c = fs.find(cur);
                if (!c || !c->is_dir()) {
                    broken = true;
                    break;
                }
                cur = c->parent;
            }
            if (!reached && !broken)
                add(FsckCode::DirectoryCycle, id,
                    "parent chain never reaches the root");
        } else {
            if (r == 0) {
                if (pinned.count(id)) {
                    // O_TMPFILE: pinned by the fd, nlink held at 1.
                    if (node.nlink != 1)
                        add(FsckCode::LinkCountMismatch, id,
                            "anonymous inode nlink " + n(node.nlink) +
                                ", expected 1");
                } else {
                    add(FsckCode::OrphanInode, id,
                        "no dirent references the inode and no fd pins it");
                }
            } else if (node.nlink != r) {
                add(FsckCode::LinkCountMismatch, id,
                    "nlink " + n(node.nlink) + ", but " + n(r) +
                        " dirent reference(s)");
            }
        }

        // File size vs. block accounting.
        if (node.is_reg()) {
            const std::uint64_t size = node.data.size();
            if (node.data.allocated_bytes() > size ||
                node.data.next_data(size).has_value())
                add(FsckCode::AllocationBeyondEof, id,
                    "extents mapped at or past size " + n(size));
        } else if (node.data.size() != 0) {
            add(FsckCode::DataOnNonFile, id,
                "non-regular inode carries " + n(node.data.size()) +
                    " bytes of file data");
        }

        const std::uint64_t blocks = node.data.allocated_blocks(cfg.block_size);
        total_blocks += blocks;
        if (node.uid != 0) uid_blocks[node.uid] += blocks;
    }

    if (total_blocks != fs.used_blocks())
        add(FsckCode::BlockSumMismatch, kInvalidInode,
            "used_blocks " + n(fs.used_blocks()) +
                ", sum of per-inode allocations " + n(total_blocks));

    // Quota ledger: per-uid sums must match exactly (missing entry == 0).
    if (cfg.quota_blocks_per_uid > 0) {
        std::set<std::uint32_t> uids;
        for (const auto& [uid, blocks] : uid_blocks) uids.insert(uid);
        for (const auto& [uid, blocks] : fs.quota_snapshot()) uids.insert(uid);
        for (std::uint32_t uid : uids) {
            const auto ait = uid_blocks.find(uid);
            const std::uint64_t actual =
                ait == uid_blocks.end() ? 0 : ait->second;
            const auto& ledger_map = fs.quota_snapshot();
            const auto lit = ledger_map.find(uid);
            const std::uint64_t ledger = lit == ledger_map.end() ? 0 : lit->second;
            if (actual != ledger)
                add(FsckCode::QuotaSumMismatch, kInvalidInode,
                    "uid " + n(uid) + ": ledger " + n(ledger) +
                        " blocks, per-inode sum " + n(actual));
        }
    } else {
        for (const auto& [uid, blocks] : fs.quota_snapshot()) {
            if (blocks)
                add(FsckCode::QuotaSumMismatch, kInvalidInode,
                    "quotas disabled but uid " + n(uid) + " has " +
                        n(blocks) + " blocks charged");
        }
    }

    return rep;
}

}  // namespace iocov::vfs
