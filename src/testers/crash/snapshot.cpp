#include "testers/crash/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

namespace iocov::testers::crash {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

std::uint64_t hash_file(const vfs::Inode& node) {
    // Extent-aware: hash only allocated regions, tagged with their
    // offset and length, and skip holes entirely — fixture images carry
    // multi-GiB sparse files that must not cost O(size) per snapshot.
    // (StateFact::size covers total length; this hash covers layout +
    // bytes of what is actually stored.)
    std::uint64_t h = kFnvOffset;
    std::array<std::byte, 64 * 1024> chunk;
    const std::uint64_t size = node.data.size();
    std::uint64_t off = 0;
    while (off < size) {
        const auto data = node.data.next_data(off);
        if (!data || *data >= size) break;
        const std::uint64_t end =
            std::min<std::uint64_t>(node.data.next_hole(*data), size);
        const std::uint64_t region[2] = {*data, end - *data};
        fnv_bytes(h, region, sizeof region);
        std::uint64_t pos = *data;
        while (pos < end) {
            const std::uint64_t want =
                std::min<std::uint64_t>(chunk.size(), end - pos);
            const std::uint64_t got =
                node.data.read(pos, std::span(chunk.data(), want));
            fnv_bytes(h, chunk.data(), got);
            if (got < want) break;  // defensive
            pos += got;
        }
        off = end;
    }
    return h;
}

std::uint64_t hash_xattrs(const vfs::Inode& node) {
    if (node.xattrs.empty()) return 0;
    std::uint64_t h = kFnvOffset;
    for (const auto& [name, value] : node.xattrs) {  // map: sorted
        fnv_bytes(h, name.data(), name.size());
        fnv_bytes(h, "=", 1);
        fnv_bytes(h, value.data(), value.size());
        fnv_bytes(h, ";", 1);
    }
    return h;
}

core::StateFact fact_for(const vfs::Inode& node) {
    core::StateFact f;
    if (node.is_dir()) f.type = core::StateFact::Type::Dir;
    else if (node.is_lnk()) f.type = core::StateFact::Type::Symlink;
    else if (node.is_reg()) f.type = core::StateFact::Type::File;
    else f.type = core::StateFact::Type::Special;
    f.mode = node.mode;
    f.uid = node.uid;
    f.gid = node.gid;
    if (f.type == core::StateFact::Type::File) {
        f.size = node.data.size();
        f.content_hash = hash_file(node);
    }
    f.xattr_hash = hash_xattrs(node);
    f.symlink_target = node.symlink_target;
    return f;
}

void walk(const vfs::FileSystem& fs, vfs::InodeId ino,
          const std::string& path, core::StateSnapshot* snap,
          std::map<std::string, vfs::InodeId>* path_inos) {
    const vfs::Inode* node = fs.find(ino);
    if (!node) return;  // dangling dirent: fsck's problem, not ours
    snap->entries.emplace(path, fact_for(*node));
    if (path_inos) path_inos->emplace(path, ino);
    if (!node->is_dir()) return;
    for (const auto& [name, child] : node->dirents) {
        const std::string child_path =
            (path == "/" ? path : path + "/") + name;
        walk(fs, child, child_path, snap, path_inos);
    }
}

}  // namespace

core::StateSnapshot snapshot_vfs(
    const vfs::FileSystem& fs,
    std::map<std::string, vfs::InodeId>* path_inos) {
    core::StateSnapshot snap;
    walk(fs, vfs::kRootInode, "/", &snap, path_inos);
    return snap;
}

}  // namespace iocov::testers::crash
