// Invariant-based fuzzing of the FileSystem namespace: random operation
// sequences must preserve the global structural invariants a real fs
// maintains (link counts, parent pointers, block accounting).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "testers/rng.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::vfs {
namespace {

class Invariants {
  public:
    static void check(FileSystem& fs) {
        std::map<InodeId, unsigned> name_refs;  // dirent references
        std::map<InodeId, unsigned> subdirs;
        std::set<InodeId> seen_dirs;

        // Walk the namespace from the root.
        walk(fs, kRootInode, name_refs, subdirs, seen_dirs);

        for (const auto& dir : seen_dirs) {
            const Inode* node = fs.find(dir);
            ASSERT_NE(node, nullptr);
            // Directory nlink = 2 ("." + parent entry) + one ".." per
            // subdirectory.  The root's parent entry is itself.
            EXPECT_EQ(node->nlink, 2 + subdirs[dir]) << "dir " << dir;
        }
        // Every reachable non-directory inode's nlink equals its number
        // of directory references (no fds held here).
        for (const auto& [ino, refs] : name_refs) {
            const Inode* node = fs.find(ino);
            ASSERT_NE(node, nullptr) << "dangling dirent to " << ino;
            if (!node->is_dir()) {
                EXPECT_EQ(node->nlink, refs) << "inode " << ino;
            }
        }
        // Block accounting: the sum over distinct inodes matches usage.
        std::uint64_t distinct_blocks = 0;
        std::set<InodeId> counted;
        for (const auto& [ino, refs] : name_refs) {
            if (!counted.insert(ino).second) continue;
            distinct_blocks +=
                fs.find(ino)->data.allocated_blocks(fs.config().block_size);
        }
        for (const auto& dir : seen_dirs) {
            if (!counted.insert(dir).second) continue;
            distinct_blocks +=
                fs.find(dir)->data.allocated_blocks(fs.config().block_size);
        }
        EXPECT_EQ(fs.usage().used_blocks, distinct_blocks);
    }

  private:
    static void walk(FileSystem& fs, InodeId dir,
                     std::map<InodeId, unsigned>& name_refs,
                     std::map<InodeId, unsigned>& subdirs,
                     std::set<InodeId>& seen_dirs) {
        if (!seen_dirs.insert(dir).second) return;
        const Inode* node = fs.find(dir);
        ASSERT_NE(node, nullptr);
        ASSERT_TRUE(node->is_dir());
        for (const auto& [name, child_id] : node->dirents) {
            ++name_refs[child_id];
            const Inode* child = fs.find(child_id);
            ASSERT_NE(child, nullptr) << "dangling entry " << name;
            if (child->is_dir()) {
                EXPECT_EQ(child->parent, dir) << "bad parent for " << name;
                ++subdirs[dir];
                walk(fs, child_id, name_refs, subdirs, seen_dirs);
            }
        }
    }
};

class VfsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VfsFuzz, RandomNamespaceOpsPreserveInvariants) {
    FsConfig cfg;
    cfg.capacity_blocks = 4096;
    cfg.max_inodes = 512;
    cfg.max_links = 12;
    FileSystem fs(cfg);
    const auto root = Credentials::root();
    testers::Rng rng(GetParam());

    // A pool of directories (by id) and names to act on.
    std::vector<InodeId> dirs{kRootInode};
    auto random_dir = [&] { return dirs[rng.below(dirs.size())]; };
    auto random_name = [&] {
        return std::string("n") + std::to_string(rng.below(24));
    };
    auto random_path = [&] {
        std::string path = "/";
        return path += random_name();
    };

    for (int step = 0; step < 600; ++step) {
        const auto op = rng.below(10);
        const InodeId dir = random_dir();
        const std::string name = random_name();
        switch (op) {
            case 0:
            case 1: {
                (void)fs.create_file(dir, name, 0644, root);
                break;
            }
            case 2: {
                auto made = fs.make_dir(dir, name, 0755, root);
                if (made.ok()) dirs.push_back(made.value());
                break;
            }
            case 3: {
                (void)fs.make_symlink(dir, name, random_path(), root);
                break;
            }
            case 4: {  // hard link to some existing file
                auto target = fs.resolve(random_path(), root);
                if (target.ok())
                    (void)fs.link(target.value(), dir, name, root);
                break;
            }
            case 5: {
                (void)fs.unlink(dir, name, root);
                break;
            }
            case 6: {
                auto st = fs.remove_dir(dir, name, root);
                if (st.ok()) {
                    // Forget removed directories (and anything under
                    // them would have blocked removal anyway).
                    const Inode* d = fs.find(dir);
                    (void)d;
                    dirs.erase(std::remove_if(
                                   dirs.begin(), dirs.end(),
                                   [&](InodeId id) {
                                       return fs.find(id) == nullptr;
                                   }),
                               dirs.end());
                }
                break;
            }
            case 7: {
                (void)fs.rename(dir, name, random_dir(), random_name(),
                                root);
                // rename can delete a victim dir; prune stale ids.
                dirs.erase(std::remove_if(dirs.begin(), dirs.end(),
                                          [&](InodeId id) {
                                              return fs.find(id) == nullptr;
                                          }),
                           dirs.end());
                break;
            }
            case 8: {  // write some data through the inode API
                auto target = fs.resolve(random_path(), root);
                if (target.ok() && fs.find(target.value())->is_reg())
                    (void)fs.write_pattern(target.value(),
                                           rng.below(1 << 16),
                                           rng.below(1 << 14),
                                           std::byte{1});
                break;
            }
            default: {
                auto target = fs.resolve(random_path(), root);
                if (target.ok() && fs.find(target.value())->is_reg())
                    (void)fs.truncate(target.value(), rng.below(1 << 15));
                break;
            }
        }
        if (step % 60 == 0) Invariants::check(fs);
        if (::testing::Test::HasFatalFailure()) return;
    }
    Invariants::check(fs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

}  // namespace
}  // namespace iocov::vfs
