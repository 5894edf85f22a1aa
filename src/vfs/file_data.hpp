// Sparse file contents as an extent map.
//
// Test workloads write anywhere from 0 bytes to hundreds of MiB (the
// paper's Fig. 3 spans write sizes up to 258 MiB).  Storing file bytes
// densely would make large-write workloads quadratic in memory, so file
// contents are an ordered map of extents.  An extent either materializes
// real bytes (small writes, content verified by tests) or records a fill
// pattern (large synthetic writes — one byte value repeated), which is
// how the workload generators produce giant writes in O(1) space.
// Unmapped ranges inside the file size are holes and read as zeros,
// which also gives lseek(2) SEEK_DATA/SEEK_HOLE real semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

namespace iocov::vfs {

class FileData {
  public:
    /// Current file size in bytes (holes included).
    std::uint64_t size() const { return size_; }

    /// Truncates or extends to `new_size`.  Shrinking discards extents
    /// beyond the new end; growing creates a hole.
    void set_size(std::uint64_t new_size);

    /// Writes real bytes at `off`, growing the file if needed.
    void write(std::uint64_t off, std::span<const std::byte> bytes);

    /// Writes `len` copies of `value` at `off` without materializing a
    /// buffer; grows the file if needed.
    void write_pattern(std::uint64_t off, std::uint64_t len, std::byte value);

    /// Reads into `out` starting at `off`.  Returns the number of bytes
    /// read (short at EOF); holes read as zeros.
    std::uint64_t read(std::uint64_t off, std::span<std::byte> out) const;

    /// Bytes backed by extents (i.e. "allocated" space; holes are free).
    std::uint64_t allocated_bytes() const;

    /// Allocated space rounded up to whole blocks — the unit the
    /// FileSystem charges against capacity and quota.
    std::uint64_t allocated_blocks(std::uint64_t block_size) const;

    /// Blocks a write of [off, off+len) would newly allocate: the blocks
    /// in that range not yet touched by any extent.  Lets the FileSystem
    /// reserve space (ENOSPC/EDQUOT) *before* mutating, like a real
    /// block allocator, so failed writes need no rollback.
    std::uint64_t new_blocks_for(std::uint64_t off, std::uint64_t len,
                                 std::uint64_t block_size) const;

    /// First offset >= `off` that lies in an extent (SEEK_DATA);
    /// nullopt when no data exists at or after `off`.
    std::optional<std::uint64_t> next_data(std::uint64_t off) const;

    /// First offset >= `off` that lies in a hole; the implicit hole at
    /// EOF counts, so this returns size() when the tail is fully mapped.
    /// Precondition: off <= size().
    std::uint64_t next_hole(std::uint64_t off) const;

    /// Number of extents (exposed for fragmentation assertions in tests).
    std::size_t extent_count() const { return extents_.size(); }

  private:
    struct Extent {
        std::uint64_t len = 0;
        /// Materialized bytes; empty means `pattern` repeated `len` times.
        std::vector<std::byte> bytes;
        std::byte pattern{0};

        bool materialized() const { return !bytes.empty(); }
        std::byte byte_at(std::uint64_t i) const {
            return materialized() ? bytes[i] : pattern;
        }
    };

    /// Removes all extent coverage of [off, off+len), splitting extents
    /// that straddle the boundary.
    void punch(std::uint64_t off, std::uint64_t len);

    /// Extents keyed by starting offset; non-overlapping, non-empty.
    std::map<std::uint64_t, Extent> extents_;
    std::uint64_t size_ = 0;
};

}  // namespace iocov::vfs
