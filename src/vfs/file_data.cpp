#include "vfs/file_data.hpp"

#include <algorithm>
#include <cassert>

namespace iocov::vfs {

void FileData::set_size(std::uint64_t new_size) {
    if (new_size < size_) punch(new_size, size_ - new_size);
    size_ = new_size;
}

void FileData::punch(std::uint64_t off, std::uint64_t len) {
    if (len == 0) return;
    const std::uint64_t end = off + len;

    // Find the first extent that could overlap: the one before `off`
    // may straddle it.
    auto it = extents_.lower_bound(off);
    if (it != extents_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > off) it = prev;
    }

    while (it != extents_.end() && it->first < end) {
        const std::uint64_t es = it->first;
        Extent ex = std::move(it->second);
        const std::uint64_t ee = es + ex.len;
        it = extents_.erase(it);

        if (es < off) {
            // Keep the head [es, off).
            Extent head;
            head.len = off - es;
            head.pattern = ex.pattern;
            if (ex.materialized())
                head.bytes.assign(ex.bytes.begin(),
                                  ex.bytes.begin() +
                                      static_cast<std::ptrdiff_t>(head.len));
            extents_.emplace(es, std::move(head));
        }
        if (ee > end) {
            // Keep the tail [end, ee).
            Extent tail;
            tail.len = ee - end;
            tail.pattern = ex.pattern;
            if (ex.materialized())
                tail.bytes.assign(
                    ex.bytes.begin() + static_cast<std::ptrdiff_t>(end - es),
                    ex.bytes.end());
            it = extents_.emplace(end, std::move(tail)).first;
            ++it;
        }
    }
}

void FileData::write(std::uint64_t off, std::span<const std::byte> bytes) {
    if (bytes.empty()) return;
    punch(off, bytes.size());
    Extent ex;
    ex.len = bytes.size();
    ex.bytes.assign(bytes.begin(), bytes.end());
    extents_.emplace(off, std::move(ex));
    size_ = std::max(size_, off + bytes.size());
}

void FileData::write_pattern(std::uint64_t off, std::uint64_t len,
                             std::byte value) {
    if (len == 0) return;
    punch(off, len);
    Extent ex;
    ex.len = len;
    ex.pattern = value;
    extents_.emplace(off, std::move(ex));
    size_ = std::max(size_, off + len);
}

std::uint64_t FileData::read(std::uint64_t off, std::span<std::byte> out) const {
    if (off >= size_) return 0;
    const std::uint64_t n = std::min<std::uint64_t>(out.size(), size_ - off);
    std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n),
              std::byte{0});

    auto it = extents_.lower_bound(off);
    if (it != extents_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > off) it = prev;
    }
    const std::uint64_t end = off + n;
    for (; it != extents_.end() && it->first < end; ++it) {
        const std::uint64_t es = std::max(it->first, off);
        const std::uint64_t ee = std::min(it->first + it->second.len, end);
        for (std::uint64_t pos = es; pos < ee; ++pos)
            out[pos - off] = it->second.byte_at(pos - it->first);
    }
    return n;
}

std::uint64_t FileData::allocated_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& [off, ex] : extents_) sum += ex.len;
    return sum;
}

std::uint64_t FileData::allocated_blocks(std::uint64_t block_size) const {
    assert(block_size > 0);
    // Count distinct blocks touched by extents (adjacent extents in the
    // same block must not be double-charged).
    std::uint64_t blocks = 0;
    std::uint64_t last_block = ~std::uint64_t{0};
    for (const auto& [off, ex] : extents_) {
        std::uint64_t first = off / block_size;
        const std::uint64_t last = (off + ex.len - 1) / block_size;
        if (first == last_block) ++first;
        if (first > last) continue;
        blocks += last - first + 1;
        last_block = last;
    }
    return blocks;
}

std::uint64_t FileData::new_blocks_for(std::uint64_t off, std::uint64_t len,
                                       std::uint64_t block_size) const {
    assert(block_size > 0);
    if (len == 0) return 0;
    const std::uint64_t first_block = off / block_size;
    const std::uint64_t last_block = (off + len - 1) / block_size;
    const std::uint64_t total = last_block - first_block + 1;

    // Count blocks in [first_block, last_block] already touched by an
    // extent.  Search over the block-aligned byte range so an extent
    // sharing only a boundary block is still seen.
    const std::uint64_t search_lo = first_block * block_size;
    const std::uint64_t search_hi = (last_block + 1) * block_size;

    auto it = extents_.lower_bound(search_lo);
    if (it != extents_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > search_lo) it = prev;
    }
    std::uint64_t touched = 0;
    std::uint64_t next_uncounted = first_block;  // extents are sorted
    for (; it != extents_.end() && it->first < search_hi; ++it) {
        std::uint64_t eb = std::max(it->first / block_size, next_uncounted);
        const std::uint64_t le =
            std::min((it->first + it->second.len - 1) / block_size, last_block);
        if (eb > le) continue;
        touched += le - eb + 1;
        next_uncounted = le + 1;
    }
    return total - touched;
}

std::optional<std::uint64_t> FileData::next_data(std::uint64_t off) const {
    auto it = extents_.lower_bound(off);
    if (it != extents_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > off) return off;
    }
    if (it == extents_.end() || it->first >= size_) return std::nullopt;
    return it->first;
}

std::uint64_t FileData::next_hole(std::uint64_t off) const {
    assert(off <= size_);
    std::uint64_t pos = off;
    for (;;) {
        auto it = extents_.lower_bound(pos);
        if (it != extents_.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second.len > pos) it = prev;
        }
        if (it == extents_.end() || it->first > pos)
            return pos;  // in a hole (possibly the EOF hole)
        pos = it->first + it->second.len;
        if (pos >= size_) return size_;
    }
}

}  // namespace iocov::vfs
