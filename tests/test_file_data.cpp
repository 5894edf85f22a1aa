#include "vfs/file_data.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "testers/rng.hpp"

namespace iocov::vfs {
namespace {

std::vector<std::byte> bytes(std::initializer_list<int> xs) {
    std::vector<std::byte> out;
    for (int x : xs) out.push_back(static_cast<std::byte>(x));
    return out;
}

std::vector<std::byte> read_all(const FileData& fd) {
    std::vector<std::byte> out(fd.size());
    fd.read(0, out);
    return out;
}

/// Byte at `off`; nullopt past EOF.
std::optional<std::byte> at(const FileData& fd, std::uint64_t off) {
    std::byte b;
    if (fd.read(off, {&b, 1}) == 0) return std::nullopt;
    return b;
}

TEST(FileData, EmptyFile) {
    FileData fd;
    EXPECT_EQ(fd.size(), 0u);
    EXPECT_EQ(fd.allocated_bytes(), 0u);
    std::byte b;
    EXPECT_EQ(fd.read(0, {&b, 1}), 0u);
    EXPECT_FALSE(at(fd, 0).has_value());
}

TEST(FileData, WriteThenReadBack) {
    FileData fd;
    const auto data = bytes({1, 2, 3, 4});
    fd.write(0, data);
    EXPECT_EQ(fd.size(), 4u);
    EXPECT_EQ(read_all(fd), data);
}

TEST(FileData, WriteAtOffsetCreatesLeadingHole) {
    FileData fd;
    fd.write(100, bytes({9}));
    EXPECT_EQ(fd.size(), 101u);
    EXPECT_EQ(at(fd, 0), std::byte{0});   // hole reads as zero
    EXPECT_EQ(at(fd, 99), std::byte{0});
    EXPECT_EQ(at(fd, 100), std::byte{9});
    EXPECT_EQ(fd.allocated_bytes(), 1u);  // the hole costs nothing
}

TEST(FileData, OverlappingWriteSplitsExtents) {
    FileData fd;
    fd.write(0, bytes({1, 1, 1, 1, 1, 1}));
    fd.write(2, bytes({2, 2}));
    EXPECT_EQ(read_all(fd), bytes({1, 1, 2, 2, 1, 1}));
    EXPECT_EQ(fd.extent_count(), 3u);  // head, middle, tail
}

TEST(FileData, WriteCoveringWholeExtentReplacesIt) {
    FileData fd;
    fd.write(4, bytes({5, 5}));
    fd.write(0, bytes({7, 7, 7, 7, 7, 7, 7, 7}));
    EXPECT_EQ(read_all(fd), bytes({7, 7, 7, 7, 7, 7, 7, 7}));
    EXPECT_EQ(fd.extent_count(), 1u);
}

TEST(FileData, PatternWriteIsConstantSpace) {
    FileData fd;
    fd.write_pattern(0, 258ULL << 20, std::byte{0xab});  // the Fig. 3 max
    EXPECT_EQ(fd.size(), 258ULL << 20);
    EXPECT_EQ(fd.extent_count(), 1u);
    EXPECT_EQ(at(fd, 0), std::byte{0xab});
    EXPECT_EQ(at(fd, (258ULL << 20) - 1), std::byte{0xab});
}

TEST(FileData, RealWriteOverPatternPreservesSurroundings) {
    FileData fd;
    fd.write_pattern(0, 100, std::byte{0x11});
    fd.write(50, bytes({0x22, 0x22}));
    EXPECT_EQ(at(fd, 49), std::byte{0x11});
    EXPECT_EQ(at(fd, 50), std::byte{0x22});
    EXPECT_EQ(at(fd, 51), std::byte{0x22});
    EXPECT_EQ(at(fd, 52), std::byte{0x11});
}

TEST(FileData, TruncateShrinkDiscardsData) {
    FileData fd;
    fd.write(0, bytes({1, 2, 3, 4, 5, 6, 7, 8}));
    fd.set_size(4);
    EXPECT_EQ(fd.size(), 4u);
    EXPECT_EQ(fd.allocated_bytes(), 4u);
    // Re-extending exposes zeros, not the old data (no stale bytes).
    fd.set_size(8);
    EXPECT_EQ(at(fd, 5), std::byte{0});
}

TEST(FileData, TruncateGrowCreatesHole) {
    FileData fd;
    fd.write(0, bytes({1}));
    fd.set_size(1'000'000);
    EXPECT_EQ(fd.size(), 1'000'000u);
    EXPECT_EQ(fd.allocated_bytes(), 1u);
}

TEST(FileData, TruncateMidExtentTrimsIt) {
    FileData fd;
    fd.write(0, bytes({1, 2, 3, 4, 5, 6}));
    fd.set_size(3);
    EXPECT_EQ(read_all(fd), bytes({1, 2, 3}));
}

TEST(FileData, ShortReadAtEof) {
    FileData fd;
    fd.write(0, bytes({1, 2, 3}));
    std::vector<std::byte> buf(10, std::byte{0xff});
    EXPECT_EQ(fd.read(1, buf), 2u);
    EXPECT_EQ(buf[0], std::byte{2});
    EXPECT_EQ(buf[1], std::byte{3});
}

TEST(FileData, AllocatedBlocksCountsDistinctBlocks) {
    FileData fd;
    // Two extents within the same 4K block: one block charged.
    fd.write(0, bytes({1}));
    fd.write(100, bytes({2}));
    EXPECT_EQ(fd.allocated_blocks(4096), 1u);
    // An extent in a far block adds one more.
    fd.write(8192, bytes({3}));
    EXPECT_EQ(fd.allocated_blocks(4096), 2u);
    // A spanning extent is charged for each block it touches.
    fd.write_pattern(4096 * 10, 4096 * 3, std::byte{4});
    EXPECT_EQ(fd.allocated_blocks(4096), 5u);
}

TEST(FileData, NewBlocksForReservesOnlyUntouchedBlocks) {
    FileData fd;
    fd.write_pattern(0, 4096, std::byte{1});
    EXPECT_EQ(fd.new_blocks_for(0, 4096, 4096), 0u);    // fully covered
    EXPECT_EQ(fd.new_blocks_for(0, 8192, 4096), 1u);    // one new block
    EXPECT_EQ(fd.new_blocks_for(100, 100, 4096), 0u);   // inside block 0
    EXPECT_EQ(fd.new_blocks_for(4096, 4096, 4096), 1u);
    EXPECT_EQ(fd.new_blocks_for(1 << 20, 4096 * 4, 4096), 4u);
    EXPECT_EQ(fd.new_blocks_for(0, 0, 4096), 0u);
}

TEST(FileData, NewBlocksForSeesBoundarySharedBlocks) {
    FileData fd;
    fd.write(0, bytes({1}));  // touches block 0 only at byte 0
    // A write later in block 0 must not charge block 0 again.
    EXPECT_EQ(fd.new_blocks_for(2000, 100, 4096), 0u);
}

TEST(FileData, SeekDataAndHole) {
    FileData fd;
    fd.write_pattern(0, 4096, std::byte{1});          // data [0,4096)
    fd.write_pattern(16384, 4096, std::byte{2});      // data [16384,20480)
    fd.set_size(32768);                               // tail hole

    EXPECT_EQ(fd.next_data(0), 0u);
    EXPECT_EQ(fd.next_data(4096), 16384u);            // skip the hole
    EXPECT_EQ(fd.next_data(20480), std::nullopt);     // only hole remains
    EXPECT_EQ(fd.next_hole(0), 4096u);
    EXPECT_EQ(fd.next_hole(16384), 20480u);
    EXPECT_EQ(fd.next_hole(20480), 20480u);           // already in hole
}

TEST(FileData, NextHoleAtEofIsFileSize) {
    FileData fd;
    fd.write_pattern(0, 100, std::byte{1});
    EXPECT_EQ(fd.next_hole(50), 100u);  // EOF counts as a hole
}

TEST(FileData, ContentEqualsComparesPatternAndMaterialized) {
    FileData a, b;
    a.write_pattern(0, 1000, std::byte{0x42});
    std::vector<std::byte> raw(1000, std::byte{0x42});
    b.write(0, raw);
    EXPECT_EQ(read_all(a), read_all(b));
    b.write(500, bytes({0x43}));
    EXPECT_NE(read_all(a), read_all(b));
}

// ---- property test: extent map vs a dense reference model -----------------

class FileDataFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FileDataFuzz, MatchesDenseReferenceModel) {
    testers::Rng rng(GetParam());
    FileData fd;
    std::vector<std::byte> model;  // dense reference

    auto model_write = [&](std::uint64_t off, std::uint64_t len,
                           std::byte v) {
        if (model.size() < off + len) model.resize(off + len, std::byte{0});
        for (std::uint64_t i = 0; i < len; ++i) model[off + i] = v;
    };

    for (int step = 0; step < 300; ++step) {
        const auto op = rng.below(4);
        const std::uint64_t off = rng.below(2048);
        const std::uint64_t len = rng.below(512);
        const auto v = static_cast<std::byte>(rng.below(255) + 1);
        if (op == 0) {
            std::vector<std::byte> data(len, v);
            fd.write(off, data);
            model_write(off, len, v);
        } else if (op == 1) {
            fd.write_pattern(off, len, v);
            model_write(off, len, v);
        } else if (op == 2) {
            const std::uint64_t new_size = rng.below(3000);
            fd.set_size(new_size);
            model.resize(new_size, std::byte{0});
        } else {
            // Random read must match the model byte for byte.
            std::vector<std::byte> got(len, std::byte{0xee});
            const auto n = fd.read(off, got);
            const auto expect_n =
                off >= model.size()
                    ? 0u
                    : std::min<std::uint64_t>(len, model.size() - off);
            ASSERT_EQ(n, expect_n) << "step " << step;
            for (std::uint64_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], model[off + i])
                    << "step " << step << " byte " << off + i;
        }
        ASSERT_EQ(fd.size(), model.size()) << "step " << step;
    }

    // Final full comparison plus invariants.
    const auto all = read_all(fd);
    ASSERT_EQ(all.size(), model.size());
    EXPECT_EQ(all, model);
    EXPECT_LE(fd.allocated_bytes(), std::max<std::uint64_t>(model.size(), 1));
    // next_data/next_hole agree with the model's zero structure at a few
    // probe points (holes read as zero, though zero bytes may be data).
    for (std::uint64_t probe = 0; probe < model.size();
         probe += 257) {
        const auto d = fd.next_data(probe);
        if (d) {
            ASSERT_LT(*d, fd.size());
            ASSERT_GE(*d, probe);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileDataFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace iocov::vfs
