// IOCK checkpoint manifests: round trips, all-or-nothing decode under
// truncation/corruption, and the headline resumability claim —
// finishing from a checkpoint taken at *any* point yields bytes
// identical to merge_snapshots over the full input.  The
// IncrementalMergeTest cases keep their names from when resume state
// was a binary-counter forest of blocks; they now check that such
// multi-block manifests still decode and fold to the same bytes.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/iocov.hpp"
#include "core/snapshot.hpp"
#include "syscall/kernel.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/binary_format.hpp"
#include "trace/detail/wire.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::core {
namespace {

trace::FilterConfig config() {
    return trace::FilterConfig::mount_point("/mnt/test");
}

std::vector<trace::TraceEvent> generator_trace(double scale,
                                               std::uint64_t seed) {
    vfs::FileSystem fss(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fss, "/mnt/test");
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fss, &buffer);
    testers::run_xfstests(kernel, fx, scale, seed);
    return buffer.take_events();
}

/// `n` shard snapshots of one workload, with a shared label and
/// distinct timestamps so a fold seeded from IOCovSnapshot{} (which
/// clears the label) cannot pass.
std::vector<IOCovSnapshot> make_leaves(std::size_t n, std::uint64_t seed) {
    const auto events = generator_trace(0.03, seed);
    std::vector<std::vector<trace::TraceEvent>> parts(n);
    for (std::size_t i = 0; i < events.size(); ++i)
        parts[i % n].push_back(events[i]);

    std::vector<IOCovSnapshot> leaves;
    for (std::size_t i = 0; i < n; ++i) {
        IOCov shard(config());
        shard.consume_binary(trace::encode_trace(parts[i]));
        auto snap = shard.snapshot();
        snap.label = "shard";
        snap.timestamp = 2000 + i;
        leaves.push_back(std::move(snap));
    }
    return leaves;
}

std::vector<NamedSnapshot> named(const std::vector<IOCovSnapshot>& leaves) {
    std::vector<NamedSnapshot> out;
    for (std::size_t i = 0; i < leaves.size(); ++i)
        out.push_back({"shard" + std::to_string(i) + ".iocs", leaves[i]});
    return out;
}

/// What `iocov merge --checkpoint` runs: one accumulator, seeded from
/// the first leaf.
MergeBlock fold(const std::vector<IOCovSnapshot>& leaves, std::size_t begin,
                std::size_t end) {
    MergeBlock acc;
    for (std::size_t i = begin; i < end; ++i) acc.absorb({1, leaves[i]});
    return acc;
}

Checkpoint sample_checkpoint(const std::vector<IOCovSnapshot>& leaves) {
    Checkpoint cp;
    cp.mode = CheckpointMode::Merge;
    cp.consumed = {"a.iocs", "b.iocs", "README.md"};
    cp.rejected = 1;
    cp.bytes = 123456789;
    cp.diags.record(0, 42, "not a snapshot", "hello");
    cp.diags.record(7, 99, "version skew: file is v9");
    cp.diags.count_only(3);
    cp.blocks = {fold(leaves, 0, leaves.size())};
    return cp;
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
    const auto leaves = make_leaves(3, 31);
    const Checkpoint cp = sample_checkpoint(leaves);

    const std::string bytes = encode_checkpoint(cp);
    ASSERT_TRUE(trace::detail::has_magic(bytes, kIockMagic));
    EXPECT_FALSE(trace::detail::has_magic("IOCS not a manifest", kIockMagic));

    SnapshotError err;
    const auto back = decode_checkpoint(bytes, &err);
    ASSERT_TRUE(back.has_value()) << err.to_string();
    EXPECT_EQ(back->mode, CheckpointMode::Merge);
    EXPECT_EQ(back->consumed, cp.consumed);
    EXPECT_EQ(back->rejected, 1u);
    EXPECT_EQ(back->bytes, 123456789u);
    EXPECT_EQ(back->diags.total(), 5u);  // 2 retained + 3 count-only
    ASSERT_EQ(back->diags.entries().size(), 2u);
    EXPECT_EQ(back->diags.entries()[0].offset, 42u);
    EXPECT_EQ(back->diags.entries()[0].reason, "not a snapshot");
    EXPECT_EQ(back->diags.entries()[0].excerpt, "hello");
    EXPECT_EQ(back->diags.entries()[1].line, 7u);
    EXPECT_EQ(back->blocks, cp.blocks);

    // Deterministic: re-encoding the decoded value reproduces the bytes.
    EXPECT_EQ(encode_checkpoint(*back), bytes);
}

TEST(Checkpoint, AnalyzeModeAndEmptyStateRoundTrip) {
    Checkpoint cp;
    cp.mode = CheckpointMode::Analyze;
    const auto back = decode_checkpoint(encode_checkpoint(cp));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->mode, CheckpointMode::Analyze);
    EXPECT_TRUE(back->consumed.empty());
    EXPECT_TRUE(back->blocks.empty());
    EXPECT_EQ(back->diags.total(), 0u);
}

TEST(Checkpoint, EveryTruncationFailsToDecode) {
    const auto leaves = make_leaves(2, 32);
    const std::string bytes = encode_checkpoint(sample_checkpoint(leaves));
    // A manifest is resume *state*: any prefix must be rejected whole,
    // or resume would silently double-count inputs.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        SnapshotError err;
        EXPECT_FALSE(
            decode_checkpoint({bytes.data(), len}, &err).has_value())
            << "decoded a " << len << "-byte prefix of "
            << bytes.size() << " bytes";
    }
}

TEST(Checkpoint, EveryBitFlipFailsToDecode) {
    Checkpoint cp;
    cp.consumed = {"x.iocs"};
    const std::string bytes = encode_checkpoint(cp);
    // Small manifest, so exhaustive single-bit corruption is cheap.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = bytes;
            bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
            SnapshotError err;
            EXPECT_FALSE(decode_checkpoint(bad, &err).has_value())
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(Checkpoint, EmbeddedBlockDamageIsAnchoredAndLabeled) {
    const auto leaves = make_leaves(1, 33);
    Checkpoint cp;
    cp.blocks = {{1, leaves[0]}};
    std::string bytes = encode_checkpoint(cp);
    // Flip one byte inside the embedded IOCS payload (well past the
    // envelope header) and confirm the error names the embedded block.
    const std::size_t target = bytes.find("IOCS");
    ASSERT_NE(target, std::string::npos);
    bytes[target + 40] = static_cast<char>(bytes[target + 40] ^ 0x10);
    SnapshotError err;
    EXPECT_FALSE(decode_checkpoint(bytes, &err).has_value());
    EXPECT_NE(err.reason.find("embedded block snapshot"),
              std::string::npos)
        << err.to_string();
    EXPECT_GE(err.offset, target);  // anchored to the file, not the block
}

TEST(Checkpoint, WrongMagicAndVersionAreStructured) {
    SnapshotError err;
    EXPECT_FALSE(decode_checkpoint("not a manifest at all", &err));
    EXPECT_EQ(err.kind, SnapshotError::Kind::Corrupt);

    Checkpoint cp;
    std::string skewed = encode_checkpoint(cp);
    skewed[4] = 9;  // version byte
    EXPECT_FALSE(decode_checkpoint(skewed, &err));
    EXPECT_NE(err.reason.find("version"), std::string::npos)
        << err.to_string();
}

TEST(Checkpoint, SaveLoadFileRoundTripAndMissingFile) {
    const auto leaves = make_leaves(2, 34);
    const Checkpoint cp = sample_checkpoint(leaves);
    const std::string path = "/tmp/iocov_ck_rt_" +
                             std::to_string(::getpid()) + ".iock";
    SnapshotError err;
    ASSERT_TRUE(save_checkpoint_file(path, cp, &err)) << err.to_string();
    const auto back = load_checkpoint_file(path, &err);
    ASSERT_TRUE(back.has_value()) << err.to_string();
    EXPECT_EQ(back->blocks, cp.blocks);
    EXPECT_EQ(back->consumed, cp.consumed);
    ::unlink(path.c_str());

    EXPECT_FALSE(load_checkpoint_file(path, &err).has_value());
    EXPECT_EQ(err.kind, SnapshotError::Kind::Io);
    EXPECT_NE(err.io_errno, 0);
}

TEST(IncrementalMergeTest, ForestShapeIsBinaryCounter) {
    // Older builds checkpointed a binary-counter forest: after 13
    // leaves, blocks of 8, 4 and 1.  Such a manifest still decodes, and
    // because merge is exact its blocks fold in any order to the bytes
    // of merge_snapshots over the 13 leaves.
    const auto leaves = make_leaves(13, 35);
    Checkpoint cp;
    cp.blocks = {fold(leaves, 0, 8), fold(leaves, 8, 12),
                 fold(leaves, 12, 13)};
    const auto back = decode_checkpoint(encode_checkpoint(cp));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->blocks.size(), 3u);
    EXPECT_EQ(back->blocks[0].leaves, 8u);
    EXPECT_EQ(back->blocks[1].leaves, 4u);
    EXPECT_EQ(back->blocks[2].leaves, 1u);

    const auto want = encode_snapshot(merge_snapshots(named(leaves), 1));
    std::vector<std::size_t> order = {0, 1, 2};
    do {
        MergeBlock acc;
        for (const std::size_t i : order) acc.absorb(back->blocks[i]);
        EXPECT_EQ(acc.leaves, 13u);
        EXPECT_EQ(encode_snapshot(acc.snapshot), want)
            << "order " << order[0] << order[1] << order[2];
    } while (std::next_permutation(order.begin(), order.end()));
}

TEST(IncrementalMergeTest, MatchesMergeSnapshotsBytesForEveryN) {
    // A sequential fold from the first leaf — the checkpointed merge
    // walk — gives merge_snapshots' bytes at any lane count.
    const auto all = make_leaves(17, 36);
    for (std::size_t n = 0; n <= all.size(); ++n) {
        const std::vector<IOCovSnapshot> leaves(all.begin(),
                                                all.begin() + n);
        const auto got = encode_snapshot(fold(leaves, 0, n).snapshot);
        for (const unsigned threads : {1u, 4u})
            EXPECT_EQ(encode_snapshot(merge_snapshots(named(leaves), threads)),
                      got)
                << "n=" << n << " threads=" << threads;
    }
}

TEST(IncrementalMergeTest, ResumeAtEveryPointIsByteIdentical) {
    const auto leaves = make_leaves(11, 37);
    const auto want =
        encode_snapshot(fold(leaves, 0, leaves.size()).snapshot);

    // Checkpoint the fold of the first k leaves as one block, round
    // trip it through the manifest encoding, fold the rest: identical
    // bytes for every interruption point.
    for (std::size_t k = 0; k <= leaves.size(); ++k) {
        Checkpoint cp;
        const MergeBlock before = fold(leaves, 0, k);
        if (before.leaves > 0) cp.blocks.push_back(before);
        const auto back = decode_checkpoint(encode_checkpoint(cp));
        ASSERT_TRUE(back.has_value()) << "k=" << k;

        MergeBlock resumed;
        for (const auto& b : back->blocks) resumed.absorb(b);
        EXPECT_EQ(resumed.leaves, k);
        for (std::size_t i = k; i < leaves.size(); ++i)
            resumed.absorb({1, leaves[i]});
        EXPECT_EQ(encode_snapshot(resumed.snapshot), want) << "k=" << k;
    }
}

TEST(IncrementalMergeTest, CheckpointRoundTripPreservesForest) {
    // A multi-block list survives an encode/decode cycle unchanged and
    // resumes to the uninterrupted bytes.
    const auto leaves = make_leaves(7, 38);
    const auto want =
        encode_snapshot(fold(leaves, 0, leaves.size()).snapshot);

    Checkpoint cp;
    cp.blocks = {fold(leaves, 0, 4), fold(leaves, 4, 5)};
    const auto back = decode_checkpoint(encode_checkpoint(cp));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->blocks, cp.blocks);

    MergeBlock resumed;
    for (const auto& b : back->blocks) resumed.absorb(b);
    for (std::size_t i = 5; i < leaves.size(); ++i)
        resumed.absorb({1, leaves[i]});
    EXPECT_EQ(resumed.leaves, leaves.size());
    EXPECT_EQ(encode_snapshot(resumed.snapshot), want);
}

TEST(IncrementalMergeTest, EmptyFinishIsEmptySnapshot) {
    for (const unsigned threads : {1u, 4u})
        EXPECT_EQ(merge_snapshots({}, threads), IOCovSnapshot{})
            << threads << " threads";
    MergeBlock acc;
    acc.absorb({});
    EXPECT_EQ(acc, MergeBlock{});
}

}  // namespace
}  // namespace iocov::core
