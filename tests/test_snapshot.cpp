// IOCS snapshot format: bit-identical round trips, torn-tail and
// corruption diagnostics, version skew, legacy files, merge algebra
// (random order and grouping fuzz against single-pass ingest), the
// IOCov::merge / snapshot() public API, and the IngestStats
// accumulation contract.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/iocov.hpp"
#include "core/snapshot.hpp"
#include "stats/histogram.hpp"
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

/// Raw (unfiltered) simulator trace — the same generator the parallel
/// pipeline tests use, seeded per call so the fuzz rounds differ.
std::vector<trace::TraceEvent> generator_trace(double scale,
                                               std::uint64_t seed) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fs, &buffer);
    testers::run_xfstests(kernel, fx, scale, seed);
    return buffer.take_events();
}

/// A populated snapshot with both declared and dynamic histogram rows,
/// nonzero counters, and provenance set.
IOCovSnapshot sample_snapshot(std::uint64_t seed = 42) {
    IOCov iocov(config());
    iocov.consume_binary(trace::encode_trace(generator_trace(0.02, seed)));
    auto snap = iocov.snapshot();
    snap.label = "host-a/xfstests";
    snap.timestamp = 1754600000;
    return snap;
}

// ---- round trip ------------------------------------------------------------

TEST(Snapshot, RoundTripIsBitIdentical) {
    const auto snap = sample_snapshot();
    ASSERT_GT(snap.report.events_tracked, 0u);
    const auto bytes = encode_snapshot(snap);
    EXPECT_EQ(iocs_version(bytes), kIocsVersion);

    SnapshotError err;
    const auto decoded = decode_snapshot(bytes, &err);
    ASSERT_TRUE(decoded.has_value()) << err.to_string();
    EXPECT_EQ(*decoded, snap);
    // Re-encoding the decoded value reproduces the input bytes exactly.
    EXPECT_EQ(encode_snapshot(*decoded), bytes);
}

TEST(Snapshot, RoundTripPreservesIngestStatsAndProvenance) {
    const auto snap = sample_snapshot();
    const auto decoded = decode_snapshot(encode_snapshot(snap));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->ingest, snap.ingest);
    EXPECT_EQ(decoded->label, "host-a/xfstests");
    EXPECT_EQ(decoded->timestamp, 1754600000u);
    EXPECT_EQ(decoded->filtered_out, snap.filtered_out);
}

TEST(Snapshot, RoundTripPreservesDeclaredBoundaries) {
    const auto snap = sample_snapshot();
    const auto decoded = decode_snapshot(encode_snapshot(snap));
    ASSERT_TRUE(decoded.has_value());
    // The boundary is behavioral state: a loaded histogram must keep
    // inserting future dynamic labels where the original would.
    for (std::size_t i = 0; i < snap.report.inputs.size(); ++i) {
        auto a = snap.report.inputs[i].hist;
        auto b = decoded->report.inputs[i].hist;
        ASSERT_EQ(b.declared_count(), a.declared_count());
        a.add("zz-novel-partition");
        b.add("zz-novel-partition");
        EXPECT_EQ(a.rows(), b.rows());
    }
}

TEST(Snapshot, EmptySnapshotRoundTrips) {
    const IOCovSnapshot empty;
    const auto decoded = decode_snapshot(encode_snapshot(empty));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, empty);
}

// ---- histogram reconstruction validation -----------------------------------

TEST(Snapshot, FromRowsRejectsForgedState) {
    using stats::PartitionCount;
    using stats::PartitionHistogram;
    std::vector<PartitionCount> rows = {{"b", 1}, {"a", 2}, {"c", 3}};
    // declared=2: tail {"c"} sorted — valid.
    const auto h = PartitionHistogram::from_rows(rows, 2);
    EXPECT_EQ(h.rows(), rows);
    EXPECT_EQ(h.declared_count(), 2u);
    // declared beyond rows.
    EXPECT_THROW(PartitionHistogram::from_rows(rows, 4),
                 std::invalid_argument);
    // Unsorted dynamic tail ("b" < "a" fails with declared=0).
    EXPECT_THROW(PartitionHistogram::from_rows(rows, 0),
                 std::invalid_argument);
    // Duplicate label.
    EXPECT_THROW(PartitionHistogram::from_rows({{"a", 1}, {"a", 2}}, 2),
                 std::invalid_argument);
}

// ---- damage: torn tails, corruption, version skew --------------------------

TEST(Snapshot, EveryTruncationFailsStructurallyAndNeverLoads) {
    const auto bytes = encode_snapshot(sample_snapshot());
    // Every proper prefix must be rejected: a snapshot is state, not a
    // stream, so there is no "usable prefix" notion to fall back to.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        SnapshotError err;
        const auto decoded =
            decode_snapshot(std::string_view(bytes).substr(0, len), &err);
        ASSERT_FALSE(decoded.has_value()) << "prefix of " << len;
        if (len < kIocsHeaderSize) {
            EXPECT_EQ(err.kind, SnapshotError::Kind::NotIocs) << len;
        } else {
            // Mid-record cuts may surface as Torn (clean cut) or Corrupt
            // (the cut exposes a malformed partial payload); both are
            // structured failures, and the checksum guarantees no cut
            // ever decodes.
            EXPECT_TRUE(err.kind == SnapshotError::Kind::Torn ||
                        err.kind == SnapshotError::Kind::Corrupt)
                << "prefix of " << len;
            EXPECT_FALSE(err.to_string().empty());
        }
    }
}

TEST(Snapshot, BitFlipFailsTheChecksum) {
    const auto snap = sample_snapshot();
    auto bytes = encode_snapshot(snap);
    // Flip one payload byte mid-file; structure may still parse, but
    // the footer checksum must refuse it.
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    SnapshotError err;
    EXPECT_FALSE(decode_snapshot(bytes, &err).has_value());
    EXPECT_EQ(err.kind, SnapshotError::Kind::Corrupt);
}

TEST(Snapshot, VersionSkewIsAStructuredDiagnostic) {
    auto bytes = encode_snapshot(sample_snapshot());
    bytes[4] = 9;  // future version
    EXPECT_EQ(iocs_version(bytes), 9);  // still recognizably a snapshot
    SnapshotError err;
    EXPECT_FALSE(decode_snapshot(bytes, &err).has_value());
    EXPECT_EQ(err.kind, SnapshotError::Kind::VersionSkew);
    EXPECT_EQ(err.found_version, 9);
    EXPECT_NE(err.to_string().find("v9"), std::string::npos);
}

TEST(Snapshot, TrailingGarbageAfterFooterIsCorrupt) {
    auto bytes = encode_snapshot(sample_snapshot());
    bytes += "extra";
    SnapshotError err;
    EXPECT_FALSE(decode_snapshot(bytes, &err).has_value());
    EXPECT_EQ(err.kind, SnapshotError::Kind::Corrupt);
}

TEST(Snapshot, NotIocsInputIsRejectedWithoutReadingFurther) {
    SnapshotError err;
    EXPECT_FALSE(decode_snapshot("IOCT not a snapshot", &err).has_value());
    EXPECT_EQ(err.kind, SnapshotError::Kind::NotIocs);
    EXPECT_EQ(iocs_version("IOCT whatever"), std::nullopt);
}

#ifndef IOCOV_SANITIZED
/// Decodes `bytes` with 256 MiB of address space to spare, then exits
/// 0 if the decoder refused them as corrupt (an uncaught bad_alloc
/// aborts instead).
[[noreturn]] void exit_refused_under_limit(const std::string& bytes) {
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0;
    statm >> pages;
    const rlim_t limit =
        pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) +
        (rlim_t{256} << 20);
    const rlimit rl{limit, limit};
    ::setrlimit(RLIMIT_AS, &rl);
    SnapshotError err;
    const bool refused = !decode_snapshot(bytes, &err) &&
                         err.kind == SnapshotError::Kind::Corrupt;
    std::_Exit(refused ? 0 : 1);
}
#endif

TEST(Snapshot, ForgedHistogramRowCountDoesNotSizeAnAllocation) {
#ifdef IOCOV_SANITIZED
    GTEST_SKIP() << "an address-space limit does not fit sanitizer shadow "
                    "memory";
#else
    using trace::detail::put_u32le;
    using trace::detail::put_varint;
    // A well-formed prefix whose first histogram claims 2^24 rows (the
    // row cap, about 640 MB of rows) in a payload that holds 3 bytes.
    std::string forged(kIocsHeaderSize, '\0');
    forged.replace(0, 4, "IOCS");
    forged[4] = static_cast<char>(kIocsVersion);
    put_u32le(forged, 2);
    forged += "\x01" "a";  // STR 0
    std::string input(1, static_cast<char>(IocsTag::Input));
    put_varint(input, 0);  // base id
    put_varint(input, 0);  // key id
    input.push_back(0);    // class
    put_varint(input, std::uint64_t{1} << 24);  // rows
    put_varint(input, 0);                       // declared
    input.append(3, '\0');
    put_u32le(forged, static_cast<std::uint32_t>(input.size()));
    forged += input;
    // Sizing those rows under the limit throws bad_alloc out of the
    // decoder; the record must be refused first.
    EXPECT_EXIT(exit_refused_under_limit(forged),
                ::testing::ExitedWithCode(0), "");
#endif
}

// ---- merge semantics -------------------------------------------------------

TEST(Snapshot, MergeKeepsLabelOnlyWhenAllAgree) {
    auto a = sample_snapshot(1);
    auto b = sample_snapshot(2);
    a.label = b.label = "suite-x";
    a.timestamp = 100;
    b.timestamp = 300;
    auto same = a;
    same.merge(b);
    EXPECT_EQ(same.label, "suite-x");
    EXPECT_EQ(same.timestamp, 300u);  // latest capture wins

    b.label = "suite-y";
    auto mixed = a;
    mixed.merge(b);
    EXPECT_EQ(mixed.label, "");  // disagreement collapses, not reorders
}

TEST(Snapshot, MergeAccumulatesCountersAndWidestThreads) {
    auto a = sample_snapshot(1);
    auto b = sample_snapshot(2);
    a.ingest.threads = 4;
    b.ingest.threads = 2;
    const auto events = a.ingest.events + b.ingest.events;
    const auto bytes = a.ingest.bytes + b.ingest.bytes;
    const auto filtered = a.filtered_out + b.filtered_out;
    a.merge(b);
    EXPECT_EQ(a.ingest.events, events);
    EXPECT_EQ(a.ingest.bytes, bytes);
    EXPECT_EQ(a.ingest.threads, 4u);
    EXPECT_EQ(a.filtered_out, filtered);
}

// Splits a trace by pid into `n` parts (pid % n), preserving per-pid
// event order — the exact invariant (filter state is strictly per-pid)
// that makes split-ingest-merge equal single-pass ingest.
std::vector<std::vector<trace::TraceEvent>> split_by_pid(
    const std::vector<trace::TraceEvent>& events, std::size_t n) {
    std::vector<std::vector<trace::TraceEvent>> parts(n);
    for (const auto& ev : events) parts[ev.pid % n].push_back(ev);
    return parts;
}

/// Folds leaves[lo, hi) under a random bracketing: split at a random
/// point, fold both halves, and merge them in a random direction.
IOCovSnapshot random_fold(const std::vector<NamedSnapshot>& leaves,
                          std::size_t lo, std::size_t hi, std::mt19937& rng) {
    if (hi - lo == 1) return leaves[lo].snapshot;
    const std::size_t mid =
        std::uniform_int_distribution<std::size_t>(lo + 1, hi - 1)(rng);
    auto left = random_fold(leaves, lo, mid, rng);
    auto right = random_fold(leaves, mid, hi, rng);
    if (rng() & 1) std::swap(left, right);
    left.merge(right);
    return left;
}

TEST(Snapshot, MergeFuzzTreeMergeEqualsSinglePassIngest) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto events = generator_trace(0.015, seed);
        ASSERT_GT(events.size(), 100u) << "seed " << seed;

        // Vary the split width with the seed so the fuzz covers 3..8
        // shards, including pids that land empty.  The shards share a
        // label and carry distinct timestamps, so a fold seeded from
        // IOCovSnapshot{} (which clears the label) fails.
        const std::size_t n = 3 + seed % 6;
        std::vector<NamedSnapshot> shards;
        std::uint64_t bytes = 0;
        for (const auto& part : split_by_pid(events, n)) {
            IOCov shard(config());
            shard.consume_binary(trace::encode_trace(part));
            auto snap = shard.snapshot();
            snap.label = "fleet";
            snap.timestamp = 5000 + 7 * shards.size();
            bytes += snap.ingest.bytes;
            shards.push_back({"shard", std::move(snap)});
        }

        IOCov single(config());
        single.consume_binary(trace::encode_trace(events));
        auto expected = single.snapshot();
        expected.label = "fleet";
        expected.timestamp = 5000 + 7 * (n - 1);
        // Input bytes are a per-input measurement (each part has its own
        // header and string table), so they sum over the shards rather
        // than match the single pass.  Every other field must match
        // exactly.
        expected.ingest.bytes = bytes;
        const auto want = encode_snapshot(expected);

        // Any order and any grouping, and merge_snapshots at any lane
        // count, must give the single pass's bytes.
        std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
        for (int trial = 0; trial < 6; ++trial) {
            std::shuffle(shards.begin(), shards.end(), rng);
            EXPECT_EQ(encode_snapshot(random_fold(shards, 0, n, rng)), want)
                << "seed " << seed << " trial " << trial;
            for (const unsigned threads : {1u, 2u, 4u})
                EXPECT_EQ(encode_snapshot(merge_snapshots(shards, threads)),
                          want)
                    << "seed " << seed << " trial " << trial << " threads "
                    << threads;
        }
    }
}

TEST(Snapshot, LegacyNonzeroSecondsSlotLoadsAndReencodesAsZero) {
    // Older builds stored wall-clock seconds, as the bits of a double,
    // in the META record's reserved slot.  Forge such a file: set the
    // slot and recompute the footer checksum.
    using trace::detail::fnv1a64;
    using trace::detail::PayloadCursor;
    using trace::detail::read_u32le;
    const auto snap = sample_snapshot();
    const std::string current = encode_snapshot(snap);

    std::size_t slot = 0, footer = 0;
    for (std::size_t pos = kIocsHeaderSize; pos < current.size();) {
        const std::uint32_t len = read_u32le(current.data() + pos);
        const auto tag = static_cast<IocsTag>(current[pos + 4]);
        if (tag == IocsTag::Meta) {
            // The slot follows nine varint counters.
            PayloadCursor c(std::string_view(current).substr(pos + 5));
            std::uint64_t v = 0;
            for (int i = 0; i < 9; ++i) ASSERT_TRUE(c.read_varint(v));
            slot = static_cast<std::size_t>(
                reinterpret_cast<const char*>(c.p) - current.data());
        }
        if (tag == IocsTag::Footer) footer = pos;
        pos += 4 + len;
    }
    ASSERT_GT(slot, 0u);
    ASSERT_GT(footer, slot);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(current[slot + i], '\0');

    std::string legacy = current;
    const auto seconds = std::bit_cast<std::uint64_t>(1.2345);
    for (std::size_t i = 0; i < 8; ++i)
        legacy[slot + i] = static_cast<char>(seconds >> (8 * i));
    const std::uint64_t checksum =
        fnv1a64(std::string_view(legacy).substr(0, footer));
    for (std::size_t i = 0; i < 8; ++i)
        legacy[legacy.size() - 8 + i] = static_cast<char>(checksum >> (8 * i));
    ASSERT_NE(legacy, current);

    SnapshotError err;
    const auto decoded = decode_snapshot(legacy, &err);
    ASSERT_TRUE(decoded.has_value()) << err.to_string();
    EXPECT_EQ(*decoded, snap);
    EXPECT_EQ(encode_snapshot(*decoded), current);  // slot written as 0
}

// ---- IOCov public merge API ------------------------------------------------

TEST(Snapshot, IOCovMergeOfSnapshotsEqualsSinglePass) {
    const auto events = generator_trace(0.02, 7);
    IOCov single(config());
    single.consume_binary(trace::encode_trace(events));

    const auto parts = split_by_pid(events, 3);
    IOCov merged(config());
    for (const auto& part : parts) {
        IOCov shard(config());
        shard.consume_binary(trace::encode_trace(part));
        merged.merge(shard.snapshot());
    }
    EXPECT_EQ(merged.report(), single.report());
    EXPECT_EQ(merged.events_filtered_out(), single.events_filtered_out());
    // Same coverage state => same report bytes in the snapshot encoding.
    auto a = merged.snapshot(), b = single.snapshot();
    a.ingest = b.ingest = IngestStats{};
    EXPECT_EQ(encode_snapshot(a), encode_snapshot(b));
}

TEST(Snapshot, IOCovMergeOfIOCovsEqualsSinglePass) {
    const auto events = generator_trace(0.02, 9);
    IOCov single(config());
    single.consume_binary(trace::encode_trace(events));

    const auto parts = split_by_pid(events, 2);
    IOCov a(config()), b(config());
    a.consume_binary(trace::encode_trace(parts[0]));
    b.consume_binary(trace::encode_trace(parts[1]));
    a.merge(b);
    EXPECT_EQ(a.report(), single.report());
    EXPECT_EQ(a.events_filtered_out(), single.events_filtered_out());
    EXPECT_EQ(a.ingest_stats().events, single.ingest_stats().events);
}

// ---- IngestStats / diagnostics accumulation contract -----------------------

TEST(Snapshot, IngestStatsAccumulateAcrossConsumeAndMergeCalls) {
    const auto trace_a = trace::encode_trace(generator_trace(0.01, 3));
    const auto trace_b = trace::encode_trace(generator_trace(0.01, 4));

    IOCov once_each(config());
    once_each.consume_binary(trace_a);
    const auto after_one = once_each.ingest_stats();
    EXPECT_GT(after_one.events, 0u);
    EXPECT_EQ(after_one.bytes, trace_a.size());

    // Second consume adds; nothing resets.
    once_each.consume_binary(trace_b);
    const auto after_two = once_each.ingest_stats();
    EXPECT_EQ(after_two.bytes, trace_a.size() + trace_b.size());
    EXPECT_GT(after_two.events, after_one.events);

    // Merging a snapshot keeps adding into the same totals.
    IOCov other(config());
    other.consume_binary(trace_a);
    once_each.merge(other.snapshot());
    EXPECT_EQ(once_each.ingest_stats().bytes,
              2 * trace_a.size() + trace_b.size());
    EXPECT_EQ(once_each.ingest_stats().events,
              after_two.events + other.ingest_stats().events);

    // snapshot() captures the running totals at that instant.
    EXPECT_EQ(once_each.snapshot().ingest, once_each.ingest_stats());
    // shards_lost stays coherent (no parallel failures here).
    EXPECT_EQ(once_each.shards_lost(), 0u);
}

TEST(Snapshot, SnapshotDroppedCountFeedsDiagnosticsTotal) {
    // A producer with corrupt records: chop a tail record in half.
    auto damaged = trace::encode_trace(generator_trace(0.01, 5));
    damaged.resize(damaged.size() - 7);
    IOCov producer(config());
    const auto dropped = producer.consume_binary(damaged);
    EXPECT_GT(dropped, 0u);
    const auto snap = producer.snapshot();
    EXPECT_EQ(snap.dropped, producer.diagnostics().total());

    // The consumer's --max-errors budget sees the producer's drops.
    IOCov consumer(config());
    consumer.merge(snap);
    EXPECT_EQ(consumer.diagnostics().total(), snap.dropped);
}

}  // namespace
}  // namespace iocov::core
