// Batched IOCT decode: the shared varint reader, round-trips through
// EventBatch + EventScratch materialization, event/drop/diagnostics
// parity with the per-record reference decoder (decode_trace) on
// clean, truncated and corrupted input, and the zero-allocation
// steady state.
#include "trace/binary_format.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "exec/alloc_hook.hpp"
#include "trace/detail/wire.hpp"

namespace iocov::trace {
namespace {

const char* const kSyscallNames[] = {"open",  "openat", "read",  "write",
                                     "lseek", "close",  "chdir", "mkdir"};

/// Deterministic random event spanning the varint value space: 1-byte
/// varints (the fast path), mid-size values, and 9/10-byte extremes.
TraceEvent random_event(std::mt19937_64& rng) {
    TraceEvent ev;
    ev.seq = rng() % 3 ? rng() % 100 : rng();
    ev.pid = static_cast<std::uint32_t>(rng() % 200);
    ev.tid = ev.pid;
    ev.syscall = kSyscallNames[rng() % std::size(kSyscallNames)];
    ev.ret = rng() % 3 ? static_cast<std::int64_t>(rng() % 128) - 64
                       : static_cast<std::int64_t>(rng());
    const std::size_t argc = rng() % 5;
    for (std::size_t i = 0; i < argc; ++i) {
        Arg arg;
        arg.name = "a" + std::to_string(rng() % 6);
        switch (rng() % 6) {
            case 0: arg.value = std::int64_t{-1}; break;
            case 1:
                arg.value = std::numeric_limits<std::int64_t>::min();
                break;
            case 2:
                arg.value = std::numeric_limits<std::uint64_t>::max();
                break;
            case 3: arg.value = std::uint64_t{rng() % 5000}; break;
            case 4: arg.value = std::string(); break;
            default:
                arg.value = std::string("/mnt/test/p") +
                            std::to_string(rng() % 100);
                break;
        }
        ev.args.push_back(std::move(arg));
    }
    return ev;
}

std::vector<TraceEvent> random_events(std::uint64_t seed, int n) {
    std::mt19937_64 rng(seed);
    std::vector<TraceEvent> events;
    for (int i = 0; i < n; ++i) events.push_back(random_event(rng));
    return events;
}

/// Scan + chunked batched decode + materialization.  Drops and
/// diagnostics of both stages are folded the way decode_trace() folds
/// them.  The odd chunk size forces several batch boundaries in every
/// test.
std::vector<TraceEvent> batch_decode_all(std::string_view data,
                                         std::size_t* dropped = nullptr,
                                         ParseDiagnostics* diags = nullptr) {
    constexpr std::size_t kChunk = 97;
    const auto scan = scan_ioct(data);
    std::vector<TraceEvent> out;
    EventBatch batch;
    EventScratch scratch;
    // decode_batch accumulates into *dropped (callers chunk), so start
    // from the scan's count — decode_trace assigns the sum.
    std::size_t bad = scan.dropped;
    ParseDiagnostics decode_diags;
    for (std::size_t i = 0; i < scan.events.size(); i += kChunk) {
        const std::size_t n = std::min(kChunk, scan.events.size() - i);
        batch.clear();
        const auto rows = decode_batch(data, scan.strings,
                                       scan.events.data() + i, n, batch,
                                       &bad, &decode_diags);
        for (std::size_t r = 0; r < rows; ++r)
            out.push_back(scratch.materialize(batch, r, scan.strings));
    }
    if (dropped) *dropped = bad;
    if (diags) {
        diags->merge(scan.diags);
        diags->merge(decode_diags);
    }
    return out;
}

void expect_diags_equal(const ParseDiagnostics& a, const ParseDiagnostics& b,
                        const std::string& what) {
    EXPECT_EQ(a.total(), b.total()) << what;
    ASSERT_EQ(a.entries().size(), b.entries().size()) << what;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        EXPECT_EQ(a.entries()[i].line, b.entries()[i].line) << what;
        EXPECT_EQ(a.entries()[i].offset, b.entries()[i].offset) << what;
        EXPECT_EQ(a.entries()[i].reason, b.entries()[i].reason) << what;
        EXPECT_EQ(a.entries()[i].excerpt, b.entries()[i].excerpt) << what;
    }
}

/// The batched decoder must agree with the per-record reference,
/// decode_trace(): the same events, the same drop count and the same
/// diagnostics, entry by entry.
void expect_matches_reference(std::string_view data, const std::string& what) {
    std::size_t ref_dropped = 0, dropped = 0;
    ParseDiagnostics ref_diags, diags;
    const auto reference = decode_trace(data, &ref_dropped, &ref_diags);
    const auto batched = batch_decode_all(data, &dropped, &diags);
    ASSERT_EQ(batched, reference) << what;
    EXPECT_EQ(dropped, ref_dropped) << what;
    expect_diags_equal(diags, ref_diags, what);
}

/// Runs the shared varint reader over `bytes`, with the record ending
/// after `rec_len` bytes.
bool read_one(std::string_view bytes, std::size_t rec_len,
              std::uint64_t& out, std::size_t* consumed = nullptr) {
    const auto* begin = reinterpret_cast<const unsigned char*>(bytes.data());
    const unsigned char* p = begin;
    const bool ok = detail::read_varint(p, begin + rec_len, out);
    if (consumed) *consumed = static_cast<std::size_t>(p - begin);
    return ok;
}

TEST(BatchDecode, ScalarIsAlwaysAvailable) {
    // The one varint reader every binary format shares, at the 1-byte,
    // 2-byte and 10-byte boundaries.
    const std::pair<std::uint64_t, std::size_t> cases[] = {
        {0, 1},
        {127, 1},
        {128, 2},
        {std::uint64_t{1} << 63, 10},
        {std::numeric_limits<std::uint64_t>::max(), 10},
    };
    for (const auto& [value, size] : cases) {
        std::string enc;
        detail::put_varint(enc, value);
        EXPECT_EQ(enc.size(), size) << value;
        std::uint64_t out = 1;
        std::size_t consumed = 0;
        ASSERT_TRUE(read_one(enc, enc.size(), out, &consumed)) << value;
        EXPECT_EQ(out, value);
        EXPECT_EQ(consumed, size) << value;
    }

    std::uint64_t out = 0;
    // The 10th byte may only carry bit 63; 0x02 would overflow a u64.
    const std::string ten_bytes = std::string(9, '\xff') + '\x02';
    EXPECT_FALSE(read_one(ten_bytes, ten_bytes.size(), out));
    // No terminator within 10 bytes, even with more bytes available.
    const std::string unterminated(11, '\x80');
    EXPECT_FALSE(read_one(unterminated, unterminated.size(), out));
    // 128 encodes as 80 01; a record ending after 80 truncates it.
    const std::string two_bytes = "\x80\x01";
    EXPECT_FALSE(read_one(two_bytes, 1, out));
    EXPECT_FALSE(read_one(two_bytes, 0, out));
}

TEST(BatchDecode, RoundTripsRandomizedEventsOnEveryIsa) {
    const auto events = random_events(20260808, 2000);
    const auto data = encode_trace(events);
    std::size_t dropped = 1;
    const auto decoded = batch_decode_all(data, &dropped);
    EXPECT_EQ(dropped, 0u);
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        ASSERT_EQ(decoded[i], events[i]) << "event " << i;
    expect_matches_reference(data, "clean");
}

TEST(BatchDecode, MatchesDecodeTraceOnCleanInput) {
    const auto data = encode_trace(random_events(42, 500));
    std::size_t ref_dropped = 1, batch_dropped = 1;
    const auto reference = decode_trace(data, &ref_dropped);
    const auto batched = batch_decode_all(data, &batch_dropped);
    EXPECT_EQ(batch_dropped, ref_dropped);
    EXPECT_EQ(batched, reference);
}

TEST(BatchDecode, IsasAgreeOnTruncatedTails) {
    const auto data = encode_trace(random_events(7, 200));
    // Chop at every offset across the last few records plus a spread of
    // earlier cuts: every truncation must decode exactly as the
    // reference does (events, drop counts, diagnostics).
    std::vector<std::size_t> cuts;
    for (std::size_t cut = data.size() - 120; cut < data.size(); ++cut)
        cuts.push_back(cut);
    for (std::size_t cut = 16; cut < data.size(); cut += 997)
        cuts.push_back(cut);
    for (const std::size_t cut : cuts)
        expect_matches_reference(std::string_view(data).substr(0, cut),
                                 "cut " + std::to_string(cut));
}

TEST(BatchDecode, IsasAgreeUnderRandomCorruption) {
    const auto clean = encode_trace(random_events(11, 300));
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        std::string data = clean;
        // 1-4 random byte flips past the header: torn varints, bad type
        // bytes, out-of-range ids, argc explosions...
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f)
            data[kIoctHeaderSize + rng() % (data.size() - kIoctHeaderSize)] =
                static_cast<char>(rng() & 0xff);
        expect_matches_reference(data, "trial " + std::to_string(trial));
    }
}

TEST(BatchDecode, ParityWithPerRecordDecodeEventUnderCorruption) {
    const auto clean = encode_trace(random_events(13, 300));
    std::mt19937_64 rng(5);
    for (int trial = 0; trial < 100; ++trial) {
        std::string data = clean;
        for (int f = 0; f < 3; ++f)
            data[kIoctHeaderSize + rng() % (data.size() - kIoctHeaderSize)] =
                static_cast<char>(rng() & 0xff);
        const auto scan = scan_ioct(data);
        // Reference: the one-record-at-a-time scalar decoder.
        std::vector<TraceEvent> reference;
        TraceEvent scratch;
        for (const auto& ref : scan.events)
            if (decode_event(std::string_view(data).substr(ref.offset,
                                                           ref.length),
                             scan.strings, scratch))
                reference.push_back(scratch);
        std::size_t dropped = 0;
        const auto batched = batch_decode_all(data, &dropped);
        ASSERT_EQ(batched, reference) << "trial " << trial;
        EXPECT_EQ(batched.size() + dropped,
                  scan.events.size() + scan.dropped)
            << "trial " << trial;
    }
}

TEST(BatchDecode, SteadyStateDecodeAndMaterializeIsAllocationFree) {
    if (!exec::has_allocation_counting())
        GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
    const auto data = encode_trace(random_events(21, 1000));
    const auto scan = scan_ioct(data);
    constexpr std::size_t kChunk = 512;
    EventBatch batch;
    EventScratch scratch;
    std::uint64_t sum = 0;
    const auto pass = [&] {
        for (std::size_t i = 0; i < scan.events.size(); i += kChunk) {
            const std::size_t n = std::min(kChunk, scan.events.size() - i);
            batch.clear();
            const auto rows = decode_batch(data, scan.strings,
                                           scan.events.data() + i, n, batch);
            for (std::size_t r = 0; r < rows; ++r)
                sum += scratch.materialize(batch, r, scan.strings).seq;
        }
    };
    pass();  // warm: batch high-water mark, scratch string capacities
    pass();
    const auto before = exec::thread_allocation_count();
    pass();
    EXPECT_EQ(exec::thread_allocation_count() - before, 0u);
    EXPECT_NE(sum, 0u);
}

}  // namespace
}  // namespace iocov::trace
