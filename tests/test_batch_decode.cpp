// Batched IOCT decode: the shared varint reader, round-trips through
// EventBatch + EventScratch materialization, event/drop/diagnostics
// parity with the per-record reference decoder (decode_trace) on
// clean, truncated and corrupted input, the key codes a keyed decode
// stamps (checked against the by-name projections), and the
// zero-allocation steady state.
#include "trace/binary_format.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/coverage.hpp"
#include "core/iocov.hpp"
#include "exec/alloc_hook.hpp"
#include "trace/detail/wire.hpp"
#include "trace/filter.hpp"

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

TEST(BatchDecode, VarintReaderHandlesEncodingBoundaries) {
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

TEST(BatchDecode, RoundTripsRandomizedEvents) {
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

TEST(BatchDecode, MatchesReferenceOnTruncatedTails) {
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

TEST(BatchDecode, MatchesReferenceUnderRandomCorruption) {
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

// ---- key codes stamped at decode ------------------------------------------

/// Argument names the key-code oracle draws from, with repeats: the
/// filter's three, names the registries track, and names none does.
const char* const kKeyedArgNames[] = {"pathname", "dfd",    "fd",   "flags",
                                      "mode",     "count",  "offset",
                                      "whence",   "size",   "a0",   "bogus"};
const char* const kKeyedSyscalls[] = {
    "open",  "openat", "creat", "openat2",  "close", "chdir",
    "fchdir", "read",  "write", "pwrite64", "lseek", "mkdir",
    "setxattr", "frob"};

/// A random call on which the two projections part if a rule slips: its
/// names repeat (a second pathname, dfd or fd with another value), come
/// in any order, or are missing; its values are in-scope, out-of-scope
/// and relative paths, watched and unwatched fds, AT_FDCWD and flags.
TraceEvent keyed_event(std::mt19937_64& rng, std::uint64_t seq) {
    static const char* const kPaths[] = {"/mnt/test/a", "/mnt/test",
                                         "/tmp/x", "rel/p", ""};
    TraceEvent ev;
    ev.seq = seq;
    ev.pid = static_cast<std::uint32_t>(rng() % 5 + 1);
    ev.tid = ev.pid;
    ev.syscall = kKeyedSyscalls[rng() % std::size(kKeyedSyscalls)];
    ev.ret = rng() % 4 ? static_cast<std::int64_t>(rng() % 5 + 3) : -2;
    const std::size_t argc = rng() % 7;
    for (std::size_t i = 0; i < argc; ++i) {
        Arg arg;
        arg.name = kKeyedArgNames[rng() % std::size(kKeyedArgNames)];
        switch (rng() % 4) {
            case 0: arg.value = kPaths[rng() % std::size(kPaths)]; break;
            case 1:
                arg.value = rng() % 4 ? static_cast<std::int64_t>(rng() % 5 + 3)
                                      : std::int64_t{-100};
                break;
            case 2: arg.value = std::uint64_t{rng() % 0x100000}; break;
            default: arg.value = std::int64_t{-1}; break;
        }
        ev.args.push_back(std::move(arg));
    }
    return ev;
}

/// `events` as an IOCT file written by hand, as BinaryWriter never
/// writes one: every string is interned twice (each use picks one of
/// its two ids), and about a third of the strings are defined only
/// after the last event, so the events naming them can be decoded only
/// against the complete table.  Returns how many uses named a late id.
std::size_t hand_ioct(const std::vector<TraceEvent>& events,
                      std::mt19937_64& rng, std::string& out) {
    using detail::put_varint;
    std::map<std::string, bool> late;  // string -> defined after events
    auto see = [&](const std::string& s) {
        if (!late.count(s)) late[s] = rng() % 3 == 0;
    };
    for (const auto& ev : events) {
        see(ev.syscall);
        for (const auto& a : ev.args) {
            see(a.name);
            if (const auto* v = std::get_if<std::string>(&a.value)) see(*v);
        }
    }
    std::map<std::string, std::uint64_t> id;  // the first of two ids
    std::uint64_t next = 0;
    for (const bool late_pass : {false, true})
        for (const auto& [str, is_late] : late)
            if (is_late == late_pass) {
                id[str] = next;
                next += 2;
            }
    auto define = [&](bool late_pass) {
        for (const auto& [str, is_late] : late)
            if (is_late == late_pass)
                for (int copy = 0; copy < 2; ++copy) {
                    std::string payload(1, static_cast<char>(IoctTag::Str));
                    payload += str;
                    detail::put_record(out, payload);
                }
    };
    std::size_t late_uses = 0;
    auto ref = [&](std::string& payload, const std::string& str) {
        late_uses += late[str];
        put_varint(payload, id[str] + rng() % 2);
    };

    out = ioct_header();
    define(false);
    for (const auto& ev : events) {
        std::string payload(1, static_cast<char>(IoctTag::Event));
        put_varint(payload, ev.seq);
        put_varint(payload, ev.pid);
        put_varint(payload, ev.tid);
        ref(payload, ev.syscall);
        put_varint(payload, detail::zigzag64(ev.ret));
        put_varint(payload, ev.args.size());
        for (const auto& arg : ev.args) {
            ref(payload, arg.name);
            if (const auto* i = std::get_if<std::int64_t>(&arg.value)) {
                payload.push_back(static_cast<char>(ArgType::Int));
                put_varint(payload, detail::zigzag64(*i));
            } else if (const auto* u =
                           std::get_if<std::uint64_t>(&arg.value)) {
                payload.push_back(static_cast<char>(ArgType::Uint));
                put_varint(payload, *u);
            } else {
                payload.push_back(static_cast<char>(ArgType::Str));
                ref(payload, std::get<std::string>(arg.value));
            }
        }
        detail::put_record(out, payload);
    }
    define(true);
    return late_uses;
}

void expect_same_view(const ArgView& row, const ArgView& event,
                      const std::string& what) {
    EXPECT_EQ(static_cast<int>(row.kind), static_cast<int>(event.kind))
        << what;
    EXPECT_EQ(row.raw, event.raw) << what;
    EXPECT_EQ(row.str, event.str) << what;
}

TEST(BatchDecode, KeyCodesMatchByNameProjection) {
    const auto config = FilterConfig::mount_point("/mnt/test");
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        std::mt19937_64 rng(seed);
        std::vector<TraceEvent> events;
        for (std::uint64_t i = 0; i < 1500; ++i)
            events.push_back(keyed_event(rng, i));
        std::string bytes;
        ASSERT_GT(hand_ioct(events, rng, bytes), 0u) << "seed " << seed;

        for (const auto* registry : {&core::syscall_registry(),
                                     &core::extended_syscall_registry()}) {
            const std::string what =
                "seed " + std::to_string(seed) + ", " +
                std::to_string(registry->size()) + "-syscall registry";
            // Rows decoded against the complete table, in odd chunks.
            const auto scan = scan_ioct(bytes);
            ASSERT_EQ(scan.events.size(), events.size()) << what;
            core::Analyzer by_rows(*registry), by_events(*registry);
            const auto file = by_rows.table().bind_file(scan.strings);
            EventBatch batch;
            EventScratch scratch;
            std::size_t k = 0;
            for (std::size_t i = 0; i < scan.events.size(); i += 97) {
                batch.clear();
                const std::size_t n =
                    std::min<std::size_t>(97, scan.events.size() - i);
                ASSERT_EQ(decode_batch(bytes, scan.strings, file.keys,
                                       scan.events.data() + i, n, batch),
                          n)
                    << what;
                for (std::size_t r = 0; r < n; ++r, ++k) {
                    const TraceEvent& ev =
                        scratch.materialize(batch, r, scan.strings);
                    ASSERT_EQ(ev, events[k]) << what;
                    const auto want = FilterCall::of(ev);
                    const auto got = FilterCall::of(
                        batch, r, scan.strings,
                        file.names[batch.rows[r].name_id].role);
                    const std::string at = what + ", event " +
                                           std::to_string(k);
                    EXPECT_EQ(got.pid, want.pid) << at;
                    EXPECT_EQ(got.role, want.role) << at;
                    EXPECT_EQ(got.ret, want.ret) << at;
                    expect_same_view(got.pathname, want.pathname, at);
                    expect_same_view(got.dfd, want.dfd, at);
                    expect_same_view(got.fd, want.fd, at);
                    by_events.consume(ev);
                }
                by_rows.consume(batch, scan.strings, file);
            }
            ASSERT_GT(by_events.report().events_tracked, 0u) << what;
            EXPECT_EQ(by_rows.report(), by_events.report()) << what;

            // The one-pass ingest first decodes each window against the
            // table read so far, then again once the late strings are
            // in: the re-decode must stamp their codes too.
            core::IOCov reference(config, *registry);
            reference.consume_all(events);
            ASSERT_GT(reference.events_filtered_out(), 0u) << what;
            for (const unsigned threads : {1u, 3u}) {
                core::IOCov ingested(config, *registry);
                EXPECT_EQ(ingested.consume_binary_parallel(bytes, threads),
                          0u)
                    << what;
                EXPECT_EQ(ingested.report(), reference.report())
                    << what << ", " << threads << " threads";
                EXPECT_EQ(ingested.events_filtered_out(),
                          reference.events_filtered_out())
                    << what << ", " << threads << " threads";
            }
        }
    }
}

TEST(BatchDecode, KeylessRowsReachNoKeyedReader) {
    // perfbench's replay decodes without a key table and only
    // materializes; an analyzer handed those rows must refuse them
    // rather than find no argument at all.
    const auto data = encode_trace(random_events(5, 50));
    const auto scan = scan_ioct(data);
    EventBatch batch;
    decode_batch(data, scan.strings, scan.events.data(), scan.events.size(),
                 batch);
    EXPECT_FALSE(batch.keyed);
    core::Analyzer analyzer;
    const auto file = analyzer.table().bind_file(scan.strings);
    EXPECT_THROW(analyzer.consume(batch, scan.strings, file),
                 std::invalid_argument);
    batch.clear();
    EXPECT_TRUE(batch.keyed);
    decode_batch(data, scan.strings, file.keys, scan.events.data(),
                 scan.events.size(), batch);
    EXPECT_TRUE(batch.keyed);
    EXPECT_NO_THROW(analyzer.consume(batch, scan.strings, file));
    // Keyless rows appended to keyed ones unkey the batch.
    decode_batch(data, scan.strings, scan.events.data(), 1, batch);
    EXPECT_FALSE(batch.keyed);

    // On damaged input, the arguments of a record dropped half-way are
    // rolled back with their stamps: every row that does decode still
    // projects as its event does.
    std::mt19937_64 rng(8);
    std::vector<TraceEvent> events;
    for (std::uint64_t i = 0; i < 200; ++i)
        events.push_back(keyed_event(rng, i));
    const auto keyed_data = encode_trace(events);
    for (int trial = 0; trial < 50; ++trial) {
        std::string bad = keyed_data;
        for (int flip = 0; flip < 8; ++flip)
            bad[kIoctHeaderSize + rng() % (bad.size() - kIoctHeaderSize)] ^=
                static_cast<char>(1 + rng() % 255);
        const auto bad_scan = scan_ioct(bad);
        const auto bad_file = analyzer.table().bind_file(bad_scan.strings);
        batch.clear();
        std::size_t dropped = 0;
        decode_batch(bad, bad_scan.strings, bad_file.keys,
                     bad_scan.events.data(), bad_scan.events.size(), batch,
                     &dropped);
        // The rows that did decode project as their events do.
        EventScratch scratch;
        for (std::size_t r = 0; r < batch.rows.size(); ++r) {
            const auto want =
                FilterCall::of(scratch.materialize(batch, r, bad_scan.strings));
            const auto got =
                FilterCall::of(batch, r, bad_scan.strings,
                               bad_file.names[batch.rows[r].name_id].role);
            const std::string at = "trial " + std::to_string(trial);
            expect_same_view(got.pathname, want.pathname, at);
            expect_same_view(got.dfd, want.dfd, at);
            expect_same_view(got.fd, want.fd, at);
        }
    }
    // A key table that does not cover the string table is refused.
    const std::vector<KeyCode> short_keys(scan.strings.size() - 1, kNoKey);
    EXPECT_THROW(decode_batch(data, scan.strings, short_keys,
                              scan.events.data(), scan.events.size(), batch),
                 std::invalid_argument);
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
