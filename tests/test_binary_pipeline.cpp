// Binary (IOCT) ingestion end-to-end: consume_binary and
// consume_binary_parallel must produce reports bit-identical to
// consume_text over the same trace.  One simulated workload is emitted
// through a TeeSink into a TextSink and a BinarySink simultaneously,
// so both representations describe the exact same event stream.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "core/iocov.hpp"
#include "core/live.hpp"
#include "exec/alloc_hook.hpp"
#include "syscall/kernel.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/binary_format.hpp"
#include "trace/detail/wire.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::core {
namespace {

struct TwinTraces {
    std::string text;
    std::string binary;
};

// Same multi-pid workload shape as the text-pipeline tests: several
// processes interleaved round-robin, with out-of-scope opens and
// failing calls so the stateful filter has real decisions to make.
TwinTraces twin_traces(std::size_t min_events) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    std::ostringstream text_os;
    std::ostringstream binary_os;
    trace::TextSink text_sink(text_os);
    {
        trace::BinarySink binary_sink(binary_os);
        trace::TeeSink tee(text_sink, binary_sink);
        syscall::Kernel kernel(fs, &tee);

        std::vector<syscall::Process> procs;
        for (const std::uint32_t pid : {11u, 12u, 13u, 14u, 15u, 16u, 17u})
            procs.push_back(
                kernel.make_process(pid, vfs::Credentials::user(1000, 1000)));

        std::size_t emitted = 0;
        for (std::size_t round = 0; emitted < min_events; ++round) {
            for (std::size_t p = 0; p < procs.size(); ++p) {
                auto& proc = procs[p];
                const auto salt = round * 31 + p * 7;
                const std::string path = fx.scratch + "/f" +
                                         std::to_string(p) + "_" +
                                         std::to_string(round % 13);
                const std::uint32_t flags =
                    salt % 3 == 0 ? abi::O_RDWR | abi::O_CREAT
                    : salt % 3 == 1
                        ? abi::O_WRONLY | abi::O_CREAT | abi::O_APPEND
                        : abi::O_RDONLY | abi::O_CREAT;
                const auto fd = static_cast<int>(
                    proc.sys_open(path.c_str(), flags, 0644));
                proc.sys_write(fd, syscall::WriteSrc::pattern(
                                       std::uint64_t{1} << (salt % 14),
                                       std::byte{0x5a}));
                proc.sys_lseek(fd, 0, salt % 4 == 0 ? abi::SEEK_END_
                                                    : abi::SEEK_SET_);
                proc.sys_read(fd,
                              syscall::ReadDst::discard(1u << (salt % 10)));
                proc.sys_close(fd);
                emitted += 5;
                if (salt % 5 == 0) {
                    proc.sys_open("/outside/the/mount", abi::O_RDONLY);
                    ++emitted;
                }
                if (salt % 11 == 0) {
                    proc.sys_mkdir((path + ".d").c_str(), 0755);
                    proc.sys_chmod(path.c_str(), salt % 2 ? 0600 : 0444);
                    emitted += 2;
                }
            }
        }
    }  // BinarySink finishes (footer) here
    return {text_os.str(), binary_os.str()};
}

TEST(BinaryPipeline, BinaryMatchesTextBitIdenticallyOn100kEvents) {
    const auto traces = twin_traces(100000);
    ASSERT_TRUE(trace::is_ioct(traces.binary));
    ASSERT_FALSE(trace::is_ioct(traces.text));
    // Binary beats text on size too; the 3x is throughput, this is tape.
    EXPECT_LT(traces.binary.size(), traces.text.size());

    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov from_text(config);
    std::istringstream text_in(traces.text);
    const auto text_dropped = from_text.consume_text(text_in);

    IOCov serial(config);
    const auto serial_dropped = serial.consume_binary(traces.binary);

    IOCov parallel(config);
    const auto parallel_dropped =
        parallel.consume_binary_parallel(traces.binary, 4);

    EXPECT_EQ(text_dropped, 0u);
    EXPECT_EQ(serial_dropped, 0u);
    EXPECT_EQ(parallel_dropped, 0u);
    EXPECT_GT(from_text.events_filtered_out(), 0u);  // filter really ran
    EXPECT_EQ(serial.events_filtered_out(), from_text.events_filtered_out());
    EXPECT_EQ(parallel.events_filtered_out(),
              from_text.events_filtered_out());
    // The headline guarantee, both ways: binary serial == text serial,
    // and the sharded binary path == both.
    EXPECT_EQ(serial.report(), from_text.report());
    EXPECT_EQ(parallel.report(), from_text.report());
}

TEST(BinaryPipeline, ThreadCountDoesNotChangeTheReport) {
    const auto traces = twin_traces(5000);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov serial(config);
    serial.consume_binary(traces.binary);
    for (const unsigned n : {2u, 3u, 8u}) {
        IOCov parallel(config);
        parallel.consume_binary_parallel(traces.binary, n);
        EXPECT_EQ(parallel.report(), serial.report()) << n << " threads";
    }
}

TEST(BinaryPipeline, OneThreadFallsBackToSerialPath) {
    const auto traces = twin_traces(2000);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov serial(config), one(config);
    EXPECT_EQ(serial.consume_binary(traces.binary),
              one.consume_binary_parallel(traces.binary, 1));
    EXPECT_EQ(one.report(), serial.report());
}

TEST(BinaryPipeline, TruncatedTraceDropsTailIdenticallyOnBothPaths) {
    const auto traces = twin_traces(5000);
    // Tear the file mid-record (guaranteed by cutting inside a scanned
    // payload): both paths must agree on the surviving report and on
    // the number of dropped records.
    const auto scan = trace::scan_ioct(traces.binary);
    const auto& tear = scan.events[scan.events.size() * 2 / 3];
    const std::string_view torn =
        std::string_view(traces.binary)
            .substr(0, tear.offset + tear.length / 2);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov serial(config), parallel(config);
    const auto d1 = serial.consume_binary(torn);
    const auto d2 = parallel.consume_binary_parallel(torn, 4);
    EXPECT_EQ(d1, d2);
    EXPECT_GE(d1, 1u);
    EXPECT_GT(serial.report().events_seen, 0u);
    EXPECT_EQ(parallel.report(), serial.report());
}

TEST(BinaryPipeline, MmappedFileMatchesInMemoryBuffer) {
    const auto traces = twin_traces(3000);
    const auto path = std::filesystem::temp_directory_path() /
                      "iocov_test_pipeline.ioct";
    {
        std::ofstream out(path, std::ios::binary);
        out.write(traces.binary.data(),
                  static_cast<std::streamsize>(traces.binary.size()));
    }
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov in_memory(config), from_file(config), from_file_parallel(config);
    in_memory.consume_binary(traces.binary);
    const auto d1 = from_file.consume_binary_file(path.string());
    const auto d4 = from_file_parallel.consume_binary_file(path.string(), 4);
    ASSERT_TRUE(d1.has_value());
    ASSERT_TRUE(d4.has_value());
    EXPECT_EQ(*d1, 0u);
    EXPECT_EQ(*d4, 0u);
    EXPECT_EQ(from_file.report(), in_memory.report());
    EXPECT_EQ(from_file_parallel.report(), in_memory.report());
    std::filesystem::remove(path);

    EXPECT_FALSE(
        IOCov(config).consume_binary_file("/no/such/file").has_value());
}

// ---- the row loop on forged input -------------------------------------------

/// Calls of `n_pids` processes, interleaved round-robin so consecutive
/// events never share a pid: pids 0 and UINT32_MAX, then pids spread
/// over the whole u32 range.  Each process gains filter state (an fd
/// opened in scope, its cwd moved into the mount) and uses it.
std::vector<trace::TraceEvent> forged_pid_events(std::size_t n_pids) {
    std::vector<std::uint32_t> pids = {0u, UINT32_MAX};
    for (std::uint32_t i = 1; pids.size() < n_pids; ++i)
        pids.push_back(i * 2654435761u);
    const std::int64_t at_fdcwd = abi::AT_FDCWD;
    std::vector<trace::TraceEvent> out;
    for (int step = 0; step < 7; ++step) {
        for (const std::uint32_t pid : pids) {
            trace::TraceEvent ev;
            ev.seq = out.size();
            ev.pid = ev.tid = pid;
            const std::string mine = "/mnt/test/p" + std::to_string(pid);
            const auto fd = static_cast<std::int64_t>(3 + pid % 5);
            switch (step) {
                case 0:
                    ev.syscall = "openat";
                    ev.args = {{"dfd", at_fdcwd},
                               {"pathname", mine},
                               {"flags", std::uint64_t{abi::O_RDWR |
                                                       abi::O_CREAT}},
                               {"mode", std::uint64_t{0644}}};
                    ev.ret = fd;
                    break;
                case 1:
                    ev.syscall = "write";
                    ev.args = {{"fd", fd},
                               {"count", std::uint64_t{1} << (pid % 20)}};
                    ev.ret = static_cast<std::int64_t>(1u << (pid % 20));
                    break;
                case 2:
                    ev.syscall = "chdir";
                    ev.args = {{"pathname", std::string(pid % 3 ? "/mnt/test"
                                                                : "/tmp")}};
                    break;
                case 3:
                    ev.syscall = "creat";
                    ev.args = {{"pathname", "rel" + std::to_string(pid % 7)},
                               {"mode", std::uint64_t{0600}}};
                    ev.ret = pid % 4 ? fd + 1 : -13;
                    break;
                case 4:
                    ev.syscall = "lseek";
                    ev.args = {{"fd", fd + 1},
                               {"offset", std::int64_t{-1} * (pid % 2)},
                               {"whence", std::int64_t{pid % 5}}};
                    ev.ret = pid % 2 ? -22 : 0;
                    break;
                case 5:
                    ev.syscall = "fchdir";
                    ev.args = {{"fd", fd}};
                    break;
                default:
                    ev.syscall = "close";
                    ev.args = {{"fd", fd}};
                    break;
            }
            out.push_back(std::move(ev));
        }
    }
    return out;
}

/// `events` as an IOCT file whose string table interns nothing: every
/// syscall name, argument name and string value gets a STR record of
/// its own, so one name has many ids.  No footer (it is optional).
std::string forged_ioct(const std::vector<trace::TraceEvent>& events) {
    using trace::detail::put_varint;
    std::string out = trace::ioct_header();
    std::uint64_t next_id = 0;
    auto str = [&](std::string_view s) {
        std::string payload(1, static_cast<char>(trace::detail::kStrTag));
        payload += s;
        trace::detail::put_record(out, payload);
        return next_id++;
    };
    for (const auto& ev : events) {
        std::string payload(1, static_cast<char>(trace::IoctTag::Event));
        put_varint(payload, ev.seq);
        put_varint(payload, ev.pid);
        put_varint(payload, ev.tid);
        put_varint(payload, str(ev.syscall));
        put_varint(payload, trace::detail::zigzag64(ev.ret));
        put_varint(payload, ev.args.size());
        for (const auto& arg : ev.args) {
            put_varint(payload, str(arg.name));
            if (const auto* i = std::get_if<std::int64_t>(&arg.value)) {
                payload.push_back(static_cast<char>(trace::ArgType::Int));
                put_varint(payload, trace::detail::zigzag64(*i));
            } else if (const auto* u =
                           std::get_if<std::uint64_t>(&arg.value)) {
                payload.push_back(static_cast<char>(trace::ArgType::Uint));
                put_varint(payload, *u);
            } else {
                payload.push_back(static_cast<char>(trace::ArgType::Str));
                put_varint(payload, str(std::get<std::string>(arg.value)));
            }
        }
        trace::detail::put_record(out, payload);
    }
    return out;
}

long max_rss_kib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(BinaryPipeline, ForgedPidsIngestWithBoundedMemory) {
    constexpr std::size_t kPids = 5000;
    const auto bytes = trace::encode_trace(forged_pid_events(kPids));
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    const long rss0 = max_rss_kib();
    const std::uint64_t allocs0 = exec::thread_allocation_count();
    IOCov iocov(config);
    EXPECT_EQ(iocov.consume_binary(bytes), 0u);
    const std::uint64_t allocs = exec::thread_allocation_count() - allocs0;
    // Every process was tracked: its opens, writes and closes counted.
    EXPECT_EQ(iocov.report().find_output("close")->hist.total(), kPids);
    EXPECT_GT(iocov.events_filtered_out(), 0u);
    // Filter state costs a few allocations per pid that has state, and
    // nothing is sized by a pid value (UINT32_MAX among them).
    if (exec::has_allocation_counting()) {
        EXPECT_LT(allocs, 8 * kPids);
    }
    EXPECT_LT(max_rss_kib() - rss0, 64L * 1024) << "KiB";
}

TEST(BinaryPipeline, ForgedPidsMatchDecodedEvents) {
    const auto events = forged_pid_events(3000);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov reference(config);
    reference.consume_all(events);
    ASSERT_GT(reference.report().events_tracked, 0u);
    for (const auto& bytes : {trace::encode_trace(events),
                              forged_ioct(events)}) {
        std::size_t dropped = 1;
        IOCov decoded(config);
        decoded.consume_all(trace::decode_trace(bytes, &dropped));
        EXPECT_EQ(dropped, 0u);
        IOCov serial(config), sharded(config);
        EXPECT_EQ(serial.consume_binary(bytes), 0u);
        EXPECT_EQ(sharded.consume_binary_parallel(bytes, 3), 0u);
        for (const IOCov* run : {&decoded, &serial, &sharded}) {
            EXPECT_EQ(run->report(), reference.report());
            EXPECT_EQ(run->events_filtered_out(),
                      reference.events_filtered_out());
        }
    }
}

TEST(BinaryPipeline, SecondPassOverTheSameBufferAllocatesNothing) {
    if (!exec::has_allocation_counting())
        GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    for (const auto& bytes :
         {twin_traces(20000).binary,
          trace::encode_trace(forged_pid_events(500))}) {
        IOCov iocov(config);
        iocov.consume_binary(bytes);
        const std::uint64_t warm = iocov.hot_loop_allocs();
        iocov.consume_binary(bytes);
        EXPECT_EQ(iocov.hot_loop_allocs(), warm);
        EXPECT_EQ(iocov.report().events_seen % 2, 0u);
    }
}

TEST(BinaryPipeline, IngestRequestsNoMoreHeapForMoreEvents) {
    if (!exec::has_allocation_counting())
        GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
    // The same strings, twice the events: a serial ingest holds the
    // string table and one window of refs, never a ref per event, so
    // it asks the heap for the same bytes either way.
    const auto events = forged_pid_events(2000);
    auto doubled = events;
    doubled.insert(doubled.end(), events.begin(), events.end());
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    auto requested = [&](const std::string& bytes) {
        IOCov iocov(config);
        const std::uint64_t bytes0 = exec::thread_allocated_bytes();
        EXPECT_EQ(iocov.consume_binary(bytes), 0u);
        return exec::thread_allocated_bytes() - bytes0;
    };
    const std::string once = trace::encode_trace(events);
    const std::string twice = trace::encode_trace(doubled);
    ASSERT_GT(twice.size(), once.size() + 100000);
    const std::uint64_t a = requested(once);
    const std::uint64_t b = requested(twice);
    EXPECT_GT(a, 0u);
    EXPECT_LE(b, a + 1024) << "bytes requested: " << a << " -> " << b;
    EXPECT_LE(a, b + 1024) << "bytes requested: " << a << " -> " << b;
}

TEST(BinaryPipeline, ShardedIngestRequestsNoMoreHeapForMoreEvents) {
    if (!exec::has_allocation_counting())
        GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
    // Each pid shard walks the file with its own one-pass reader: the
    // same strings, twice the events, and the caller plus the pool's
    // workers ask the heap for the same bytes — nobody holds a ref per
    // event.
    const auto events = forged_pid_events(2000);
    auto doubled = events;
    doubled.insert(doubled.end(), events.begin(), events.end());
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    const auto all_bytes = [] {
        return exec::thread_allocated_bytes() +
               exec::retired_allocated_bytes();
    };
    auto requested = [&](const std::string& bytes) {
        IOCov iocov(config);
        const std::uint64_t bytes0 = all_bytes();
        EXPECT_EQ(iocov.consume_binary_parallel(bytes, 3), 0u);
        return all_bytes() - bytes0;
    };
    const std::string once = trace::encode_trace(events);
    const std::string twice = trace::encode_trace(doubled);
    ASSERT_GT(twice.size(), once.size() + 100000);
    const std::uint64_t a = requested(once);
    const std::uint64_t b = requested(twice);
    EXPECT_GT(a, 0u);
    EXPECT_LE(b, a + 1024) << "bytes requested: " << a << " -> " << b;
    EXPECT_LE(a, b + 1024) << "bytes requested: " << a << " -> " << b;
}

// ---- the one-pass reader: late strings, mixed drops, truncations ---------

/// A damaged record late_ioct() inserts: the first three are dropped by
/// the record walk, the last three by the decode.
enum class Damage {
    UnknownTag,
    TruncatedHeader,
    MalformedFooter,
    NameOutOfRange,
    BadArgType,
    TrailingBytes,
};
constexpr int kDamageKinds = 6;

/// `events` as an IOCT file whose string table is written late.  The
/// k-th string in first-use order gets its STR record before the first
/// event that names it (k % 3 == 0, as the writer does), right after
/// that event (1), or after the last event (2); ids follow STR record
/// order.  A footer follows.  With `damage_every` > 0 a damaged record,
/// cycling through Damage, follows every damage_every-th event, and a
/// torn record follows the footer.
std::string late_ioct(const std::vector<trace::TraceEvent>& events,
                      std::size_t damage_every = 0) {
    using trace::detail::put_varint;
    std::map<std::string, std::size_t> first_use;
    std::vector<std::string> by_use;
    std::vector<std::vector<std::size_t>> before(events.size()),
        after(events.size());
    std::vector<std::size_t> at_end;
    for (std::size_t i = 0; i < events.size(); ++i) {
        auto see = [&](const std::string& s) {
            if (first_use.count(s)) return;
            const std::size_t k = by_use.size();
            first_use[s] = k;
            by_use.push_back(s);
            (k % 3 == 0 ? before[i] : k % 3 == 1 ? after[i] : at_end)
                .push_back(k);
        };
        see(events[i].syscall);
        for (const auto& arg : events[i].args) {
            see(arg.name);
            if (const auto* v = std::get_if<std::string>(&arg.value)) see(*v);
        }
    }
    std::vector<std::uint64_t> id(by_use.size());
    std::uint64_t next_id = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        for (const std::size_t k : before[i]) id[k] = next_id++;
        for (const std::size_t k : after[i]) id[k] = next_id++;
    }
    for (const std::size_t k : at_end) id[k] = next_id++;
    auto id_of = [&](const std::string& s) { return id[first_use.at(s)]; };

    std::string out = trace::ioct_header();
    auto str = [&](std::size_t k) {
        std::string payload(1, static_cast<char>(trace::detail::kStrTag));
        trace::detail::put_record(out, payload + by_use[k]);
    };
    auto evt = [](std::uint64_t name, std::uint64_t argc) {
        std::string payload(1, static_cast<char>(trace::IoctTag::Event));
        for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{21},
                                      std::uint64_t{21}, name,
                                      std::uint64_t{0}, argc})
            put_varint(payload, v);
        return payload;
    };
    int damage = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& ev = events[i];
        for (const std::size_t k : before[i]) str(k);
        std::string payload(1, static_cast<char>(trace::IoctTag::Event));
        put_varint(payload, ev.seq);
        put_varint(payload, ev.pid);
        put_varint(payload, ev.tid);
        put_varint(payload, id_of(ev.syscall));
        put_varint(payload, trace::detail::zigzag64(ev.ret));
        put_varint(payload, ev.args.size());
        for (const auto& arg : ev.args) {
            put_varint(payload, id_of(arg.name));
            if (const auto* n = std::get_if<std::int64_t>(&arg.value)) {
                payload.push_back(static_cast<char>(trace::ArgType::Int));
                put_varint(payload, trace::detail::zigzag64(*n));
            } else if (const auto* u =
                           std::get_if<std::uint64_t>(&arg.value)) {
                payload.push_back(static_cast<char>(trace::ArgType::Uint));
                put_varint(payload, *u);
            } else {
                payload.push_back(static_cast<char>(trace::ArgType::Str));
                put_varint(payload, id_of(std::get<std::string>(arg.value)));
            }
        }
        trace::detail::put_record(out, payload);
        for (const std::size_t k : after[i]) str(k);
        if (damage_every == 0 || (i + 1) % damage_every != 0) continue;
        switch (static_cast<Damage>(damage++ % kDamageKinds)) {
            case Damage::UnknownTag:
                trace::detail::put_record(out, "\x09x");
                break;
            case Damage::TruncatedHeader:  // unterminated seq varint
                trace::detail::put_record(out, "\x02\x80");
                break;
            case Damage::MalformedFooter:  // 5 pids promised, none given
                trace::detail::put_record(out, "\x03\x05");
                break;
            case Damage::NameOutOfRange:  // no table ever gets that long
                trace::detail::put_record(out, evt(1000000, 0));
                break;
            case Damage::BadArgType: {
                std::string bad = evt(0, 1);  // string 0 comes first
                put_varint(bad, 0);
                bad += "\x07";
                put_varint(bad, 0);
                trace::detail::put_record(out, bad);
                break;
            }
            case Damage::TrailingBytes:
                trace::detail::put_record(out, evt(0, 0) + '\0');
                break;
        }
    }
    for (const std::size_t k : at_end) str(k);
    std::string footer(1, static_cast<char>(trace::IoctTag::Footer));
    put_varint(footer, 0);
    put_varint(footer, events.size());
    trace::detail::put_record(out, footer);
    if (damage_every != 0) {
        trace::detail::put_u32le(out, 100);  // torn: 100 bytes promised
        out += "\x02\x01";
    }
    return out;
}

/// What scan-then-decode retains for a one-file directory walk: every
/// scan drop, then every decode drop, each in record order.
trace::ParseDiagnostics scan_then_decode(std::string_view bytes) {
    const auto scan = trace::scan_ioct(bytes);
    trace::ParseDiagnostics out = scan.diags;
    trace::TraceEvent ev;
    for (const auto& ref : scan.events) {
        const char* reason = nullptr;
        if (!trace::decode_event(bytes.substr(ref.offset, ref.length),
                                 scan.strings, ev, nullptr, &reason))
            out.record(0, ref.offset, reason);
    }
    return out;
}

/// A temp directory holding one trace file, "t.ioct", rewritten per
/// input.
class OneFileDir {
  public:
    OneFileDir()
        : dir_(std::filesystem::temp_directory_path() /
               ("iocov_one_pass_" + std::to_string(::getpid()))) {
        std::filesystem::create_directories(dir_);
    }
    ~OneFileDir() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    std::string hold(std::string_view bytes) const {
        std::ofstream out(dir_ / "t.ioct", std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        return dir_.string();
    }

  private:
    std::filesystem::path dir_;
};

/// consume_binary, a one-file directory walk (when `dir` is non-null)
/// and a serve push of `bytes` give what decoding the whole file first
/// gives: the report, the filtered and dropped counts, and the retained
/// diagnostics (merged for consume_binary, scan-then-decode for the
/// walk).  Returns the dropped count.
std::size_t expect_whole_file_results(std::string_view bytes,
                                      const OneFileDir* dir) {
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    std::size_t dropped = 0;
    trace::ParseDiagnostics diags;
    IOCov reference(config);
    reference.consume_all(trace::decode_trace(bytes, &dropped, &diags));
    const std::string at = "at " + std::to_string(bytes.size()) + " bytes";

    IOCov serial(config);
    EXPECT_EQ(serial.consume_binary(bytes), dropped) << at;
    EXPECT_EQ(serial.report(), reference.report()) << at;
    EXPECT_EQ(serial.events_filtered_out(), reference.events_filtered_out())
        << at;
    EXPECT_EQ(serial.diagnostics().to_string(), diags.to_string()) << at;

    LiveCoverage live(config);
    const auto push = live.push("t.ioct", bytes);
    EXPECT_EQ(push.dropped, dropped) << at;
    const auto& state = live.read()->state;
    EXPECT_EQ(state.report, reference.report()) << at;
    EXPECT_EQ(state.filtered_out, reference.events_filtered_out()) << at;
    EXPECT_EQ(state.dropped, diags.total()) << at;

    if (dir != nullptr) {
        IOCov walk(config);
        const auto result = walk.consume_binary_dir(dir->hold(bytes), 1);
        EXPECT_TRUE(result.has_value()) << at;
        if (result) {
            EXPECT_EQ(result->dropped, dropped) << at;
        }
        EXPECT_EQ(walk.report(), reference.report()) << at;
        EXPECT_EQ(walk.events_filtered_out(), reference.events_filtered_out())
            << at;
        trace::ParseDiagnostics labelled;
        labelled.append(scan_then_decode(bytes), "t.ioct");
        EXPECT_EQ(walk.diagnostics().to_string(), labelled.to_string()) << at;
    }
    return dropped;
}

TEST(BinaryPipeline, OnePassResolvesStringsDefinedLater) {
    const auto events = forged_pid_events(200);  // 1400 events: 3 windows
    const std::string bytes = late_ioct(events);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov reference(config);
    reference.consume_all(events);
    ASSERT_GT(reference.report().events_tracked, 0u);
    IOCov serial(config);
    EXPECT_EQ(serial.consume_binary(bytes), 0u);
    EXPECT_EQ(serial.report(), reference.report());

    OneFileDir dir;
    EXPECT_EQ(expect_whole_file_results(bytes, &dir), 0u);
}

TEST(BinaryPipeline, OnePassKeepsScanAndDecodeDropsApart) {
    // Every damage kind and the torn tail, past the 16 retained.  Dense
    // damage fills the retained entries from the first window; sparse
    // damage leaves room in them for drops of later windows, so an
    // accumulator that took scan and decode drops as they come would
    // retain other entries than scan-then-decode.
    OneFileDir dir;
    for (const std::size_t every : {7u, 40u}) {
        const std::string bytes = late_ioct(forged_pid_events(200), every);
        const auto scan = trace::scan_ioct(bytes);
        const std::size_t dropped = expect_whole_file_results(bytes, &dir);
        EXPECT_EQ(dropped, 1400 / every + 1);
        EXPECT_GT(dropped, trace::ParseDiagnostics::kDefaultMaxRetained);
        EXPECT_GT(scan.dropped, 0u);
        EXPECT_GT(dropped - scan.dropped, 0u);
    }
}

/// `n` short calls of three processes: opens in and out of the mount
/// (some failing), writes and closes, so the filter keeps fd state and
/// a file of two windows stays small.
std::vector<trace::TraceEvent> short_events(std::size_t n) {
    std::vector<trace::TraceEvent> out;
    for (std::size_t i = 0; out.size() < n; ++i) {
        trace::TraceEvent ev;
        ev.seq = out.size();
        ev.pid = ev.tid = static_cast<std::uint32_t>(1 + i % 3);
        const std::int64_t fd = static_cast<std::int64_t>(3 + i / 3 % 4);
        switch (i / 3 % 4) {
            case 0:
                ev.syscall = "open";
                ev.args = {{"pathname", std::string(i % 5 ? "/mnt/test/a"
                                                          : "/tmp/b")},
                           {"flags", std::uint64_t{abi::O_RDWR}},
                           {"mode", std::uint64_t{0644}}};
                ev.ret = i % 7 ? fd : -2;
                break;
            case 1:
            case 2:
                ev.syscall = "write";
                ev.args = {{"fd", fd}, {"count", std::uint64_t{i % 64}}};
                ev.ret = static_cast<std::int64_t>(i % 64);
                break;
            default:
                ev.syscall = "close";
                ev.args = {{"fd", fd}};
                break;
        }
        out.push_back(std::move(ev));
    }
    return out;
}

TEST(BinaryPipeline, OnePassMatchesWholeFileDecodeAtEveryTruncation) {
    // Two windows of rows, late strings, every damage kind and a torn
    // tail; cut at every byte.
    const std::string bytes = late_ioct(short_events(540), 9);
    ASSERT_GT(trace::scan_ioct(bytes).events.size(), 512u);
    OneFileDir dir;
    for (std::size_t n = 1; n <= bytes.size(); ++n)
        expect_whole_file_results(std::string_view(bytes).substr(0, n), &dir);
}

}  // namespace
}  // namespace iocov::core
