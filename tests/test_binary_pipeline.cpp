// Binary (IOCT) ingestion end-to-end: consume_binary and
// consume_binary_parallel must produce reports bit-identical to
// consume_text over the same trace.  One simulated workload is emitted
// through a TeeSink into a TextSink and a BinarySink simultaneously,
// so both representations describe the exact same event stream.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "core/iocov.hpp"
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

}  // namespace
}  // namespace iocov::core
