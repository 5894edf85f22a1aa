// Performance benchmarks (google-benchmark): the paper's "low-overhead
// tracing" claim and the cost of each pipeline stage.
//
//   * syscall dispatch with tracing off vs on (tracing overhead)
//   * analyzer throughput (variant merge + partitioning)
//   * ingest throughput: text parse vs IOCT binary decode, the full
//     text pipeline (serial, sharded) and the paths the end-to-end
//     bench of record (perfbench/) does not run: pid-sharded IOCT and
//     the read() copy fallback
//   * text round-trip (serialize + parse)
//   * TCD computation
//
// A path perfbench times end to end (filter admit, batched decode +
// materialize, serial and mmap'd consume_binary) has no bench here
// unless a floor in scripts/perf_floor.txt reads it.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "abi/seek.hpp"

#include "core/iocov.hpp"
#include "core/live.hpp"
#include "core/snapshot.hpp"
#include "core/tcd.hpp"
#include "serve/protocol.hpp"
#include "vfs/file_data.hpp"
#include "syscall/kernel.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/binary_format.hpp"
#include "trace/text_format.hpp"
#include "vfs/filesystem.hpp"

namespace {

using namespace iocov;

/// A canned workload trace shared by the pipeline benches.
const std::vector<trace::TraceEvent>& canned_trace() {
    static const std::vector<trace::TraceEvent> kTrace = [] {
        vfs::FileSystem fs(testers::recommended_fs_config());
        auto fx = testers::prepare_environment(fs, "/mnt/test");
        trace::TraceBuffer buffer;
        syscall::Kernel kernel(fs, &buffer);
        testers::run_crashmonkey(kernel, fx, 1.0, 42);
        return buffer.events();
    }();
    return kTrace;
}

void BM_SyscallNoTracing(benchmark::State& state) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    syscall::Kernel kernel(fs, nullptr);
    auto proc = kernel.make_process(1, vfs::Credentials::user(1000, 1000));
    const std::string path = fx.scratch + "/bench";
    for (auto _ : state) {
        const auto fd = proc.sys_open(path.c_str(),
                                      abi::O_CREAT | abi::O_WRONLY, 0644);
        proc.sys_write(static_cast<int>(fd),
                       syscall::WriteSrc::pattern(4096, std::byte{7}));
        proc.sys_close(static_cast<int>(fd));
    }
    state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_SyscallNoTracing);

void BM_SyscallWithTracing(benchmark::State& state) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    trace::NullSink sink;  // emit cost without buffer growth
    syscall::Kernel kernel(fs, &sink);
    auto proc = kernel.make_process(1, vfs::Credentials::user(1000, 1000));
    const std::string path = fx.scratch + "/bench";
    for (auto _ : state) {
        const auto fd = proc.sys_open(path.c_str(),
                                      abi::O_CREAT | abi::O_WRONLY, 0644);
        proc.sys_write(static_cast<int>(fd),
                       syscall::WriteSrc::pattern(4096, std::byte{7}));
        proc.sys_close(static_cast<int>(fd));
    }
    state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_SyscallWithTracing);

void BM_AnalyzerThroughput(benchmark::State& state) {
    const auto& events = canned_trace();
    for (auto _ : state) {
        core::Analyzer analyzer;
        analyzer.consume_all(events);
        benchmark::DoNotOptimize(analyzer.report().events_tracked);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_AnalyzerThroughput);

/// A multi-pid trace for the ingest benches (the built-in simulators
/// only use two pids, which would starve most shards), captured once
/// through a TeeSink as both text and IOCT binary so the text-vs-binary
/// comparisons measure the exact same event stream.
struct CannedTraces {
    std::string text;
    std::string binary;
    std::int64_t events = 0;
};

const CannedTraces& canned_twin_traces() {
    static const CannedTraces kTraces = [] {
        vfs::FileSystem fs(testers::recommended_fs_config());
        auto fx = testers::prepare_environment(fs, "/mnt/test");
        std::ostringstream text_os, binary_os;
        trace::TextSink text_sink(text_os);
        {
            trace::BinarySink binary_sink(binary_os);
            trace::TeeSink tee(text_sink, binary_sink);
            syscall::Kernel kernel(fs, &tee);
            std::vector<syscall::Process> procs;
            for (const std::uint32_t pid : {11u, 12u, 13u, 14u, 15u, 16u})
                procs.push_back(kernel.make_process(
                    pid, vfs::Credentials::user(1000, 1000)));
            for (std::size_t round = 0; round < 1500; ++round) {
                for (std::size_t p = 0; p < procs.size(); ++p) {
                    auto& proc = procs[p];
                    const auto salt = round * 31 + p * 7;
                    const std::string path = fx.scratch + "/b" +
                                             std::to_string(p) + "_" +
                                             std::to_string(round % 13);
                    const auto fd = static_cast<int>(proc.sys_open(
                        path.c_str(),
                        salt % 2
                            ? abi::O_RDWR | abi::O_CREAT
                            : abi::O_WRONLY | abi::O_CREAT | abi::O_APPEND,
                        0644));
                    proc.sys_write(fd, syscall::WriteSrc::pattern(
                                           std::uint64_t{1} << (salt % 14),
                                           std::byte{0x5a}));
                    proc.sys_lseek(fd, 0, abi::SEEK_SET_);
                    proc.sys_read(
                        fd, syscall::ReadDst::discard(1u << (salt % 10)));
                    proc.sys_close(fd);
                }
            }
        }  // BinarySink flushes + writes the footer
        CannedTraces traces;
        traces.text = text_os.str();
        traces.binary = binary_os.str();
        traces.events = static_cast<std::int64_t>(
            std::count(traces.text.begin(), traces.text.end(), '\n'));
        return traces;
    }();
    return kTraces;
}

const std::string& canned_text_trace() { return canned_twin_traces().text; }

std::int64_t canned_text_lines() { return canned_twin_traces().events; }

/// Full serial pipeline: parse + filter + analyze from text.
void BM_ConsumeTextSerial(benchmark::State& state) {
    const auto& text = canned_text_trace();
    for (auto _ : state) {
        core::IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"));
        std::istringstream in(text);
        iocov.consume_text(in);
        benchmark::DoNotOptimize(iocov.report().events_tracked);
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
}
BENCHMARK(BM_ConsumeTextSerial);

/// Same pipeline through the sharded path; Arg = worker threads.
void BM_ConsumeTextParallel(benchmark::State& state) {
    const auto& text = canned_text_trace();
    const auto threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        core::IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"));
        std::istringstream in(text);
        iocov.consume_text_parallel(in, threads);
        benchmark::DoNotOptimize(iocov.report().events_tracked);
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
}
BENCHMARK(BM_ConsumeTextParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// --- ingest: trace bytes -> events, text vs IOCT binary ---------------------

/// Text ingest, parse only (the stage IOCT removes): one line-parse per
/// event, materializing every string.
void BM_IngestTextSerial(benchmark::State& state) {
    const auto& text = canned_text_trace();
    for (auto _ : state) {
        const auto events = trace::parse_chunk(text);
        benchmark::DoNotOptimize(events.size());
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_IngestTextSerial);

/// Binary ingest, per record: structural scan, then decode_event of
/// every record into one reused TraceEvent — each record is
/// materialized (name, args and strings copied into the event), the
/// per-event path the IOCov row loop no longer takes.
void BM_IngestBinarySerial(benchmark::State& state) {
    const auto& binary = canned_twin_traces().binary;
    for (auto _ : state) {
        const auto scan = trace::scan_ioct(binary);
        trace::TraceEvent scratch;
        std::size_t decoded = 0;
        for (const auto& ref : scan.events)
            if (trace::decode_event(
                    std::string_view(binary).substr(ref.offset, ref.length),
                    scan.strings, scratch))
                ++decoded;
        benchmark::DoNotOptimize(decoded);
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(binary.size()));
}
BENCHMARK(BM_IngestBinarySerial);

/// Binary ingest materializing owned TraceEvents (apples-to-apples with
/// BM_IngestTextSerial, which also builds a vector).
void BM_IngestBinaryMaterialized(benchmark::State& state) {
    const auto& binary = canned_twin_traces().binary;
    for (auto _ : state) {
        const auto events = trace::decode_trace(binary);
        benchmark::DoNotOptimize(events.size());
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
}
BENCHMARK(BM_IngestBinaryMaterialized);

/// Single-thread streaming-read bandwidth of this machine (64-bit
/// loads over a 32 MiB buffer), measured once, best of 5 passes.  The
/// decode roofline: no decoder that reads every trace byte can beat it.
double measured_memory_bandwidth() {
    static const double kBandwidth = [] {
        constexpr std::size_t kWords = (32u << 20) / sizeof(std::uint64_t);
        std::vector<std::uint64_t> buf(kWords, 0x0123456789abcdefULL);
        double best = 0;
        for (int pass = 0; pass < 5; ++pass) {
            const auto t0 = std::chrono::steady_clock::now();
            std::uint64_t sum = 0;
            for (const std::uint64_t w : buf) sum += w;
            benchmark::DoNotOptimize(sum);
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (secs > 0)
                best = std::max(
                    best, static_cast<double>(kWords * sizeof(std::uint64_t)) /
                              secs);
        }
        return best > 0 ? best : 1.0;
    }();
    return kBandwidth;
}

/// The roofline baseline itself, recorded alongside the decode benches
/// so BENCH_analyzer.json carries the machine's memory ceiling.
void BM_MemoryBandwidth(benchmark::State& state) {
    constexpr std::size_t kWords = (32u << 20) / sizeof(std::uint64_t);
    std::vector<std::uint64_t> buf(kWords, 0x0123456789abcdefULL);
    for (auto _ : state) {
        std::uint64_t sum = 0;
        for (const std::uint64_t w : buf) sum += w;
        benchmark::DoNotOptimize(sum);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kWords * sizeof(std::uint64_t)));
}
BENCHMARK(BM_MemoryBandwidth);

/// Batched binary ingest: structural scan + decode_batch in 512-row
/// chunks — the hardware-bound hot path (scalar varints, SoA rows,
/// strings stay table ids).  `roofline_fraction` reports decode
/// bytes/sec as a fraction of measured_memory_bandwidth().
void BM_IngestBinaryBatched(benchmark::State& state) {
    const auto& binary = canned_twin_traces().binary;
    constexpr std::size_t kChunk = 512;
    trace::EventBatch batch;
    for (auto _ : state) {
        const auto scan = trace::scan_ioct(binary);
        std::size_t decoded = 0;
        for (std::size_t i = 0; i < scan.events.size(); i += kChunk) {
            const std::size_t n =
                std::min(kChunk, scan.events.size() - i);
            batch.clear();
            decoded += trace::decode_batch(binary, scan.strings,
                                           scan.events.data() + i, n, batch);
        }
        benchmark::DoNotOptimize(decoded);
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(binary.size()));
    state.counters["roofline_fraction"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(binary.size()) / measured_memory_bandwidth(),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IngestBinaryBatched);

// --- full pipeline from binary: decode + filter + analyze -------------------

void BM_ConsumeBinaryParallel(benchmark::State& state) {
    const auto& binary = canned_twin_traces().binary;
    const auto threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        core::IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"));
        iocov.consume_binary_parallel(binary, threads);
        benchmark::DoNotOptimize(iocov.report().events_tracked);
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(binary.size()));
}
BENCHMARK(BM_ConsumeBinaryParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// --- file-backed ingestion: the read() copy fallback -------------------------

const std::string& canned_binary_file() {
    static const std::string kPath = [] {
        const auto path = std::filesystem::temp_directory_path() /
                          "iocov_bench_trace.ioct";
        std::ofstream out(path, std::ios::binary);
        const auto& binary = canned_twin_traces().binary;
        out.write(binary.data(),
                  static_cast<std::streamsize>(binary.size()));
        return path.string();
    }();
    return kPath;
}

void BM_ConsumeBinaryFileReadCopy(benchmark::State& state) {
    const auto& path = canned_binary_file();
    for (auto _ : state) {
        auto copied = trace::MappedFile::open(
            path, trace::MappedFile::Mode::ReadCopy);
        core::IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"));
        iocov.consume_binary(copied->data());
        benchmark::DoNotOptimize(iocov.report().events_tracked);
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
}
BENCHMARK(BM_ConsumeBinaryFileReadCopy);

// --- fleet snapshots: save / load / merge vs re-ingest ----------------------

/// Eight snapshots, each the analyzer state of one full canned-binary
/// ingestion — so merging them aggregates exactly the coverage that
/// re-ingesting eight raw trace files would, which is the comparison
/// the snapshot format exists to win.
struct CannedFleet {
    std::vector<core::IOCovSnapshot> snapshots;
    std::vector<std::string> encoded;
};

const CannedFleet& canned_fleet() {
    static const CannedFleet kFleet = [] {
        CannedFleet fleet;
        for (int i = 0; i < 8; ++i) {
            core::IOCov iocov(
                trace::FilterConfig::mount_point("/mnt/test"));
            iocov.consume_binary(canned_twin_traces().binary);
            auto snap = iocov.snapshot();
            snap.label = "bench";
            snap.timestamp = static_cast<std::uint64_t>(1000 + i);
            fleet.encoded.push_back(core::encode_snapshot(snap));
            fleet.snapshots.push_back(std::move(snap));
        }
        return fleet;
    }();
    return kFleet;
}

/// Snapshot serialization (interning + varint packing).
void BM_SnapshotSave(benchmark::State& state) {
    const auto& snap = canned_fleet().snapshots.front();
    std::int64_t bytes = 0;
    for (auto _ : state) {
        const auto encoded = core::encode_snapshot(snap);
        bytes = static_cast<std::int64_t>(encoded.size());
        benchmark::DoNotOptimize(encoded.size());
    }
    state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_SnapshotSave);

/// End-to-end durable artifact replace: encode + temp file + full
/// write + fsync(file) + rename + fsync(dir).  Dominated by the two
/// fsyncs, so the floor guards against the atomic-write path ever
/// regressing into something slower than the storage is.
void BM_SnapshotSaveDurable(benchmark::State& state) {
    const auto& snap = canned_fleet().snapshots.front();
    const auto dir = std::filesystem::temp_directory_path() /
                     ("iocov_bench_durable_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "bench.iocs").string();
    std::int64_t bytes = 0;
    for (auto _ : state) {
        const bool ok = core::save_snapshot_file(path, snap);
        benchmark::DoNotOptimize(ok);
    }
    bytes = static_cast<std::int64_t>(std::filesystem::file_size(path));
    state.SetBytesProcessed(state.iterations() * bytes);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_SnapshotSaveDurable);

/// Snapshot decode (varint reads + checksum + histogram rebuild).
void BM_SnapshotLoad(benchmark::State& state) {
    const auto& encoded = canned_fleet().encoded.front();
    for (auto _ : state) {
        const auto snap = core::decode_snapshot(encoded);
        benchmark::DoNotOptimize(snap->report.events_seen);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_SnapshotLoad);

/// The fleet-aggregation headline: decode 8 snapshots + a serial
/// merge_snapshots fold, versus re-ingesting the 8 equivalent raw IOCT traces.
/// bytes/sec is reported against the RAW trace bytes the snapshots
/// stand in for, so the number is directly comparable to
/// BM_IngestBinaryBatched — the ≥10x floor in scripts/perf_floor.txt
/// encodes the "aggregate without re-ingesting" claim.
void BM_SnapshotMerge(benchmark::State& state) {
    const auto& fleet = canned_fleet();
    for (auto _ : state) {
        std::vector<core::NamedSnapshot> shards;
        shards.reserve(fleet.encoded.size());
        for (std::size_t i = 0; i < fleet.encoded.size(); ++i)
            shards.push_back({"s" + std::to_string(i),
                              *core::decode_snapshot(fleet.encoded[i])});
        const auto merged = core::merge_snapshots(std::move(shards), 1);
        benchmark::DoNotOptimize(merged.report.events_seen);
    }
    const auto raw_equiv = static_cast<std::int64_t>(
        canned_twin_traces().binary.size() * canned_fleet().encoded.size());
    state.SetItemsProcessed(
        state.iterations() *
        canned_text_lines() *
        static_cast<std::int64_t>(canned_fleet().encoded.size()));
    state.SetBytesProcessed(state.iterations() * raw_equiv);
}
BENCHMARK(BM_SnapshotMerge);

/// Live daemon ingest: one PUSH frame decoded + the shard analyzed
/// through LiveCoverage (fresh per-shard analyzer, merge, epoch
/// publication) — the serve event loop's per-push work minus the
/// socket itself.  bytes/sec is against the raw IOCT shard bytes, so
/// the floor in scripts/perf_floor.txt keeps live ingest within a
/// constant factor of the batch path (BM_IngestBinaryBatched).
void BM_ServeIngest(benchmark::State& state) {
    const auto& binary = canned_twin_traces().binary;
    core::LiveCoverage live;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const auto wire =
            serve::encode_push("bench-" + std::to_string(n++), binary);
        serve::FrameDecoder decoder;
        decoder.feed(wire);
        serve::Frame frame;
        if (decoder.next(frame) != serve::FrameDecoder::Status::Frame)
            state.SkipWithError("frame did not round-trip");
        std::string name;
        std::string_view shard;
        if (!serve::decode_push(frame.body, name, shard))
            state.SkipWithError("push body did not decode");
        const auto r = live.push(name, shard);
        benchmark::DoNotOptimize(r.epoch);
    }
    state.SetItemsProcessed(state.iterations() * canned_text_lines());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(binary.size()));
}
BENCHMARK(BM_ServeIngest);

void BM_BinaryEncode(benchmark::State& state) {
    const auto& events = canned_trace();
    for (auto _ : state) {
        const auto bytes = trace::encode_trace(events);
        benchmark::DoNotOptimize(bytes.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_BinaryEncode);

void BM_TextRoundTrip(benchmark::State& state) {
    const auto& events = canned_trace();
    for (auto _ : state) {
        std::size_t parsed = 0;
        for (const auto& ev : events) {
            const auto line = trace::format_event(ev);
            if (trace::parse_event(line)) ++parsed;
        }
        benchmark::DoNotOptimize(parsed);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_TextRoundTrip);

void BM_TcdSweep(benchmark::State& state) {
    core::Analyzer analyzer;
    analyzer.consume_all(canned_trace());
    const auto& hist =
        analyzer.report().find_input("open", "flags")->hist;
    for (auto _ : state) {
        double acc = 0;
        for (double t = 1; t <= 1e6; t *= 10)
            acc += core::tcd_uniform(hist, t);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_TcdSweep);

void BM_ExtentMapSmallWrites(benchmark::State& state) {
    // Many small materialized writes at random offsets: the extent map's
    // punch/insert path.
    std::vector<std::byte> chunk(256, std::byte{7});
    for (auto _ : state) {
        vfs::FileData fd;
        std::uint64_t off = 0;
        for (int i = 0; i < 1000; ++i) {
            fd.write(off % (1 << 20), chunk);
            off = off * 2862933555777941757ULL + 3037000493ULL;
        }
        benchmark::DoNotOptimize(fd.allocated_bytes());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExtentMapSmallWrites);

void BM_ExtentMapGiantPatternWrite(benchmark::State& state) {
    // The Fig. 3 case: a 258 MiB write must be O(1), not O(size).
    for (auto _ : state) {
        vfs::FileData fd;
        fd.write_pattern(0, 258ULL << 20, std::byte{0xab});
        benchmark::DoNotOptimize(fd.size());
    }
}
BENCHMARK(BM_ExtentMapGiantPatternWrite);

void BM_ExtentMapSparseRead(benchmark::State& state) {
    vfs::FileData fd;
    for (std::uint64_t i = 0; i < 256; ++i)
        fd.write_pattern(i * 8192, 4096, std::byte{1});  // data/hole comb
    std::vector<std::byte> buf(64 * 1024);
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (std::uint64_t off = 0; off < fd.size(); off += buf.size())
            total += fd.read(off, buf);
        benchmark::DoNotOptimize(total);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(fd.size()));
}
BENCHMARK(BM_ExtentMapSparseRead);

}  // namespace

// BENCHMARK_MAIN(), plus provenance context: the Debian libbenchmark
// package compiles its own "library_build_type: debug" into every JSON
// it emits regardless of how *this* binary was built, so record the
// bench binary's actual build type under our own key.  scripts/bench_json.sh
// refuses to publish a run whose iocov_build_type is not "release".
int main(int argc, char** argv) {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
    benchmark::AddCustomContext("iocov_build_type", "release");
#else
    benchmark::AddCustomContext("iocov_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
