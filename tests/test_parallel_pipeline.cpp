// Parallel sharded analysis: merge algebra, shard/serial equivalence,
// thread-pool basics, and the end-to-end parallel text pipeline.
//
// The hard guarantee under test: for a fresh IOCov, consume_text and
// consume_text_parallel produce bit-identical CoverageReports.  That
// holds because (a) the trace filter's state is strictly per-pid, so
// pid-sharding preserves every filter decision, and (b) histogram row
// order is canonical (declared block + sorted dynamic tail), so the
// shard-merge order cannot leak into the report.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "core/coverage.hpp"
#include "core/detail/shard_driver.hpp"
#include "core/iocov.hpp"
#include "exec/thread_pool.hpp"
#include "syscall/kernel.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::core {
namespace {

// Runs the xfstests simulator and returns the raw (unfiltered) trace.
std::vector<trace::TraceEvent> generator_trace(double scale) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fs, &buffer);
    testers::run_xfstests(kernel, fx, scale, 42);
    return buffer.take_events();
}

CoverageReport analyze(const std::vector<trace::TraceEvent>& events) {
    Analyzer a;
    for (const auto& ev : events) a.consume(ev);
    return a.take_report();
}

// Thirds of the generator trace give three reports with overlapping
// but distinct partition sets — the interesting case for merge.
std::vector<CoverageReport> three_slices() {
    const auto events = generator_trace(0.02);
    const auto third = events.size() / 3;
    std::vector<CoverageReport> out;
    for (int i = 0; i < 3; ++i) {
        const auto begin = events.begin() + static_cast<long>(i * third);
        const auto end =
            i == 2 ? events.end()
                   : events.begin() + static_cast<long>((i + 1) * third);
        out.push_back(analyze({begin, end}));
    }
    return out;
}

// ---- merge algebra ---------------------------------------------------------

TEST(Merge, Commutative) {
    const auto s = three_slices();
    auto ab = s[0];
    ab.merge(s[1]);
    auto ba = s[1];
    ba.merge(s[0]);
    EXPECT_EQ(ab, ba);
}

TEST(Merge, Associative) {
    const auto s = three_slices();
    auto left = s[0];  // (a + b) + c
    left.merge(s[1]);
    left.merge(s[2]);
    auto bc = s[1];  // a + (b + c)
    bc.merge(s[2]);
    auto right = s[0];
    right.merge(bc);
    EXPECT_EQ(left, right);
}

TEST(Merge, EmptyReportIsIdentity) {
    const auto s = three_slices();
    auto merged = s[0];
    merged.merge(Analyzer().report());
    EXPECT_EQ(merged, s[0]);
    auto onto_empty = Analyzer().take_report();
    onto_empty.merge(s[0]);
    EXPECT_EQ(onto_empty, s[0]);
}

// ---- sharded analysis == serial analysis -----------------------------------

TEST(Sharding, NWayRoundRobinEqualsSerial) {
    const auto events = generator_trace(0.02);
    ASSERT_GT(events.size(), 1000u);
    const auto serial = analyze(events);

    constexpr std::size_t kShards = 4;
    std::vector<Analyzer> shards(kShards);
    for (std::size_t i = 0; i < events.size(); ++i)
        shards[i % kShards].consume(events[i]);

    // Merge in a deliberately scrambled order: row order is canonical,
    // so the result must not depend on it.
    auto merged = Analyzer().take_report();
    for (const std::size_t s : {2u, 0u, 3u, 1u})
        merged.merge(shards[s].report());
    EXPECT_EQ(merged, serial);
    EXPECT_EQ(merged.events_seen, serial.events_seen);
    EXPECT_EQ(merged.events_tracked, serial.events_tracked);
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
    exec::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    exec::parallel_for(pool, hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
    exec::ThreadPool pool(2);
    EXPECT_THROW(exec::parallel_for(pool, 64,
                                    [](std::size_t i) {
                                        if (i == 17)
                                            throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
    // Pool must still be usable after a failed batch.
    std::atomic<int> n{0};
    exec::parallel_for(pool, 8, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 8);
}

// ---- work stealing ---------------------------------------------------------

TEST(WorkStealing, VisitsEveryItemExactlyOnce) {
    exec::ThreadPool pool(4);
    // Heavily skewed weights: one giant item plus a long tail, so the
    // initial LPT deal is unbalanced and stealing actually happens.
    std::vector<std::uint64_t> weights;
    for (std::size_t i = 0; i < 200; ++i)
        weights.push_back(i == 0 ? 1'000'000 : i % 7);
    std::vector<std::atomic<int>> hits(weights.size());
    exec::parallel_for_stealing(pool, weights, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST(WorkStealing, HandlesFewerItemsThanLanesAndEmptyInput) {
    exec::ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    exec::parallel_for_stealing(pool, {5, 0, 9}, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // Empty input is a no-op, not a crash.
    exec::parallel_for_stealing(pool, {}, [](std::size_t) { FAIL(); });
}

TEST(WorkStealing, ExceptionPropagatesAfterEveryItemWasAttempted) {
    exec::ThreadPool pool(4);
    std::vector<std::uint64_t> weights(64, 1);
    std::vector<std::atomic<int>> hits(weights.size());
    EXPECT_THROW(
        exec::parallel_for_stealing(pool, weights,
                                    [&](std::size_t i) {
                                        hits[i].fetch_add(1);
                                        if (i == 17)
                                            throw std::runtime_error("boom");
                                    }),
        std::runtime_error);
    // A failed item never silently skips the rest of the batch.
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
    // Pool must still be usable afterwards.
    std::atomic<int> n{0};
    exec::parallel_for_stealing(pool, {1, 2, 3},
                                [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 3);
}

// ---- end-to-end: parallel consume_text == serial consume_text --------------

// Interleaves several simulated processes round-robin into one text
// trace.  The built-in tester simulators only use two pids, so a
// hand-rolled workload is needed to exercise pid-sharding for real.
// Includes out-of-scope opens and failing calls so the stateful filter
// has actual decisions to make.
std::string multi_pid_text_trace(std::size_t min_events) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    std::ostringstream os;
    trace::TextSink sink(os);
    syscall::Kernel kernel(fs, &sink);

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
                salt % 3 == 0   ? abi::O_RDWR | abi::O_CREAT
                : salt % 3 == 1 ? abi::O_WRONLY | abi::O_CREAT | abi::O_APPEND
                                : abi::O_RDONLY | abi::O_CREAT;
            const auto fd =
                static_cast<int>(proc.sys_open(path.c_str(), flags, 0644));
            proc.sys_write(fd, syscall::WriteSrc::pattern(
                                   std::uint64_t{1} << (salt % 14),
                                   std::byte{0x5a}));
            proc.sys_lseek(fd, 0, salt % 4 == 0 ? abi::SEEK_END_
                                                : abi::SEEK_SET_);
            proc.sys_read(fd, syscall::ReadDst::discard(1u << (salt % 10)));
            proc.sys_close(fd);
            emitted += 5;
            if (salt % 5 == 0) {
                // Out of scope: the filter must drop it on every path.
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
    return os.str();
}

TEST(ParallelPipeline, ParallelConsumeTextMatchesSerialOn100kEvents) {
    const auto text = multi_pid_text_trace(100000);
    ASSERT_GE(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              100000u);

    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov serial(config);
    std::istringstream serial_in(text);
    const auto serial_dropped = serial.consume_text(serial_in);

    IOCov parallel(config);
    std::istringstream parallel_in(text);
    const auto parallel_dropped =
        parallel.consume_text_parallel(parallel_in, 4);

    EXPECT_EQ(serial_dropped, parallel_dropped);
    EXPECT_EQ(parallel.events_filtered_out(), serial.events_filtered_out());
    EXPECT_GT(serial.events_filtered_out(), 0u);  // filter actually ran
    // The headline guarantee: bit-identical reports.
    EXPECT_EQ(parallel.report(), serial.report());
}

TEST(ParallelPipeline, ThreadCountDoesNotChangeTheReport) {
    const auto text = multi_pid_text_trace(5000);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");

    IOCov serial(config);
    std::istringstream in1(text);
    serial.consume_text(in1);

    for (const unsigned n : {2u, 3u, 8u}) {
        IOCov parallel(config);
        std::istringstream in(text);
        parallel.consume_text_parallel(in, n);
        EXPECT_EQ(parallel.report(), serial.report()) << n << " threads";
    }
}

TEST(ParallelPipeline, OneThreadFallsBackToSerialPath) {
    const auto text = multi_pid_text_trace(2000);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov serial(config), one(config);
    std::istringstream in1(text), in2(text);
    EXPECT_EQ(serial.consume_text(in1), one.consume_text_parallel(in2, 1));
    EXPECT_EQ(one.report(), serial.report());
}

TEST(ParallelPipeline, MalformedLinesCountedAcrossChunks) {
    std::string text = multi_pid_text_trace(2000);
    // Sprinkle malformed lines at both ends and the middle so they land
    // in different parse chunks.
    text.insert(0, "this is not a trace line\n");
    text.insert(text.size() / 2, "\nneither is this\n");
    text += "garbage at the end\n";
    // (The middle insertion may split an event line in two; both sides
    // see the same bytes, so the drop counts still have to agree.)
    IOCov serial(trace::FilterConfig::mount_point("/mnt/test"));
    IOCov parallel(trace::FilterConfig::mount_point("/mnt/test"));
    std::istringstream in1(text), in2(text);
    const auto d1 = serial.consume_text(in1);
    const auto d2 = parallel.consume_text_parallel(in2, 4);
    EXPECT_EQ(d1, d2);
    EXPECT_GE(d1, 3u);
    EXPECT_EQ(parallel.report(), serial.report());
}

// ---- the sharded ingest driver ---------------------------------------------

/// Small per-item text traces, each with one malformed line at its own
/// line number, so every item carries a diagnostic for the fold.
std::vector<std::string> driver_parts(std::size_t n) {
    const auto text = multi_pid_text_trace(700);
    std::vector<std::string> parts;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::string part;
        for (std::size_t line = 0; line < 100 && pos < text.size(); ++line) {
            if (line == i + 2)
                part += "malformed line in item " + std::to_string(i) + "\n";
            const std::size_t eol = text.find('\n', pos);
            part += text.substr(pos, eol + 1 - pos);
            pos = eol + 1;
        }
        parts.push_back(std::move(part));
    }
    return parts;
}

TEST(ShardDriver, LostItemIsIsolatedAndTheRestFoldAsIfItWereAbsent) {
    const auto parts = driver_parts(5);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    std::vector<detail::ShardDriver::Item> items(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
        items[i].weight = parts[i].size();
        items[i].records = 100 + i;
        items[i].line = 3;
        items[i].offset = 1000 + i;
    }

    for (const unsigned lanes : {1u, 4u}) {
        for (const std::size_t lost : {std::size_t{0}, std::size_t{2},
                                       std::size_t{4}}) {
            IOCov got(config);
            const auto run = detail::ShardDriver::run(
                got, items, lanes, [&](std::size_t i, IOCov& shard) {
                    if (i == lost) throw std::runtime_error("injected");
                    std::istringstream in(parts[i]);
                    return shard.consume_text(in);
                });

            // Reference: every other item ingested on its own IOCov and
            // merged in item order.
            IOCov expected(config);
            std::size_t expected_dropped = 0;
            for (std::size_t i = 0; i < parts.size(); ++i) {
                if (i == lost) continue;
                IOCov one(config);
                std::istringstream in(parts[i]);
                expected_dropped += one.consume_text(in);
                expected.merge(one);
            }
            trace::ParseDiagnostics expected_diags = expected.diagnostics();
            trace::ParseDiagnostics lost_diag;
            lost_diag.record(3, 1000 + lost, "shard lost: injected");
            expected_diags.merge(lost_diag);

            const auto where = std::to_string(lanes) + " lanes, item " +
                               std::to_string(lost) + " lost";
            EXPECT_EQ(run.lanes, lanes) << where;
            EXPECT_EQ(got.shards_lost(), 1u) << where;
            EXPECT_EQ(run.dropped, expected_dropped + 100 + lost) << where;
            EXPECT_EQ(got.report(), expected.report()) << where;
            EXPECT_EQ(got.events_filtered_out(),
                      expected.events_filtered_out())
                << where;
            EXPECT_EQ(got.ingest_stats(), expected.ingest_stats()) << where;
            EXPECT_EQ(got.diagnostics().to_string(),
                      expected_diags.to_string())
                << where;
            EXPECT_NE(got.diagnostics().to_string().find(
                          "line 3, offset " + std::to_string(1000 + lost) +
                          ": shard lost: injected"),
                      std::string::npos)
                << where;
        }
    }
}

TEST(ShardDriver, RecountCompletesOnlyALostItem) {
    // Items whose records are not known up front (pid shards of one
    // IOCT walk) are counted by the recount, and only when lost.
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    for (const unsigned lanes : {1u, 3u}) {
        std::vector<detail::ShardDriver::Item> items(3);
        std::vector<int> recounted(items.size(), 0);
        IOCov got(config);
        const auto run = detail::ShardDriver::run(
            got, items, lanes,
            [](std::size_t i, IOCov&) -> std::size_t {
                if (i == 1) throw std::runtime_error("injected");
                return 2;
            },
            [&](std::size_t i, detail::ShardDriver::Item& lost) {
                ++recounted[i];
                lost.records = 40;
                lost.offset = 700;
            });
        const auto where = std::to_string(lanes) + " lanes";
        EXPECT_EQ(recounted, (std::vector<int>{0, 1, 0})) << where;
        EXPECT_EQ(run.dropped, 2u + 40 + 2) << where;
        EXPECT_EQ(got.shards_lost(), 1u) << where;
        EXPECT_EQ(got.diagnostics().to_string(),
                  "1 input(s) dropped\n  offset 700: shard lost: injected\n")
            << where;
        EXPECT_EQ(items[1].records, 0u) << "the caller's items stay as given";
    }
}

TEST(ShardDriver, ItemsShareTheParentsSchema) {
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    const std::vector<SyscallSpec> custom = syscall_registry();
    for (const auto* registry :
         {&syscall_registry(), &extended_syscall_registry(), &custom}) {
        IOCov parent(config, *registry);
        std::vector<detail::ShardDriver::Item> items(3);
        std::vector<const Schema*> seen(items.size());
        for (const unsigned lanes : {1u, 4u}) {
            detail::ShardDriver::run(parent, items, lanes,
                                     [&](std::size_t i, IOCov& shard) {
                                         seen[i] = &shard.schema();
                                         return std::size_t{0};
                                     });
            for (const Schema* s : seen) EXPECT_EQ(s, &parent.schema());
        }
        // Built-in registries share one schema process-wide.
        const bool built_in = registry != &custom;
        EXPECT_EQ(&IOCov(config, *registry).schema() == &parent.schema(),
                  built_in);
    }
}

TEST(ShardDriver, OneLaneRunsItemsInlineInItemOrder) {
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    std::vector<detail::ShardDriver::Item> items(6);
    for (std::size_t i = 0; i < items.size(); ++i) items[i].weight = 10 * i;

    IOCov iocov(config);
    std::vector<std::size_t> order;
    std::vector<std::thread::id> threads;
    const auto run = detail::ShardDriver::run(
        iocov, items, 1, [&](std::size_t i, IOCov&) {
            order.push_back(i);
            threads.push_back(std::this_thread::get_id());
            return i;
        });
    EXPECT_EQ(run.lanes, 1u);
    EXPECT_EQ(run.dropped, 0u + 1 + 2 + 3 + 4 + 5);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
    for (const auto& id : threads) EXPECT_EQ(id, std::this_thread::get_id());

    // More lanes than items: one lane per item, never an idle worker.
    IOCov wide(config);
    EXPECT_EQ(detail::ShardDriver::run(wide, {{}, {}}, 8,
                                       [](std::size_t, IOCov&) {
                                           return std::size_t{0};
                                       })
                  .lanes,
              2u);
    EXPECT_EQ(detail::ShardDriver::run(wide, {}, 8,
                                       [](std::size_t, IOCov&) {
                                           return std::size_t{0};
                                       })
                  .lanes,
              1u);
}

}  // namespace
}  // namespace iocov::core
