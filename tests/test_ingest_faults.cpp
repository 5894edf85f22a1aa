// Fault-tolerant trace ingestion: corrupt records and malformed lines
// degrade to counted, diagnosed drops — never a poisoned analysis —
// and the parallel paths stay bit-identical to serial on the same
// damaged input.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/iocov.hpp"
#include "core/live.hpp"
#include "trace/binary_format.hpp"
#include "trace/detail/wire.hpp"
#include "trace/diagnostics.hpp"
#include "trace/text_format.hpp"

namespace iocov {
namespace {

/// A multi-pid workload-ish trace confined to /mnt/test.
std::vector<trace::TraceEvent> sample_events(std::uint32_t pids,
                                             std::uint32_t per_pid) {
    std::vector<trace::TraceEvent> events;
    std::uint64_t seq = 0;
    for (std::uint32_t p = 1; p <= pids; ++p) {
        for (std::uint32_t i = 0; i < per_pid; ++i) {
            trace::TraceEvent open;
            open.seq = seq++;
            open.pid = 1000 + p;
            open.tid = 1000 + p;
            open.syscall = "open";
            open.args = {
                {"pathname",
                 trace::ArgValue{std::string("/mnt/test/f") +
                                 std::to_string(i % 5)}},
                {"flags", trace::ArgValue{std::uint64_t{i % 2 ? 0101u : 0u}}},
                {"mode", trace::ArgValue{std::uint64_t{0644}}}};
            open.ret = 3;
            events.push_back(open);

            trace::TraceEvent write;
            write.seq = seq++;
            write.pid = 1000 + p;
            write.tid = 1000 + p;
            write.syscall = "write";
            write.args = {{"fd", trace::ArgValue{std::int64_t{3}}},
                          {"count",
                           trace::ArgValue{std::uint64_t{1u << (i % 12)}}}};
            write.ret = static_cast<std::int64_t>(1u << (i % 12));
            events.push_back(write);

            trace::TraceEvent close;
            close.seq = seq++;
            close.pid = 1000 + p;
            close.tid = 1000 + p;
            close.syscall = "close";
            close.args = {{"fd", trace::ArgValue{std::int64_t{3}}}};
            close.ret = 0;
            events.push_back(close);
        }
    }
    return events;
}

TEST(IngestFaults, CorruptBinaryRecordIsolatedAndParallelMatchesSerial) {
    const auto events = sample_events(4, 40);
    std::string data = trace::encode_trace(events);

    // Corrupt one mid-file EVT payload: an unknown tag byte keeps the
    // length prefix intact, so exactly one record is lost.
    const auto intact = trace::scan_ioct(data);
    ASSERT_GT(intact.events.size(), 100u);
    const auto& victim = intact.events[intact.events.size() / 2];
    data[static_cast<std::size_t>(victim.offset)] = '\xee';

    core::IOCov serial;
    const std::size_t serial_dropped = serial.consume_binary(data);

    core::IOCov parallel;
    const std::size_t parallel_dropped =
        parallel.consume_binary_parallel(data, 4);

    EXPECT_EQ(serial_dropped, 1u);
    EXPECT_EQ(parallel_dropped, serial_dropped);
    // One corrupted shard-resident record must not cost any intact
    // record: everything else analyzes bit-identically to serial.
    EXPECT_EQ(parallel.report(), serial.report());
    EXPECT_EQ(parallel.shards_lost(), 0u);

    // The drop is diagnosed, not silent: offset and a stable reason.
    const auto& diags = parallel.diagnostics();
    ASSERT_EQ(diags.total(), 1u);
    ASSERT_EQ(diags.entries().size(), 1u);
    EXPECT_EQ(diags.entries()[0].reason, "unknown record tag");
    EXPECT_GT(diags.entries()[0].offset, 0u);
}

TEST(IngestFaults, TornBinaryTailDiagnosedInBothPaths) {
    const auto events = sample_events(2, 30);
    std::string data = trace::encode_trace(events);
    data.resize(data.size() - 3);  // tear inside the last record

    core::IOCov serial, parallel;
    const auto serial_dropped = serial.consume_binary(data);
    const auto parallel_dropped = parallel.consume_binary_parallel(data, 3);
    EXPECT_EQ(parallel_dropped, serial_dropped);
    EXPECT_EQ(parallel.report(), serial.report());
    EXPECT_GE(parallel.diagnostics().total(), 1u);
}

TEST(IngestFaults, MalformedTextLinesDiagnosedIdenticallyAcrossPaths) {
    const auto events = sample_events(3, 25);
    std::ostringstream text;
    std::uint64_t line = 1;
    std::vector<std::uint64_t> bad_lines;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i % 37 == 5) {
            text << "!! not a trace line " << i << "\n";
            bad_lines.push_back(line++);
        }
        text << trace::format_event(events[i]) << "\n";
        ++line;
    }

    core::IOCov serial;
    std::istringstream serial_in(text.str());
    const auto serial_dropped = serial.consume_text(serial_in);

    core::IOCov parallel;
    std::istringstream parallel_in(text.str());
    const auto parallel_dropped = parallel.consume_text_parallel(parallel_in,
                                                                 4);

    EXPECT_EQ(serial_dropped, bad_lines.size());
    EXPECT_EQ(parallel_dropped, serial_dropped);
    EXPECT_EQ(parallel.report(), serial.report());
    EXPECT_EQ(parallel.shards_lost(), 0u);

    // Diagnostics carry file-absolute line numbers in both paths: each
    // parallel chunk is positioned inside the whole input, so the
    // retained set is exactly the serial one.
    const auto& sd = serial.diagnostics();
    const auto& pd = parallel.diagnostics();
    ASSERT_EQ(sd.total(), bad_lines.size());
    EXPECT_EQ(pd.total(), sd.total());
    ASSERT_EQ(pd.entries().size(), sd.entries().size());
    for (std::size_t i = 0; i < sd.entries().size(); ++i) {
        EXPECT_EQ(pd.entries()[i].line, sd.entries()[i].line);
        EXPECT_EQ(pd.entries()[i].offset, sd.entries()[i].offset);
        EXPECT_EQ(pd.entries()[i].reason, sd.entries()[i].reason);
        EXPECT_EQ(pd.entries()[i].excerpt, sd.entries()[i].excerpt);
        EXPECT_EQ(sd.entries()[i].line, bad_lines[i]);
    }
}

TEST(IngestFaults, NotAnIoctBufferDiagnosedNotSilent) {
    core::IOCov iocov;
    const std::size_t dropped = iocov.consume_binary("garbage bytes");
    EXPECT_EQ(dropped, 0u);
    ASSERT_GE(iocov.diagnostics().total(), 1u);
    EXPECT_EQ(iocov.diagnostics().entries()[0].reason,
              "not an IOCT file (bad magic/version)");
}

TEST(IngestFaults, DiagnosticsAccumulateAcrossConsumeCalls) {
    core::IOCov iocov;
    std::istringstream a("junk line one\n");
    std::istringstream b("junk line two\n");
    iocov.consume_text(a);
    iocov.consume_text(b);
    EXPECT_EQ(iocov.diagnostics().total(), 2u);
}


TEST(IngestFaults, ForgedFooterCountsDoNotSizeParallelShards) {
    // A well-formed footer is still untrusted input: this one claims
    // 2^50 events for pid 1.  Nothing may be sized from it.
    std::string data = trace::encode_trace(sample_events(4, 30));
    std::string footer(1, static_cast<char>(trace::IoctTag::Footer));
    trace::detail::put_varint(footer, 1);                      // pids
    trace::detail::put_varint(footer, 1);                      // pid
    trace::detail::put_varint(footer, std::uint64_t{1} << 50);  // events
    trace::detail::put_varint(footer, std::uint64_t{1} << 50);  // total
    trace::detail::put_u32le(data, static_cast<std::uint32_t>(footer.size()));
    data += footer;
    const auto scan = trace::scan_ioct(data);
    ASSERT_TRUE(scan.footer.has_value());
    ASSERT_EQ(scan.footer->pid_events.size(), 1u);
    EXPECT_EQ(scan.footer->pid_events[0].second, std::uint64_t{1} << 50);

    core::IOCov serial;
    const std::size_t serial_dropped = serial.consume_binary(data);
    core::IOCov parallel;
    EXPECT_EQ(parallel.consume_binary_parallel(data, 4), serial_dropped);
    EXPECT_EQ(parallel.report(), serial.report());

    core::LiveCoverage live;
    const auto pushed = live.push("forged", data, 4);
    EXPECT_TRUE(pushed.accepted);
    EXPECT_EQ(pushed.dropped, serial_dropped);
    EXPECT_EQ(live.read()->state.report, serial.report());
}

}  // namespace
}  // namespace iocov
