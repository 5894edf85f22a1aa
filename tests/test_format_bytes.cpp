// Pinned encodings of the three binary artifacts: an IOCT trace, an
// IOCS snapshot and an IOCK checkpoint, each built from fixed inputs
// and compared against a recorded length and FNV-1a-64 digest.  Round
// trip tests cannot see a change that alters encoder and decoder
// together; these can.  If one fails, the on-disk format changed: old
// files no longer decode the same, so that needs a version bump, not
// new constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/iocov.hpp"
#include "core/snapshot.hpp"
#include "trace/binary_format.hpp"
#include "trace/detail/wire.hpp"

namespace iocov {
namespace {

using trace::Arg;
using trace::TraceEvent;

/// Two pids, every arg type (negative ints included), repeated strings
/// (interned once), an out-of-scope path and a failing call.
std::vector<TraceEvent> fixed_trace() {
    auto ev = [](std::uint64_t seq, std::uint32_t pid, const char* name,
                 std::vector<Arg> args, std::int64_t ret) {
        return TraceEvent{seq, pid, pid, name, std::move(args), ret};
    };
    const std::string data = "/mnt/test/scratch/data";
    return {
        ev(0, 7, "open",
           {{"pathname", data}, {"flags", std::uint64_t{0x42}},
            {"mode", std::uint64_t{0644}}},
           3),
        ev(1, 7, "write", {{"fd", std::int64_t{3}},
                           {"count", std::uint64_t{4096}}},
           4096),
        ev(2, 9, "open",
           {{"pathname", std::string("/etc/passwd")},
            {"flags", std::uint64_t{0}}, {"mode", std::uint64_t{0}}},
           4),
        ev(3, 7, "lseek",
           {{"fd", std::int64_t{3}}, {"offset", std::int64_t{-5}},
            {"whence", std::int64_t{1}}},
           -22),
        ev(4, 7, "read", {{"fd", std::int64_t{3}},
                          {"count", std::uint64_t{1} << 40}},
           0),
        ev(5, 7, "close", {{"fd", std::int64_t{3}}}, 0),
        ev(6, 7, "open",
           {{"pathname", std::string("/mnt/test/scratch/nope")},
            {"flags", std::uint64_t{0}}, {"mode", std::uint64_t{0}}},
           -2),
        ev(7, 7, "setxattr",
           {{"pathname", data}, {"name", std::string("user.tag")},
            {"size", std::uint64_t{32}}, {"flags", std::int64_t{0}}},
           0),
    };
}

core::IOCovSnapshot fixed_snapshot() {
    core::IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"));
    iocov.consume_all(fixed_trace());
    auto snap = iocov.snapshot();
    snap.dropped = 2;
    snap.ingest = {8, 999, 2, 3, 4};
    snap.label = "host-a/xfstests";
    snap.timestamp = 1754600000;
    return snap;
}

core::Checkpoint fixed_checkpoint() {
    core::Checkpoint cp;
    cp.mode = core::CheckpointMode::Analyze;
    cp.consumed = {"a.ioct", "b.txt", "c.ioct"};
    cp.rejected = 1;
    cp.bytes = 4096;
    cp.diags.record(0, 0, "b.txt: not an IOCT file (bad magic/version)");
    cp.diags.record(3, 40, "c.ioct: unknown record tag", "excerpt");
    cp.diags.count_only(2);
    cp.blocks.push_back({2, fixed_snapshot()});
    core::IOCovSnapshot empty;
    empty.label = "second block";
    cp.blocks.push_back({1, empty});
    return cp;
}

struct Pin {
    std::size_t size;
    std::uint64_t fnv;
};

void expect_pinned(const std::string& bytes, Pin pin) {
    EXPECT_EQ(bytes.size(), pin.size);
    EXPECT_EQ(trace::detail::fnv1a64(bytes), pin.fnv)
        << "0x" << std::hex << trace::detail::fnv1a64(bytes);
}

TEST(FormatBytes, IoctTraceIsPinned) {
    expect_pinned(trace::encode_trace(fixed_trace()),
                  {419, 0x5152cdbf3191acb9ULL});
}

TEST(FormatBytes, IocsSnapshotIsPinned) {
    expect_pinned(core::encode_snapshot(fixed_snapshot()),
                  {3984, 0x511393bba86a6bd9ULL});
}

TEST(FormatBytes, IockCheckpointIsPinned) {
    expect_pinned(core::encode_checkpoint(fixed_checkpoint()),
                  {4236, 0x07a77f2b1bb1fbe3ULL});
}

}  // namespace
}  // namespace iocov
