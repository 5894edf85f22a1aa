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
    snap.ingest = {8, 999, 2, 3};
    snap.label = "host-a/xfstests";
    snap.timestamp = 1754600000;
    return snap;
}

/// A second fixed trace that reaches every kind of label a report
/// builds on the fly rather than declares: an undocumented errno (mkdir
/// EIO), an unknown errno (E?4000), a read returning 2^40, 2^40-sized
/// counts and offsets, multi-flag opens (flag pairs), creat's implied
/// flags, fchdir's implied via-fd path and every path class.
std::vector<TraceEvent> dynamic_label_trace() {
    std::uint64_t seq = 0;
    auto ev = [&](const char* name, std::vector<Arg> args, std::int64_t ret) {
        return TraceEvent{seq++, 7, 7, name, std::move(args), ret};
    };
    auto chdir = [&](std::string path, std::int64_t ret) {
        return ev("chdir", {{"pathname", std::move(path)}}, ret);
    };
    const std::int64_t big = std::int64_t{1} << 40;
    std::vector<TraceEvent> out = {
        ev("mkdir", {{"pathname", std::string("d")},
                     {"mode", std::uint64_t{0755}}}, -5),
        ev("mkdir", {{"pathname", std::string("e")},
                     {"mode", std::uint64_t{0}}}, -4000),
        ev("read", {{"fd", std::int64_t{3}},
                    {"count", std::uint64_t(big)}}, big),
        ev("write", {{"fd", std::int64_t{3}},
                     {"count", std::uint64_t(big)}}, -28),
        ev("open", {{"pathname", std::string("/mnt/test/f")},
                    {"flags", std::uint64_t{02003101}},
                    {"mode", std::uint64_t{0644}}}, 3),
        ev("openat", {{"dfd", std::int64_t{-100}},
                      {"pathname", std::string("g")},
                      {"flags", std::uint64_t{04040002}},
                      {"mode", std::uint64_t{0}}}, -22),
        ev("creat", {{"pathname", std::string("h")},
                     {"mode", std::uint64_t{04600}}}, 4),
        ev("fchdir", {{"fd", std::int64_t{3}}}, 0),
        ev("lseek", {{"fd", std::int64_t{3}}, {"offset", big},
                     {"whence", std::int64_t{4}}}, big),
        ev("setxattr", {{"pathname", std::string("/mnt/test/f")},
                        {"name", std::string("user.x")},
                        {"size", std::uint64_t{70000}},
                        {"flags", std::int64_t{3}}}, -7),
        ev("close", {{"fd", std::int64_t{-100}}}, -9),
        ev("close", {{"fd", std::int64_t{2000}}}, -3000),
        chdir("/mnt/test", 0),
        chdir("sub", -2),
        chdir(".", 0),
        chdir("..", 0),
        chdir("/mnt/test/a/", -20),
        chdir("/" + std::string(300, 'n'), -36),
        chdir(std::string(5000, 'p'), -36),
        chdir("<fault>", -14),
        chdir("", -2),
    };
    return out;
}

/// The same kinds for the extended registry's extra syscalls and the
/// positional-I/O offset it tracks.
std::vector<TraceEvent> extended_trace() {
    std::uint64_t seq = 0;
    auto ev = [&](const char* name, std::vector<Arg> args, std::int64_t ret) {
        return TraceEvent{seq++, 9, 9, name, std::move(args), ret};
    };
    return {
        ev("pread64", {{"fd", std::int64_t{3}}, {"count", std::uint64_t{512}},
                       {"pos", std::uint64_t{1} << 40}}, 512),
        ev("unlink", {{"pathname", std::string("/mnt/test/x")}}, 0),
        ev("rmdir", {{"pathname", std::string("d/")}}, -39),
        ev("rename", {{"oldpath", std::string("../y")},
                      {"newpath", std::string("z")}}, -18),
        ev("symlink", {{"target", std::string("t")},
                       {"linkpath", std::string("<fault>")}}, -5),
        ev("link", {{"oldpath", std::string("")},
                    {"newpath", std::string("w")}}, -2),
        ev("fsync", {{"fd", std::int64_t{1}}}, -4095),
        ev("fdatasync", {{"fd", std::int64_t{5}}}, 0),
    };
}

core::IOCovSnapshot analyzed_snapshot(
    const std::vector<TraceEvent>& events,
    const std::vector<core::SyscallSpec>& registry) {
    core::Analyzer analyzer(registry);
    analyzer.consume_all(events);
    core::IOCovSnapshot snap;
    snap.report = analyzer.report();
    snap.label = "dynamic";
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

/// Sets the META allocs slot of the IOCS snapshot at [begin, end) of
/// `bytes`, or of each snapshot an IOCK checkpoint there embeds, to the
/// next of `allocs`, then recomputes the footer checksums.
void patch_allocs_slot(std::string& bytes, std::size_t begin,
                       std::size_t end,
                       std::vector<std::uint8_t>::const_iterator& allocs) {
    using namespace trace::detail;
    const std::string_view all(bytes);
    const bool iocs = has_magic(all.substr(begin), core::kIocsMagic);
    const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
    RecordReader records{all.substr(begin, end - begin)};
    Record rec;
    while (records.next(rec) == RecordReader::Status::Ok) {
        const std::size_t body = begin + rec.start + 5;  // length, tag
        const std::size_t stop = body - 1 + rec.payload.size();
        const auto* p = base + body;
        std::uint64_t skipped = 0;
        if (iocs && rec.tag() == static_cast<std::uint8_t>(
                                     core::IocsTag::Meta)) {
            // Eight counters, then the slot.
            for (int i = 0; i < 8; ++i) read_varint(p, base + stop, skipped);
            ASSERT_EQ(*p, 0) << "the encoder wrote a nonzero allocs slot";
            bytes[static_cast<std::size_t>(p - base)] =
                static_cast<char>(*allocs++);
        } else if (!iocs && rec.tag() == static_cast<std::uint8_t>(
                                             core::IockTag::Block)) {
            // The leaf count, then the embedded snapshot.
            read_varint(p, base + stop, skipped);
            patch_allocs_slot(bytes, static_cast<std::size_t>(p - base), stop,
                              allocs);
        } else if (rec.tag() == static_cast<std::uint8_t>(
                                    core::IocsTag::Footer)) {
            std::string sum;
            put_u64le(sum, fnv1a64(all.substr(begin, rec.start)));
            bytes.replace(stop - 8, 8, sum);
        }
    }
}

/// `bytes` (an IOCS snapshot or an IOCK checkpoint) as the encoder wrote
/// them while it still stored the hot-loop allocation count: the META
/// allocs slot of each snapshot in them, in order, set to the next of
/// `allocs` (each < 128, so the one-byte varint 0 is replaced in place)
/// and every footer resealed.
std::string with_allocs_slots(std::string bytes,
                              const std::vector<std::uint8_t>& allocs) {
    auto next = allocs.begin();
    patch_allocs_slot(bytes, 0, bytes.size(), next);
    EXPECT_EQ(next, allocs.end()) << "fewer snapshots than slot values";
    return bytes;
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
    const auto bytes = core::encode_snapshot(fixed_snapshot());
    expect_pinned(bytes, {3984, 0x270df310733fc79cULL});
    // The previous pin, recorded while the encoder still wrote the
    // fixture's allocation count (4): the bytes differ only there.
    expect_pinned(with_allocs_slots(bytes, {4}),
                  {3984, 0x511393bba86a6bd9ULL});
}

TEST(FormatBytes, IocsFromConsumeBinaryIsPinned) {
    // Through the binary ingest loop, where the hot-loop allocation
    // counter runs.  Sanitizer builds compile that counter out, so this
    // pin holding under them too shows it stays out of the bytes.
    core::IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"));
    EXPECT_EQ(iocov.consume_binary(trace::encode_trace(fixed_trace())), 0u);
    auto snap = iocov.snapshot();
    snap.label = "host-a/xfstests";
    snap.timestamp = 1754600000;
    expect_pinned(core::encode_snapshot(snap), {3984, 0x5349544307d498dcULL});
}

TEST(FormatBytes, IocsDynamicLabelsArePinned) {
    const auto snap =
        analyzed_snapshot(dynamic_label_trace(), core::syscall_registry());
    // The trace reaches what it claims to.
    const auto& r = snap.report;
    EXPECT_EQ(r.find_output("mkdir")->hist.count("EIO"), 1u);
    EXPECT_EQ(r.find_output("mkdir")->hist.count("E?4000"), 1u);
    EXPECT_EQ(r.find_output("read")->hist.count("OK:2^40"), 1u);
    EXPECT_EQ(r.find_output("lseek")->hist.count("OK:2^40"), 1u);
    EXPECT_EQ(r.find_input("write", "count")->hist.count("2^40"), 1u);
    EXPECT_EQ(r.find_input("open", "flags")->pairs.count("O_CREAT+O_TRUNC"),
              2u);
    EXPECT_EQ(r.find_input("chdir", "pathname")->hist.untested(),
              std::vector<std::string>{"contains-symlinkish"});
    expect_pinned(core::encode_snapshot(snap), {4286, 0x28f1e001bff1a7b5ULL});
}

TEST(FormatBytes, IocsExtendedRegistryIsPinned) {
    const auto snap = analyzed_snapshot(extended_trace(),
                                        core::extended_syscall_registry());
    EXPECT_EQ(snap.report.find_input("read", "pos")->hist.count("2^40"), 1u);
    EXPECT_EQ(snap.report.find_output("fsync")->hist.count("E?4095"), 1u);
    expect_pinned(core::encode_snapshot(snap), {4670, 0xef331692c8e2c383ULL});
}

TEST(FormatBytes, IockCheckpointIsPinned) {
    const auto bytes = core::encode_checkpoint(fixed_checkpoint());
    expect_pinned(bytes, {4236, 0xcf14b7bd71e49bc9ULL});
    // The previous pin, with the allocation counts of the two embedded
    // snapshots (the fixture's 4, the empty block's 0) written: the
    // bytes differ only there.
    expect_pinned(with_allocs_slots(bytes, {4, 0}),
                  {4236, 0x07a77f2b1bb1fbe3ULL});
}

TEST(Snapshot, LegacyNonzeroAllocsSlotLoadsAndReencodesAsZero) {
    const auto snap = fixed_snapshot();
    const auto bytes = core::encode_snapshot(snap);
    const auto legacy = with_allocs_slots(bytes, {4});
    ASSERT_NE(legacy, bytes);
    core::SnapshotError err;
    const auto loaded = core::decode_snapshot(legacy, &err);
    ASSERT_TRUE(loaded.has_value()) << err.to_string();
    EXPECT_EQ(*loaded, snap);
    EXPECT_EQ(core::encode_snapshot(*loaded), bytes);

    // The same for a checkpoint whose blocks embed such a snapshot.
    const auto cp = core::encode_checkpoint(fixed_checkpoint());
    const auto cp_loaded =
        core::decode_checkpoint(with_allocs_slots(cp, {4, 9}), &err);
    ASSERT_TRUE(cp_loaded.has_value()) << err.to_string();
    EXPECT_EQ(core::encode_checkpoint(*cp_loaded), cp);
}

}  // namespace
}  // namespace iocov
