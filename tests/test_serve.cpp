// The serve subsystem: wire-protocol framing (including torn and
// corrupt frames), LiveCoverage's batch-equivalence and consistency
// contracts, and the daemon end-to-end — concurrent producers over
// real sockets, queries during ingest, duplicate dedup, and
// checkpoint-based crash recovery.  The headline oracles mirror
// DESIGN.md §13: a live report equals a batch analyze of the same
// shards bit-identically at the saved-report level, and a query never
// observes a torn histogram.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "core/checkpoint.hpp"
#include "core/iocov.hpp"
#include "core/live.hpp"
#include "core/report_io.hpp"
#include "core/snapshot.hpp"
#include "host/fault.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "syscall/kernel.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/binary_format.hpp"
#include "trace/sink.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::serve {
namespace {

namespace fs = std::filesystem;

// ---- fixtures --------------------------------------------------------------

/// One IOCT shard of a simulated workload; `seed` varies the syscall
/// mix so distinct shards cover distinct partitions.
std::string make_shard(std::uint64_t seed, std::size_t min_events = 200) {
    vfs::FileSystem vfsfs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(vfsfs, "/mnt/test");
    std::ostringstream os;
    {
        trace::BinarySink sink(os);
        syscall::Kernel kernel(vfsfs, &sink);
        auto proc = kernel.make_process(
            100 + static_cast<std::uint32_t>(seed % 7),
            vfs::Credentials::user(1000, 1000));
        std::size_t emitted = 0;
        for (std::size_t n = 0; emitted < min_events; ++n) {
            const auto salt = seed * 131 + n * 17;
            const std::string path =
                fx.scratch + "/s" + std::to_string(seed) + "_" +
                std::to_string(n % 11);
            const std::uint32_t flags =
                salt % 3 == 0   ? abi::O_RDWR | abi::O_CREAT
                : salt % 3 == 1 ? abi::O_WRONLY | abi::O_CREAT | abi::O_APPEND
                                : abi::O_RDONLY | abi::O_CREAT;
            const auto fd =
                static_cast<int>(proc.sys_open(path.c_str(), flags, 0644));
            proc.sys_write(fd, syscall::WriteSrc::pattern(
                                   std::uint64_t{1} << (salt % 12),
                                   std::byte{0xa5}));
            proc.sys_lseek(fd, 0,
                           salt % 4 == 0 ? abi::SEEK_END_ : abi::SEEK_SET_);
            proc.sys_read(fd, syscall::ReadDst::discard(1u << (salt % 9)));
            proc.sys_close(fd);
            emitted += 5;
        }
    }
    return os.str();
}

/// The deterministic text the gates compare — the saved-report bytes.
std::string report_text(const core::CoverageReport& report) {
    std::ostringstream os;
    core::save_report(os, report);
    return os.str();
}

/// Batch oracle: each shard through a fresh analyzer, merged — exactly
/// `iocov analyze DIR/` over the same files.
std::string batch_report(const std::vector<std::string>& shards) {
    core::IOCov merged(trace::FilterConfig::mount_point("/mnt/test"));
    for (const auto& shard : shards) {
        core::IOCov one(trace::FilterConfig::mount_point("/mnt/test"));
        one.consume_binary(shard);
        merged.merge(one);
    }
    return report_text(merged.report());
}

/// Per-test temp dir (sockets, checkpoints, deltas).
class Serve : public ::testing::Test {
  protected:
    void SetUp() override {
        host::FaultHook::reset();
        dir_ = fs::temp_directory_path() /
               (std::string("iocov_serve_") + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }
    void TearDown() override {
        host::FaultHook::reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path(const char* name) const {
        return (dir_ / name).string();
    }
    fs::path dir_;
};

// ---- protocol --------------------------------------------------------------

TEST(Protocol, PushFrameRoundTrips) {
    const std::string shard = "\x00\x01raw ioct bytes\xff";
    const auto wire = encode_push("shard-007.ioct", shard);
    FrameDecoder dec;
    dec.feed(wire);
    Frame frame;
    ASSERT_EQ(dec.next(frame), FrameDecoder::Status::Frame);
    EXPECT_EQ(frame.tag, MsgTag::Push);
    std::string name;
    std::string_view body;
    ASSERT_TRUE(decode_push(frame.body, name, body));
    EXPECT_EQ(name, "shard-007.ioct");
    EXPECT_EQ(body, shard);
    EXPECT_EQ(dec.pending(), 0u);
    EXPECT_EQ(dec.next(frame), FrameDecoder::Status::NeedMore);
}

TEST(Protocol, OkFrameRoundTripsLargeEpoch) {
    const auto wire = encode_ok(0xdeadbeefcafeULL, "payload text\n");
    FrameDecoder dec;
    dec.feed(wire);
    Frame frame;
    ASSERT_EQ(dec.next(frame), FrameDecoder::Status::Frame);
    EXPECT_EQ(frame.tag, MsgTag::Ok);
    std::uint64_t epoch = 0;
    std::string_view text;
    ASSERT_TRUE(decode_ok(frame.body, epoch, text));
    EXPECT_EQ(epoch, 0xdeadbeefcafeULL);
    EXPECT_EQ(text, "payload text\n");
}

TEST(Protocol, ByteAtATimeFeedingYieldsIdenticalFrames) {
    const auto wire = encode_push("n", make_shard(1, 50)) +
                      encode_query("report") + encode_stop();
    FrameDecoder dec;
    std::vector<Frame> frames;
    for (const char c : wire) {
        dec.feed(std::string_view(&c, 1));
        Frame f;
        while (dec.next(f) == FrameDecoder::Status::Frame)
            frames.push_back(f);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].tag, MsgTag::Push);
    EXPECT_EQ(frames[1].tag, MsgTag::Query);
    EXPECT_EQ(frames[1].body, "report");
    EXPECT_EQ(frames[2].tag, MsgTag::Stop);
    EXPECT_TRUE(frames[2].body.empty());
    EXPECT_EQ(dec.pending(), 0u);
}

TEST(Protocol, TornFrameIsPendingNotDelivered) {
    const auto wire = encode_push("gone", "shard bytes that never finish");
    FrameDecoder dec;
    dec.feed(std::string_view(wire).substr(0, wire.size() - 7));
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::NeedMore);
    EXPECT_GT(dec.pending(), 0u) << "a close now must diagnose torn bytes";
    // The remaining bytes arrive after all: the frame completes.
    dec.feed(std::string_view(wire).substr(wire.size() - 7));
    ASSERT_EQ(dec.next(f), FrameDecoder::Status::Frame);
    EXPECT_EQ(dec.pending(), 0u);
}

TEST(Protocol, ZeroLengthFrameIsCorrupt) {
    FrameDecoder dec;
    dec.feed(std::string_view("\x00\x00\x00\x00", 4));
    Frame f;
    std::string reason;
    EXPECT_EQ(dec.next(f, &reason), FrameDecoder::Status::Corrupt);
    EXPECT_EQ(reason, "zero-length frame");
    // Poisoned: even valid bytes afterwards stay corrupt.
    dec.feed(encode_stop());
    EXPECT_EQ(dec.next(f, &reason), FrameDecoder::Status::Corrupt);
}

TEST(Protocol, OversizedFrameIsCorrupt) {
    FrameDecoder dec;
    dec.feed(std::string_view("\xff\xff\xff\xff", 4));
    Frame f;
    std::string reason;
    EXPECT_EQ(dec.next(f, &reason), FrameDecoder::Status::Corrupt);
    EXPECT_NE(reason.find("oversized frame"), std::string::npos) << reason;
}

TEST(Protocol, UnknownTagIsCorrupt) {
    FrameDecoder dec;
    dec.feed(std::string_view("\x01\x00\x00\x00\x7f", 5));
    Frame f;
    std::string reason;
    EXPECT_EQ(dec.next(f, &reason), FrameDecoder::Status::Corrupt);
    EXPECT_NE(reason.find("unknown frame tag"), std::string::npos) << reason;
}

TEST(Protocol, MalformedPushBodyIsRejected) {
    std::string name;
    std::string_view shard;
    // Varint name length pointing past the end of the body.
    EXPECT_FALSE(decode_push(std::string_view("\x20name", 5), name, shard));
    EXPECT_FALSE(decode_push(std::string_view{}, name, shard));
}

// ---- LiveCoverage ----------------------------------------------------------

TEST(LiveCoverage, StartsEmptyAtEpochZero) {
    core::LiveCoverage live;
    const auto pub = live.read();
    ASSERT_NE(pub, nullptr);
    EXPECT_EQ(pub->epoch, 0u);
    EXPECT_EQ(pub->state.report.events_seen, 0u);
    EXPECT_TRUE(live.consumed().empty());
}

TEST(LiveCoverage, AnyPushOrderMatchesBatchBitIdentically) {
    std::vector<std::string> shards;
    for (std::uint64_t s = 0; s < 5; ++s) shards.push_back(make_shard(s));
    const auto want = batch_report(shards);

    core::LiveCoverage fwd, rev, threaded;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const auto r =
            fwd.push(std::string("s") + std::to_string(i), shards[i]);
        EXPECT_TRUE(r.accepted);
        EXPECT_EQ(r.epoch, i + 1);
        EXPECT_GT(r.events, 0u);
    }
    for (std::size_t i = shards.size(); i-- > 0;)
        rev.push(std::string("s") + std::to_string(i), shards[i]);
    for (std::size_t i = 0; i < shards.size(); ++i)
        threaded.push(std::string("s") + std::to_string(i), shards[i], 4);

    EXPECT_EQ(report_text(fwd.read()->state.report), want);
    EXPECT_EQ(report_text(rev.read()->state.report), want);
    EXPECT_EQ(report_text(threaded.read()->state.report), want)
        << "parallel shard decode must stay bit-identical";
}

TEST(LiveCoverage, DuplicateNamesAreSkippedIdempotently) {
    core::LiveCoverage live;
    const auto shard = make_shard(3);
    EXPECT_TRUE(live.push("a", shard).accepted);
    const auto dup = live.push("a", shard);
    EXPECT_FALSE(dup.accepted);
    EXPECT_EQ(dup.epoch, 1u);
    const auto text = report_text(live.read()->state.report);
    live.push("a", shard);
    EXPECT_EQ(report_text(live.read()->state.report), text);
    EXPECT_EQ(live.consumed(), std::vector<std::string>{"a"});
}

TEST(LiveCoverage, PublishedStatesAreImmutableConsistentPrefixes) {
    core::LiveCoverage live;
    const auto shard = make_shard(9);
    core::IOCov one(trace::FilterConfig::mount_point("/mnt/test"));
    one.consume_binary(shard);
    const auto per_shard = one.report().events_seen;
    ASSERT_GT(per_shard, 0u);

    const auto empty = live.read();
    live.push("s1", shard);
    const auto after1 = live.read();
    live.push("s2", shard);  // distinct name, same bytes: counts double
    const auto after2 = live.read();

    // Earlier grabs must be frozen — publication is copy, not mutation.
    EXPECT_EQ(empty->epoch, 0u);
    EXPECT_EQ(empty->state.report.events_seen, 0u);
    EXPECT_EQ(after1->epoch, 1u);
    EXPECT_EQ(after1->state.report.events_seen, per_shard);
    EXPECT_EQ(after2->epoch, 2u);
    EXPECT_EQ(after2->state.report.events_seen, 2 * per_shard);
}

TEST(LiveCoverage, MergingDeltasReproducesTheFullState) {
    core::LiveCoverage live;
    std::vector<core::IOCovSnapshot> deltas;
    for (std::uint64_t s = 0; s < 6; ++s) {
        live.push(std::string("s") + std::to_string(s), make_shard(s));
        if (s % 2 == 1) {
            std::uint64_t pushes = 0;
            deltas.push_back(live.take_delta(&pushes));
            EXPECT_EQ(pushes, 2u);
        }
    }
    core::IOCov folded(trace::FilterConfig::mount_point("/mnt/test"));
    for (const auto& d : deltas) folded.merge(d);
    EXPECT_EQ(report_text(folded.report()),
              report_text(live.read()->state.report));
    // And the accumulator was reset each time: an immediate take is empty.
    std::uint64_t pushes = 99;
    live.take_delta(&pushes);
    EXPECT_EQ(pushes, 0u);
}

TEST(LiveCoverage, RestoreThenRepushEverythingConverges) {
    std::vector<std::string> shards;
    for (std::uint64_t s = 0; s < 4; ++s) shards.push_back(make_shard(s));
    const auto want = batch_report(shards);

    // A "crashed" run that only saw the first two shards...
    core::LiveCoverage before;
    before.push("s0", shards[0]);
    before.push("s1", shards[1]);
    const auto checkpointed = before.read();

    // ...restored into a fresh instance; producers re-push everything.
    core::LiveCoverage resumed;
    resumed.restore(checkpointed->state, {"s0", "s1"});
    EXPECT_EQ(resumed.epoch(), 2u);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const auto r =
            resumed.push(std::string("s") + std::to_string(i), shards[i]);
        EXPECT_EQ(r.accepted, i >= 2) << "restored names must dedup";
    }
    EXPECT_EQ(report_text(resumed.read()->state.report), want);
}

TEST(LiveCoverage, ConcurrentPushesAndReadsStayConsistent) {
    // N writers race identical shards (distinct names) against readers
    // that continuously grab published states.  Consistency invariant:
    // every observed state is an exact prefix — events_seen is exactly
    // epoch * per-shard-events, never a torn intermediate.
    const auto shard = make_shard(5, 120);
    core::IOCov one(trace::FilterConfig::mount_point("/mnt/test"));
    one.consume_binary(shard);
    const auto per_shard = one.report().events_seen;
    ASSERT_GT(per_shard, 0u);

    core::LiveCoverage live;
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 8;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> torn{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            while (!done.load(std::memory_order_acquire)) {
                const auto pub = live.read();
                if (pub->state.report.events_seen !=
                    pub->epoch * per_shard)
                    torn.fetch_add(1);
            }
        });
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 0; i < kPerWriter; ++i)
                live.push(std::string("w") + std::to_string(w) + "_" +
                              std::to_string(i),
                          shard);
        });
    }
    for (auto& t : writers) t.join();
    done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    EXPECT_EQ(torn.load(), 0u) << "a reader saw a torn histogram";
    EXPECT_EQ(live.epoch(), kWriters * kPerWriter);
    EXPECT_EQ(live.read()->state.report.events_seen,
              kWriters * kPerWriter * per_shard);
}

// ---- daemon end-to-end -----------------------------------------------------

/// Runs a Server on its own thread; joins + stops on destruction.
class DaemonFixture {
  public:
    DaemonFixture(core::LiveCoverage& live, ServeOptions opts)
        : server_(live, opts) {
        start_status_ = server_.start();
        if (!start_status_)
            thread_ = std::thread([this] { server_.run(); });
    }
    ~DaemonFixture() {
        if (thread_.joinable()) {
            server_.request_stop();
            thread_.join();
        }
    }
    host::IoStatus start_status() const { return start_status_; }
    Server& server() { return server_; }
    void join() {
        if (thread_.joinable()) thread_.join();
    }

  private:
    Server server_;
    host::IoStatus start_status_;
    std::thread thread_;
};

TEST_F(Serve, ConcurrentProducersMatchBatchBitIdentically) {
    std::vector<std::string> shards;
    for (std::uint64_t s = 0; s < 8; ++s) shards.push_back(make_shard(s));
    const auto want = batch_report(shards);

    core::LiveCoverage live;
    ServeOptions opts;
    opts.unix_path = path("sock");
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt)
        << daemon.start_status()->to_string();

    // One producer thread per shard, all racing over the same socket
    // path on separate connections.
    std::vector<std::thread> producers;
    std::atomic<int> failed{0};
    for (std::size_t i = 0; i < shards.size(); ++i) {
        producers.emplace_back([&, i] {
            Endpoint ep;
            ep.unix_path = path("sock");
            auto client = Client::connect(ep, 5000);
            if (!client) {
                failed.fetch_add(1);
                return;
            }
            const auto reply =
                client->push(std::string("shard") + std::to_string(i),
                             shards[i]);
            if (!reply || !reply->ok) failed.fetch_add(1);
        });
    }
    for (auto& t : producers) t.join();
    EXPECT_EQ(failed.load(), 0);

    Endpoint ep;
    ep.unix_path = path("sock");
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    const auto reply = client->query("report");
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->ok) << reply->text;
    EXPECT_EQ(reply->epoch, shards.size());
    EXPECT_EQ(reply->text, want)
        << "live report must equal batch analyze byte-for-byte";

    const auto stop = client->stop();
    ASSERT_TRUE(stop.has_value());
    EXPECT_TRUE(stop->ok);
    daemon.join();
    EXPECT_EQ(daemon.server().stats().pushes_accepted, shards.size());
}

TEST_F(Serve, QueriesDuringIngestSeeOnlyConsistentPrefixes) {
    // Identical shard bytes under distinct names: any consistent
    // prefix has events_seen == epoch * per-shard.  A fuzz reader
    // hammers `status` while producers push.
    const auto shard = make_shard(11, 120);
    core::IOCov one(trace::FilterConfig::mount_point("/mnt/test"));
    one.consume_binary(shard);
    const auto per_shard = one.report().events_seen;

    core::LiveCoverage live;
    ServeOptions opts;
    opts.unix_path = path("sock");
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt);

    constexpr int kPushes = 24;
    std::atomic<bool> done{false};
    std::atomic<int> torn{0};
    std::thread reader([&] {
        Endpoint ep;
        ep.unix_path = path("sock");
        auto client = Client::connect(ep, 5000);
        if (!client) {
            torn.fetch_add(1000);
            return;
        }
        while (!done.load(std::memory_order_acquire)) {
            const auto reply = client->query("status");
            if (!reply || !reply->ok) break;  // daemon stopping
            std::uint64_t epoch = 0, seen = 0;
            std::istringstream is(reply->text);
            std::string key;
            std::uint64_t val;
            while (is >> key >> val) {
                if (key == "epoch") epoch = val;
                if (key == "events_seen") seen = val;
            }
            if (seen != epoch * per_shard) torn.fetch_add(1);
        }
    });
    std::vector<std::thread> producers;
    for (int w = 0; w < 3; ++w) {
        producers.emplace_back([&, w] {
            Endpoint ep;
            ep.unix_path = path("sock");
            auto client = Client::connect(ep, 5000);
            ASSERT_TRUE(client.has_value());
            for (int i = 0; i < kPushes / 3; ++i) {
                const auto reply = client->push(
                    std::string("w") + std::to_string(w) + "_" +
                        std::to_string(i),
                    shard);
                ASSERT_TRUE(reply.has_value());
                EXPECT_TRUE(reply->ok);
            }
        });
    }
    for (auto& t : producers) t.join();
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(torn.load(), 0) << "a query observed a torn state";

    Endpoint ep;
    ep.unix_path = path("sock");
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    const auto reply = client->query("report");
    ASSERT_TRUE(reply.has_value() && reply->ok);
    EXPECT_EQ(reply->epoch, static_cast<std::uint64_t>(kPushes));
}

TEST_F(Serve, DuplicatePushesOverTheWireAreAcknowledgedAndSkipped) {
    core::LiveCoverage live;
    ServeOptions opts;
    opts.unix_path = path("sock");
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt);

    Endpoint ep;
    ep.unix_path = path("sock");
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    const auto shard = make_shard(2);
    const auto first = client->push("same-name", shard);
    ASSERT_TRUE(first.has_value() && first->ok);
    const auto again = client->push("same-name", shard);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(again->ok) << "a duplicate is an ack, not an error";
    EXPECT_NE(again->text.find("duplicate"), std::string::npos);
    EXPECT_EQ(again->epoch, 1u);
    client->stop();
    daemon.join();
    EXPECT_EQ(daemon.server().stats().pushes_duplicate, 1u);
}

TEST_F(Serve, NonIoctPushIsRejectedWithoutPoisoningState) {
    core::LiveCoverage live;
    ServeOptions opts;
    opts.unix_path = path("sock");
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt);

    Endpoint ep;
    ep.unix_path = path("sock");
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    const auto bad = client->push("junk", "this is not an IOCT stream");
    ASSERT_TRUE(bad.has_value());
    EXPECT_FALSE(bad->ok);
    // The connection and the daemon both survive; a good push lands.
    const auto good = client->push("real", make_shard(1));
    ASSERT_TRUE(good.has_value());
    EXPECT_TRUE(good->ok);
    EXPECT_EQ(good->epoch, 1u);
    client->stop();
    daemon.join();
    EXPECT_EQ(daemon.server().stats().pushes_rejected, 1u);
}

TEST_F(Serve, TornFrameAtCloseIsDiagnosedNotIngested) {
    core::LiveCoverage live;
    ServeOptions opts;
    opts.unix_path = path("sock");
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt);

    // Raw socket: send half a push frame, then hang up.
    const auto wire = encode_push("torn", make_shard(4));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const auto sock_path = path("sock");
    ASSERT_LT(sock_path.size(), sizeof addr.sun_path);
    std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr),
              0);
    const auto half = wire.size() / 2;
    ASSERT_EQ(::send(fd, wire.data(), half, 0),
              static_cast<ssize_t>(half));
    ::close(fd);

    // The daemon must shrug it off: a well-formed session still works.
    Endpoint ep;
    ep.unix_path = sock_path;
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    const auto reply = client->query("ping");
    ASSERT_TRUE(reply.has_value() && reply->ok);
    client->stop();
    daemon.join();
    EXPECT_EQ(daemon.server().stats().torn_frames, 1u);
    EXPECT_EQ(daemon.server().stats().pushes_accepted, 0u)
        << "half a push must never reach the pipeline";
    EXPECT_NE(daemon.server().diagnostics().to_string().find("torn frame"),
              std::string::npos);
}

TEST_F(Serve, CorruptFrameDropsTheConnectionOnly) {
    core::LiveCoverage live;
    ServeOptions opts;
    opts.unix_path = path("sock");
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const auto sock_path = path("sock");
    std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr),
              0);
    // Unknown tag 0x7f — structural corruption.
    ASSERT_EQ(::send(fd, "\x01\x00\x00\x00\x7f", 5, 0), 5);
    // The daemon answers with an ERR frame and drops us; reading until
    // EOF proves the drop (rather than a hang).
    char buf[256];
    while (::recv(fd, buf, sizeof buf, 0) > 0) {
    }
    ::close(fd);

    Endpoint ep;
    ep.unix_path = sock_path;
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    const auto reply = client->query("ping");
    ASSERT_TRUE(reply.has_value() && reply->ok);
    client->stop();
    daemon.join();
    EXPECT_GE(daemon.server().stats().torn_frames, 1u);
}

TEST_F(Serve, TcpListenerWorksOnEphemeralPort) {
    core::LiveCoverage live;
    ServeOptions opts;
    opts.tcp_port = 0;  // ephemeral
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt);
    ASSERT_GT(daemon.server().tcp_port(), 0);

    Endpoint ep;
    ep.tcp_port = daemon.server().tcp_port();
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    const auto reply = client->push("tcp-shard", make_shard(6));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->ok);
    client->stop();
    daemon.join();
}

TEST_F(Serve, DeltasEmittedDuringIngestMergeToTheFullState) {
    std::vector<std::string> shards;
    for (std::uint64_t s = 0; s < 6; ++s) shards.push_back(make_shard(s));
    const auto want = batch_report(shards);
    const auto delta_dir = path("deltas");
    fs::create_directories(delta_dir);

    core::LiveCoverage live;
    ServeOptions opts;
    opts.unix_path = path("sock");
    opts.delta_dir = delta_dir;
    opts.delta_every = 2;
    opts.delta_label = "unit";
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt);

    Endpoint ep;
    ep.unix_path = path("sock");
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const auto reply =
            client->push(std::string("d") + std::to_string(i), shards[i]);
        ASSERT_TRUE(reply.has_value() && reply->ok);
    }
    client->stop();
    daemon.join();
    EXPECT_GE(daemon.server().stats().deltas, 3u);

    core::IOCov folded(trace::FilterConfig::mount_point("/mnt/test"));
    std::size_t loaded = 0;
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(delta_dir))
        files.push_back(e.path());
    for (const auto& f : files) {
        core::SnapshotError err;
        const auto snap = core::load_snapshot_file(f.string(), &err);
        ASSERT_TRUE(snap.has_value()) << f << ": " << err.to_string();
        EXPECT_EQ(snap->label, "unit");
        folded.merge(*snap);
        ++loaded;
    }
    EXPECT_GE(loaded, 3u);
    EXPECT_EQ(report_text(folded.report()), want)
        << "merging every delta must reproduce the full state";
}

TEST_F(Serve, CheckpointRestartRepushConvergesToUninterruptedReport) {
    std::vector<std::string> shards;
    for (std::uint64_t s = 0; s < 6; ++s) shards.push_back(make_shard(s));
    const auto want = batch_report(shards);
    const auto ck = path("serve.iock");

    // First incarnation: checkpoint after every push, "crash" (destroy
    // without graceful finalize is closest we can get in-process; the
    // checkpoint written after push N is the recovery point).
    {
        core::LiveCoverage live;
        ServeOptions opts;
        opts.unix_path = path("sock");
        opts.checkpoint_path = ck;
        opts.checkpoint_every = 1;
        DaemonFixture daemon(live, opts);
        ASSERT_EQ(daemon.start_status(), std::nullopt);
        Endpoint ep;
        ep.unix_path = path("sock");
        auto client = Client::connect(ep, 5000);
        ASSERT_TRUE(client.has_value());
        for (std::size_t i = 0; i < 3; ++i) {
            const auto reply =
                client->push(std::string("c") + std::to_string(i), shards[i]);
            ASSERT_TRUE(reply.has_value() && reply->ok);
        }
        daemon.server().request_stop();
        daemon.join();
        EXPECT_GE(daemon.server().stats().checkpoints, 3u);
    }
    ASSERT_TRUE(fs::exists(ck));

    // Second incarnation resumes; producers re-push *everything*.
    {
        core::LiveCoverage live;
        ServeOptions opts;
        opts.unix_path = path("sock");
        opts.checkpoint_path = ck;
        opts.resume = true;
        DaemonFixture daemon(live, opts);
        ASSERT_EQ(daemon.start_status(), std::nullopt)
            << daemon.start_status()->to_string();
        EXPECT_EQ(live.epoch(), 3u) << "restore must land at the "
                                       "checkpointed epoch";
        Endpoint ep;
        ep.unix_path = path("sock");
        auto client = Client::connect(ep, 5000);
        ASSERT_TRUE(client.has_value());
        std::uint64_t dups = 0;
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const auto reply =
                client->push(std::string("c") + std::to_string(i), shards[i]);
            ASSERT_TRUE(reply.has_value() && reply->ok);
            if (reply->text.find("duplicate") != std::string::npos) ++dups;
        }
        EXPECT_EQ(dups, 3u);
        const auto reply = client->query("report");
        ASSERT_TRUE(reply.has_value() && reply->ok);
        EXPECT_EQ(reply->text, want)
            << "kill + resume + re-push must converge bit-identically";
        client->stop();
        daemon.join();
    }
}

TEST_F(Serve, StopBeforeAnyPushWritesAResumableManifest) {
    const auto ck = path("serve.iock");
    for (int run = 0; run < 2; ++run) {
        core::LiveCoverage live;
        ServeOptions opts;
        opts.unix_path = path("sock");
        opts.checkpoint_path = ck;
        opts.resume = run > 0;
        DaemonFixture daemon(live, opts);
        ASSERT_EQ(daemon.start_status(), std::nullopt)
            << "run " << run << ": " << daemon.start_status()->to_string();
        EXPECT_EQ(live.epoch(), 0u);
        daemon.server().request_stop();
        daemon.join();
        ASSERT_TRUE(fs::exists(ck));
    }
}

TEST_F(Serve, ResumeRefusesAManifestOfAnotherMode) {
    const auto ck = path("walk.iock");
    for (const auto mode :
         {core::CheckpointMode::Merge, core::CheckpointMode::Analyze}) {
        core::Checkpoint cp;
        cp.mode = mode;
        cp.consumed = {"a.iocs"};
        ASSERT_TRUE(core::save_checkpoint_file(ck, cp));
        core::LiveCoverage live;
        ServeOptions opts;
        opts.unix_path = path("sock");
        opts.checkpoint_path = ck;
        opts.resume = true;
        Server server(live, opts);
        EXPECT_NE(server.start(), std::nullopt);
        EXPECT_EQ(live.epoch(), 0u);
    }
}

TEST_F(Serve, InjectedSocketErrnosDegradeConnectionsNotTheDaemon) {
    core::LiveCoverage live;
    ServeOptions opts;
    opts.unix_path = path("sock");
    DaemonFixture daemon(live, opts);
    ASSERT_EQ(daemon.start_status(), std::nullopt);

    // Every 3rd sock-read in this *process* fails with ECONNRESET —
    // client and daemon share the hook, so both sides see chaos.
    ASSERT_EQ(host::FaultHook::configure("errno:sock-read:ECONNRESET:3"),
              std::nullopt);
    Endpoint ep;
    ep.unix_path = path("sock");
    const auto shard = make_shard(8);
    std::size_t delivered = 0;
    for (int i = 0; i < 6; ++i) {
        auto client = Client::connect(ep, 5000);
        if (!client) continue;
        const auto reply =
            client->push(std::string("e") + std::to_string(i), shard);
        if (reply && reply->ok) ++delivered;
    }
    host::FaultHook::reset();
    EXPECT_GT(delivered, 0u) << "some pushes must survive the sweep";

    // The daemon is still fully functional and its state matches a
    // batch over exactly the delivered shards.
    auto client = Client::connect(ep, 5000);
    ASSERT_TRUE(client.has_value());
    const auto reply = client->query("report");
    ASSERT_TRUE(reply.has_value() && reply->ok);
    // A push can land server-side while its *ack* is the read that
    // failed, so the daemon may hold more shards than we saw confirmed.
    EXPECT_GE(reply->epoch, delivered);
    std::vector<std::string> got(
        static_cast<std::size_t>(reply->epoch), shard);
    EXPECT_EQ(reply->text, batch_report(got));
    client->stop();
    daemon.join();
}

}  // namespace
}  // namespace iocov::serve
