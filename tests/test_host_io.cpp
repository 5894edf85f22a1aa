// host::io durability primitives: atomic create/replace semantics,
// temp-file hygiene, the bounded transient-retry policy, structured
// IoError contents, the FaultHook spec parser, the MappedFile
// read()-fallback retry/shrank behavior, and the one-op-per-attempt
// count of every site built on hooked()/retried() — all driven through
// the self-fault hook so injected errnos travel the same code paths
// real kernel failures would.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/live.hpp"
#include "host/fault.hpp"
#include "host/io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/binary_format.hpp"

namespace iocov::host {
namespace {

namespace fs = std::filesystem;

/// Fast retries so exhaustion tests do not sleep through real backoff.
WriteOptions fast_opts() {
    WriteOptions opts;
    opts.retry = RetryPolicy{3, 1, 2};
    return opts;
}

std::string read_all(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::size_t temp_debris(const fs::path& dir) {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.path().filename().string().find(".tmp.") != std::string::npos)
            ++n;
    return n;
}

/// Every test starts and ends with no armed fault clauses.
class HostIo : public ::testing::Test {
  protected:
    void SetUp() override {
        FaultHook::reset();
        dir_ = fs::temp_directory_path() /
               ("iocov_hostio_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }
    void TearDown() override {
        FaultHook::reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string target(const char* name = "out.bin") const {
        return (dir_ / name).string();
    }
    fs::path dir_;
};

TEST_F(HostIo, AtomicWriteCreatesFileWithNoTempResidue) {
    const std::string path = target();
    ASSERT_EQ(write_file_atomic(path, "hello artifact"), std::nullopt);
    EXPECT_EQ(read_all(path), "hello artifact");
    EXPECT_EQ(temp_debris(dir_), 0u);
}

TEST_F(HostIo, AtomicWriteReplacesExistingContent) {
    const std::string path = target();
    ASSERT_EQ(write_file_atomic(path, "old"), std::nullopt);
    ASSERT_EQ(write_file_atomic(path, "replacement bytes"), std::nullopt);
    EXPECT_EQ(read_all(path), "replacement bytes");
}

TEST_F(HostIo, EmptyPayloadIsAValidArtifact) {
    const std::string path = target();
    ASSERT_EQ(write_file_atomic(path, ""), std::nullopt);
    EXPECT_TRUE(fs::exists(path));
    EXPECT_EQ(fs::file_size(path), 0u);
}

TEST_F(HostIo, FailedWritePreservesPriorAndCleansTemp) {
    const std::string path = target();
    ASSERT_EQ(write_file_atomic(path, "prior complete artifact"),
              std::nullopt);

    ASSERT_EQ(FaultHook::configure("errno:write:ENOSPC:1"), std::nullopt);
    const IoStatus st = write_file_atomic(path, "doomed", fast_opts());
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->phase, IoPhase::Write);
    EXPECT_EQ(st->err, ENOSPC);
    EXPECT_EQ(st->path, path);  // artifact path, not the temp name
    // The durability oracle: destination untouched, temp unlinked.
    EXPECT_EQ(read_all(path), "prior complete artifact");
    EXPECT_EQ(temp_debris(dir_), 0u);
}

TEST_F(HostIo, EveryWritePhaseFailurePreservesPrior) {
    const std::string path = target();
    for (const char* phase :
         {"temp-create", "write", "sync", "close", "rename", "dirsync"}) {
        ASSERT_EQ(write_file_atomic(path, "prior"), std::nullopt);
        FaultHook::reset();
        ASSERT_EQ(FaultHook::configure(std::string("errno:") + phase +
                                       ":EIO:1"),
                  std::nullopt);
        const IoStatus st = write_file_atomic(path, "new", fast_opts());
        FaultHook::reset();
        ASSERT_TRUE(st.has_value()) << phase;
        EXPECT_EQ(st->err, EIO) << phase;
        EXPECT_EQ(phase_name(st->phase), phase);
        // rename/dirsync fire after the destination swap is allowed to
        // be in flight; everything earlier must leave the prior bytes.
        if (st->phase != IoPhase::Rename && st->phase != IoPhase::DirSync) {
            EXPECT_EQ(read_all(path), "prior") << phase;
        }
        EXPECT_EQ(temp_debris(dir_), 0u) << phase;
    }
}

TEST_F(HostIo, EintrIsRetriedToSuccess) {
    ASSERT_EQ(FaultHook::configure("errno:write:EINTR:1,errno:sync:EINTR:1,"
                                   "errno:rename:EINTR:1"),
              std::nullopt);
    const std::string path = target();
    EXPECT_EQ(write_file_atomic(path, "interrupted but fine", fast_opts()),
              std::nullopt);
    EXPECT_EQ(read_all(path), "interrupted but fine");
}

TEST_F(HostIo, EagainExhaustionIsBoundedAndCounted) {
    // k == 0 arms the clause for *every* matching op: the retry policy
    // must give up after max_retries instead of spinning forever.
    ASSERT_EQ(FaultHook::configure("errno:write:EAGAIN:0"), std::nullopt);
    const IoStatus st = write_file_atomic(target(), "never", fast_opts());
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->err, EAGAIN);
    EXPECT_EQ(st->phase, IoPhase::Write);
    EXPECT_EQ(st->retries, fast_opts().retry.max_retries);
}

TEST_F(HostIo, ShortWritesLoopToCompletion) {
    // Halve the first few write()s: the writer must loop until all
    // bytes land, never treating a short write as success or failure.
    ASSERT_EQ(FaultHook::configure("short:1,short:2,short:3,short:4"),
              std::nullopt);
    const std::string payload(4096, 'x');
    const std::string path = target();
    ASSERT_EQ(write_file_atomic(path, payload), std::nullopt);
    EXPECT_EQ(read_all(path), payload);
}

TEST_F(HostIo, MissingDirectoryIsStructuredTempCreateError) {
    const IoStatus st = write_file_atomic(
        (dir_ / "no-such-subdir" / "out.bin").string(), "x");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->phase, IoPhase::TempCreate);
    EXPECT_EQ(st->err, ENOENT);
    const std::string msg = st->to_string();
    EXPECT_NE(msg.find("temp-create"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out.bin"), std::string::npos) << msg;
}

TEST_F(HostIo, AbortedWriterLeavesNoTrace) {
    const std::string path = target();
    ASSERT_EQ(write_file_atomic(path, "prior"), std::nullopt);
    {
        AtomicWriter w;
        ASSERT_EQ(w.open(path), std::nullopt);
        ASSERT_EQ(w.write("half an arti"), std::nullopt);
        EXPECT_FALSE(w.committed());
        // Destructor aborts the uncommitted write.
    }
    EXPECT_EQ(read_all(path), "prior");
    EXPECT_EQ(temp_debris(dir_), 0u);
}

TEST_F(HostIo, PhaseNamesRoundTrip) {
    for (const auto phase :
         {IoPhase::TempCreate, IoPhase::Write, IoPhase::Sync,
          IoPhase::Close, IoPhase::Rename, IoPhase::DirOpen,
          IoPhase::DirSync, IoPhase::Open, IoPhase::Stat, IoPhase::Read}) {
        const auto back = phase_from_name(phase_name(phase));
        ASSERT_TRUE(back.has_value()) << phase_name(phase);
        EXPECT_EQ(*back, phase);
    }
    EXPECT_FALSE(phase_from_name("frobnicate").has_value());
}

TEST_F(HostIo, TransientErrnoClassification) {
    EXPECT_TRUE(transient_errno(EINTR));
    EXPECT_TRUE(transient_errno(EAGAIN));
    EXPECT_FALSE(transient_errno(ENOSPC));
    EXPECT_FALSE(transient_errno(EIO));
    EXPECT_FALSE(transient_errno(0));
}

TEST_F(HostIo, FaultSpecParserAcceptsTheDocumentedGrammar) {
    for (const char* good :
         {"errno:write:ENOSPC:1", "errno:any:EIO:0", "errno:sync:5:2",
          "short:3", "eof:1", "kill:rename:2", "kill:write:1:17",
          "errno:write:ENOSPC:1,short:2,eof:1"}) {
        EXPECT_EQ(FaultHook::configure(good), std::nullopt) << good;
        FaultHook::reset();
    }
}

TEST_F(HostIo, FaultSpecParserRejectsMalformedClauses) {
    for (const char* bad :
         {"bogus", "errno:write:NOTANERRNO:1", "errno:nophase:EIO:1",
          "errno:write:ENOSPC", "short:", "short:x", "short:0",
          "eof:0", "kill:write", "kill:sync:1:17", "eof"}) {
        EXPECT_NE(FaultHook::configure(bad), std::nullopt) << bad;
        FaultHook::reset();
    }
}

TEST_F(HostIo, ErrnoNameParsing) {
    EXPECT_EQ(parse_errno_name("ENOSPC"), ENOSPC);
    EXPECT_EQ(parse_errno_name("EINTR"), EINTR);
    EXPECT_EQ(parse_errno_name("5"), 5);
    EXPECT_EQ(parse_errno_name("EWHATEVER"), 0);
}

TEST_F(HostIo, FaultHookCountsOpsPerPhase) {
    ASSERT_EQ(FaultHook::configure("errno:write:ENOSPC:999999"),
              std::nullopt);  // armed but never firing: counting only
    const auto before = FaultHook::ops(IoPhase::Write);
    ASSERT_EQ(write_file_atomic(target(), "count me"), std::nullopt);
    EXPECT_GT(FaultHook::ops(IoPhase::Write), before);
    EXPECT_GT(FaultHook::total_ops(), 0u);
}

// ---- MappedFile read()-fallback --------------------------------------------

TEST_F(HostIo, MappedFileReadCopyLoadsBytes) {
    const std::string path = target("trace.bin");
    ASSERT_EQ(write_file_atomic(path, "some trace bytes"), std::nullopt);
    host::IoError err;
    const auto mf =
        trace::MappedFile::open(path, trace::MappedFile::Mode::ReadCopy, &err);
    ASSERT_TRUE(mf.has_value()) << err.to_string();
    EXPECT_FALSE(mf->mmapped());
    EXPECT_FALSE(mf->shrank());
    EXPECT_EQ(mf->data(), "some trace bytes");
}

TEST_F(HostIo, MappedFileRetriesEintrDuringRead) {
    const std::string path = target("trace.bin");
    ASSERT_EQ(write_file_atomic(path, "interrupted read"), std::nullopt);
    ASSERT_EQ(FaultHook::configure("errno:read:EINTR:1,errno:open:EINTR:1,"
                                   "errno:stat:EINTR:1"),
              std::nullopt);
    host::IoError err;
    const auto mf =
        trace::MappedFile::open(path, trace::MappedFile::Mode::ReadCopy, &err);
    ASSERT_TRUE(mf.has_value()) << err.to_string();
    EXPECT_EQ(mf->data(), "interrupted read");
}

TEST_F(HostIo, MappedFileReadErrorIsStructuredNotShrank) {
    const std::string path = target("trace.bin");
    ASSERT_EQ(write_file_atomic(path, "doomed read"), std::nullopt);
    ASSERT_EQ(FaultHook::configure("errno:read:EIO:1"), std::nullopt);
    host::IoError err;
    const auto mf =
        trace::MappedFile::open(path, trace::MappedFile::Mode::ReadCopy, &err);
    EXPECT_FALSE(mf.has_value());
    EXPECT_EQ(err.phase, IoPhase::Read);
    EXPECT_EQ(err.err, EIO);
    EXPECT_EQ(err.path, path);
}

TEST_F(HostIo, MappedFileShrinkingFileKeepsPartialAndFlagsShrank) {
    const std::string path = target("trace.bin");
    ASSERT_EQ(write_file_atomic(path, "prefix is still useful"),
              std::nullopt);
    // Force EOF on the very first read(): the fstat'd size was a lie,
    // the file "shrank" to nothing.  Distinct from a read *error*.
    ASSERT_EQ(FaultHook::configure("eof:1"), std::nullopt);
    host::IoError err;
    const auto mf =
        trace::MappedFile::open(path, trace::MappedFile::Mode::ReadCopy, &err);
    ASSERT_TRUE(mf.has_value()) << err.to_string();
    EXPECT_TRUE(mf->shrank());
    EXPECT_LT(mf->data().size(), std::string("prefix is still useful").size());
}

TEST_F(HostIo, MappedFileMissingFileIsOpenPhase) {
    host::IoError err;
    const auto mf = trace::MappedFile::open(
        target("never-written.bin"), trace::MappedFile::Mode::Auto, &err);
    EXPECT_FALSE(mf.has_value());
    EXPECT_EQ(err.phase, IoPhase::Open);
    EXPECT_EQ(err.err, ENOENT);
}

// ---- fd/pipe/socket I/O -----------------------------------------------

TEST_F(HostIo, WriteFdRoundTripsThroughAPipe) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    EXPECT_EQ(write_fd(fds[1], "framed bytes"), std::nullopt);
    std::string got;
    EXPECT_EQ(read_fd(fds[0], 12, got), std::nullopt);
    EXPECT_EQ(got, "framed bytes");
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST_F(HostIo, WriteToClosedPipeIsEpipeNotDeath) {
    // The bug this pins down: without ignore_sigpipe(), writing to a
    // pipe whose read end closed (`iocov analyze | head`, or a serve
    // client disconnecting mid-response) killed the whole process with
    // SIGPIPE.  With it, the write fails with a structured EPIPE.
    ignore_sigpipe();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ::close(fds[0]);  // reader goes away
    const auto err = write_fd(fds[1], "nobody is listening",
                              IoPhase::SockWrite, RetryPolicy{3, 1, 2},
                              "pipe");
    ASSERT_TRUE(err.has_value()) << "process survived, but the write "
                                    "must report the lost consumer";
    EXPECT_EQ(err->phase, IoPhase::SockWrite);
    EXPECT_EQ(err->err, EPIPE);
    EXPECT_EQ(err->path, "pipe");
    ::close(fds[1]);
}

TEST_F(HostIo, ReadFdEarlyEofIsATornReadWithErrZero) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(write_fd(fds[1], "short"), std::nullopt);
    ::close(fds[1]);  // writer quits mid-message
    std::string got;
    const auto err = read_fd(fds[0], 64, got);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->phase, IoPhase::SockRead);
    EXPECT_EQ(err->err, 0) << "EOF is not an errno";
    EXPECT_EQ(got, "short") << "the torn prefix is still delivered";
    ::close(fds[0]);
}

TEST_F(HostIo, FdIoConsultsTheFaultHookAtSocketPhases) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // EIO is not transient: the first injected failure must surface
    // immediately as a structured error under the right phase.
    ASSERT_EQ(FaultHook::configure("errno:sock-write:EIO:0"),
              std::nullopt);
    const auto werr = write_fd(fds[1], "payload", IoPhase::SockWrite,
                               RetryPolicy{3, 1, 2}, "sock");
    ASSERT_TRUE(werr.has_value());
    EXPECT_EQ(werr->phase, IoPhase::SockWrite);
    EXPECT_EQ(werr->err, EIO);
    FaultHook::reset();
    ASSERT_EQ(FaultHook::configure("errno:sock-read:ECONNRESET:0"),
              std::nullopt);
    std::string got;
    const auto rerr = read_fd(fds[0], 4, got, IoPhase::SockRead,
                              RetryPolicy{3, 1, 2}, "sock");
    ASSERT_TRUE(rerr.has_value());
    EXPECT_EQ(rerr->phase, IoPhase::SockRead);
    EXPECT_EQ(rerr->err, ECONNRESET);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST_F(HostIo, FdIoRetriesTransientErrnosToSuccess) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Two EINTRs then clean: the standard policy absorbs them.
    ASSERT_EQ(FaultHook::configure(
                  "errno:sock-write:EINTR:1,errno:sock-write:EINTR:2"),
              std::nullopt);
    const auto err = write_fd(fds[1], "eventually lands",
                              IoPhase::SockWrite, RetryPolicy{5, 1, 2},
                              "sock");
    EXPECT_EQ(err, std::nullopt);
    std::string got;
    EXPECT_EQ(read_fd(fds[0], 16, got), std::nullopt);
    EXPECT_EQ(got, "eventually lands");
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---- one op per attempt: every site on hooked()/retried() -------------------

TEST_F(HostIo, MappedFileEagainExhaustionIsBoundedPerPhase) {
    const std::string path = target("trace.bin");
    ASSERT_EQ(write_file_atomic(path, "never loaded"), std::nullopt);
    const unsigned max = RetryPolicy::standard().max_retries;
    for (const char* phase : {"open", "stat", "read"}) {
        FaultHook::reset();
        ASSERT_EQ(FaultHook::configure(std::string("errno:") + phase +
                                       ":EAGAIN:0"),
                  std::nullopt);
        host::IoError err;
        const auto mf = trace::MappedFile::open(
            path, trace::MappedFile::Mode::ReadCopy, &err);
        EXPECT_FALSE(mf.has_value()) << phase;
        EXPECT_EQ(phase_name(err.phase), phase);
        EXPECT_EQ(err.err, EAGAIN) << phase;
        EXPECT_EQ(err.retries, max) << phase;
        EXPECT_EQ(FaultHook::ops(err.phase), max + 1u) << phase;
    }
}

TEST_F(HostIo, AtomicWriterCountsOneOpPerAttempt) {
    constexpr IoPhase kRetried[] = {IoPhase::TempCreate, IoPhase::Write,
                                    IoPhase::Sync,       IoPhase::Rename,
                                    IoPhase::DirOpen,    IoPhase::DirSync};
    // Armed but never firing: counting only.
    ASSERT_EQ(FaultHook::configure("errno:any:ENOSPC:999999"), std::nullopt);
    ASSERT_EQ(write_file_atomic(target(), "count me"), std::nullopt);
    for (const IoPhase phase : kRetried)
        EXPECT_EQ(FaultHook::ops(phase), 1u) << phase_name(phase);
    EXPECT_EQ(FaultHook::ops(IoPhase::Close), 1u);
    EXPECT_EQ(FaultHook::total_ops(), 7u);

    // One EINTR per phase: each retried phase makes a second attempt;
    // close() EINTR counts as success, so close makes one.
    FaultHook::reset();
    ASSERT_EQ(FaultHook::configure(
                  "errno:temp-create:EINTR:1,errno:write:EINTR:1,"
                  "errno:sync:EINTR:1,errno:close:EINTR:1,"
                  "errno:rename:EINTR:1,errno:dir-open:EINTR:1,"
                  "errno:dirsync:EINTR:1"),
              std::nullopt);
    ASSERT_EQ(write_file_atomic(target(), "count me twice"), std::nullopt);
    EXPECT_EQ(read_all(target()), "count me twice");
    for (const IoPhase phase : kRetried)
        EXPECT_EQ(FaultHook::ops(phase), 2u) << phase_name(phase);
    EXPECT_EQ(FaultHook::ops(IoPhase::Close), 1u);
    EXPECT_EQ(temp_debris(dir_), 0u);
}

TEST_F(HostIo, MappedFileCountsOneOpPerAttempt) {
    const std::string path = target("trace.bin");
    ASSERT_EQ(write_file_atomic(path, "mapped bytes"), std::nullopt);
    ASSERT_EQ(FaultHook::configure("errno:any:ENOSPC:999999"), std::nullopt);
    ASSERT_TRUE(trace::MappedFile::open(path).has_value());
    EXPECT_EQ(FaultHook::ops(IoPhase::Open), 1u);
    EXPECT_EQ(FaultHook::ops(IoPhase::Stat), 1u);
    EXPECT_EQ(FaultHook::ops(IoPhase::Read), 0u) << "mmap reads nothing";

    FaultHook::reset();
    ASSERT_EQ(FaultHook::configure("errno:open:EINTR:1,errno:stat:EAGAIN:1,"
                                   "errno:read:EINTR:1"),
              std::nullopt);
    const auto mf =
        trace::MappedFile::open(path, trace::MappedFile::Mode::ReadCopy);
    ASSERT_TRUE(mf.has_value());
    EXPECT_EQ(mf->data(), "mapped bytes");
    EXPECT_EQ(FaultHook::ops(IoPhase::Open), 2u);
    EXPECT_EQ(FaultHook::ops(IoPhase::Stat), 2u);
    EXPECT_EQ(FaultHook::ops(IoPhase::Read), 2u)
        << "one interrupted read, then the whole file in one";
}

TEST_F(HostIo, FdIoCountsOneOpPerAttempt) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(FaultHook::configure("errno:sock-write:EINTR:1,"
                                   "errno:sock-read:EAGAIN:1"),
              std::nullopt);
    EXPECT_EQ(write_fd(fds[1], "twelve bytes", IoPhase::SockWrite,
                       RetryPolicy{3, 1, 2}),
              std::nullopt);
    std::string got;
    EXPECT_EQ(read_fd(fds[0], 12, got, IoPhase::SockRead,
                      RetryPolicy{3, 1, 2}),
              std::nullopt);
    EXPECT_EQ(got, "twelve bytes");
    EXPECT_EQ(FaultHook::ops(IoPhase::SockWrite), 2u);
    EXPECT_EQ(FaultHook::ops(IoPhase::SockRead), 2u);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST_F(HostIo, EofOutranksAnErrnoOnTheSameRead) {
    // Both clauses fire on the first read(): the eof wins, as it always
    // has — MappedFile keeps the (empty) prefix and flags shrank(), and
    // read_fd reports a torn read with err 0.
    const std::string path = target("trace.bin");
    ASSERT_EQ(write_file_atomic(path, "shrinks to nothing"), std::nullopt);
    ASSERT_EQ(FaultHook::configure("eof:1,errno:read:EIO:1"), std::nullopt);
    host::IoError err;
    const auto mf =
        trace::MappedFile::open(path, trace::MappedFile::Mode::ReadCopy, &err);
    ASSERT_TRUE(mf.has_value()) << err.to_string();
    EXPECT_TRUE(mf->shrank());
    EXPECT_EQ(mf->data(), "");

    FaultHook::reset();
    ASSERT_EQ(FaultHook::configure("eof:1,errno:read:EIO:1"), std::nullopt);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(write_fd(fds[1], "data"), std::nullopt);
    std::string got;
    const auto rerr = read_fd(fds[0], 4, got, IoPhase::Read);
    ASSERT_TRUE(rerr.has_value());
    EXPECT_EQ(rerr->phase, IoPhase::Read);
    EXPECT_EQ(rerr->err, 0) << "the eof, not the EIO";
    EXPECT_EQ(got, "");
    ::close(fds[0]);
    ::close(fds[1]);
}

/// A raw (unhooked) Unix-socket client, so every counted op is the
/// daemon's.  -1 on failure.
int connect_unix(const std::string& sock_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock_path.size() >= sizeof addr.sun_path) return -1;
    std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Sends one `ping` query on `fd` and returns the whole reply frame.
std::string ping(int fd) {
    const std::string frame = serve::encode_query("ping");
    if (::send(fd, frame.data(), frame.size(), 0) !=
        static_cast<ssize_t>(frame.size()))
        return {};
    std::string reply;
    std::size_t want = 4;  // u32le payload length, then the payload
    char buf[256];
    while (reply.size() < want) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        reply.append(buf, static_cast<std::size_t>(n));
        if (reply.size() >= 4) {
            std::uint32_t len = 0;
            for (int i = 3; i >= 0; --i)
                len = len << 8 | static_cast<std::uint8_t>(reply[i]);
            want = 4 + len;
        }
    }
    return reply;
}

TEST_F(HostIo, ServeSocketOpsCountOnePerAttempt) {
    // The daemon drains to EAGAIN: accept = the connection + EAGAIN;
    // sock-read = the query frame + EAGAIN; sock-write = the reply.
    // One injected EINTR per phase adds exactly one attempt to each.
    // The client hangs up only after the daemon is stopped, so its EOF
    // read is never counted.
    for (const bool interrupt : {false, true}) {
        FaultHook::reset();
        ASSERT_EQ(FaultHook::configure(
                      interrupt ? "errno:accept:EINTR:1,"
                                  "errno:sock-read:EINTR:1,"
                                  "errno:sock-write:EINTR:1"
                                : "errno:any:ENOSPC:999999"),
                  std::nullopt);
        core::LiveCoverage live;
        serve::ServeOptions opts;
        opts.unix_path = target(interrupt ? "eintr.sock" : "plain.sock");
        serve::Server server(live, opts);
        ASSERT_EQ(server.start(), std::nullopt);
        std::thread loop([&server] { server.run(); });
        const int fd = connect_unix(opts.unix_path);
        EXPECT_GE(fd, 0);
        const std::string reply = fd >= 0 ? ping(fd) : std::string();
        const std::uint64_t extra = interrupt ? 1 : 0;
        EXPECT_EQ(FaultHook::ops(IoPhase::Accept), 2 + extra);
        EXPECT_EQ(FaultHook::ops(IoPhase::SockRead), 2 + extra);
        EXPECT_EQ(FaultHook::ops(IoPhase::SockWrite), 1 + extra);
        server.request_stop();
        loop.join();
        if (fd >= 0) ::close(fd);
        EXPECT_NE(reply.find("pong"), std::string::npos) << interrupt;
    }
}

}  // namespace
}  // namespace iocov::host
