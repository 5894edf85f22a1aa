#include "host/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

#include "host/fault.hpp"

namespace iocov::host {
namespace {

constexpr std::string_view kPhaseNames[] = {
    "temp-create", "write", "sync", "close", "rename",
    "dir-open",    "dirsync", "open", "stat", "read",
    "accept",      "sock-read", "sock-write",
};

/// Splits "dir/name" into the directory that must be fsync'd after a
/// rename in it ("." for a bare name).
std::string parent_dir(const std::string& path) {
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos) return ".";
    if (slash == 0) return "/";
    return path.substr(0, slash);
}

}  // namespace

std::string_view phase_name(IoPhase phase) {
    return kPhaseNames[static_cast<std::size_t>(phase)];
}

std::optional<IoPhase> phase_from_name(std::string_view name) {
    for (std::size_t i = 0; i < std::size(kPhaseNames); ++i)
        if (kPhaseNames[i] == name) return static_cast<IoPhase>(i);
    return std::nullopt;
}

std::string IoError::to_string() const {
    std::string s(phase_name(phase));
    s += ' ';
    s += path;
    s += ": ";
    // err 0 is a transfer cut short: EOF on a read phase, a zero-byte
    // write on a write phase.
    if (err) s += std::strerror(err);
    else if (phase == IoPhase::Read || phase == IoPhase::SockRead)
        s += "unexpected end of file";
    else s += "short write";
    s += " (errno ";
    s += std::to_string(err);
    if (retries) {
        s += " after ";
        s += std::to_string(retries);
        s += " retries";
    }
    s += ')';
    return s;
}

bool transient_errno(int err) {
    return err == EINTR || err == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
           || err == EWOULDBLOCK
#endif
        ;  // NOLINT(whitespace/semicolon)
}

void Backoff::wait(int err) {
    if (err == EINTR || next_us == 0) return;
    timespec ts{next_us / 1'000'000,
                static_cast<long>(next_us % 1'000'000) * 1000};
    ::nanosleep(&ts, nullptr);
    if (next_us < policy.backoff_cap_us)
        next_us = std::min(policy.backoff_cap_us, next_us * 2);
}

RetryPolicy RetryPolicy::standard() {
    static const RetryPolicy policy = [] {
        RetryPolicy p;
        if (const char* env = std::getenv("IOCOV_IO_RETRIES")) {
            char* end = nullptr;
            const unsigned long v = std::strtoul(env, &end, 10);
            if (end && *end == '\0') p.max_retries = static_cast<unsigned>(v);
        }
        return p;
    }();
    return policy;
}

// ---- AtomicWriter ----------------------------------------------------------

AtomicWriter::~AtomicWriter() { abort(); }

IoStatus AtomicWriter::fail(IoPhase phase, int err, unsigned retries) {
    abort();
    return IoError{phase, err, path_, retries};
}

IoStatus AtomicWriter::open(std::string path, WriteOptions opts) {
    path_ = std::move(path);
    opts_ = opts;
    committed_ = false;
    // The temp file must live in the destination directory: rename() is
    // only atomic within one file system, and fsync'ing the destination
    // directory is only meaningful if the temp entry was created there.
    const auto slash = path_.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string()
                                : path_.substr(0, slash + 1);
    const std::string base =
        slash == std::string::npos ? path_ : path_.substr(slash + 1);
    unsigned retries = 0;
    // O_EXCL + a counter suffix: two processes replacing the same
    // artifact never share a temp file; whoever renames last wins whole.
    for (unsigned attempt = 0; attempt < 64; ++attempt) {
        temp_path_ = dir + "." + base + ".tmp." +
                     std::to_string(static_cast<unsigned long>(::getpid())) +
                     (attempt ? std::string(".") + std::to_string(attempt)
                              : std::string());
        fd_ = retried(IoPhase::TempCreate, opts_.retry, retries,
                      [&](const FaultHook::Action&) {
                          return ::open(temp_path_.c_str(),
                                        O_WRONLY | O_CREAT | O_EXCL |
                                            O_CLOEXEC,
                                        static_cast<mode_t>(opts_.mode));
                      });
        if (fd_ >= 0) return std::nullopt;
        if (errno != EEXIST) break;
    }
    const int err = errno;
    temp_path_.clear();
    return fail(IoPhase::TempCreate, err, retries);
}

IoStatus AtomicWriter::write(std::string_view bytes) {
    if (fd_ < 0) return fail(IoPhase::Write, EBADF);
    auto e = write_fd(fd_, bytes, IoPhase::Write, opts_.retry, path_,
                      /*zero_is_enospc=*/true);
    if (e) abort();
    return e;
}

IoStatus AtomicWriter::commit() {
    if (fd_ < 0) return fail(IoPhase::Sync, EBADF);
    unsigned retries = 0;
    if (opts_.durable &&
        retried(IoPhase::Sync, opts_.retry, retries,
                [&](const FaultHook::Action&) { return ::fsync(fd_); }) != 0)
        return fail(IoPhase::Sync, errno, retries);
    {
        // close() EINTR is treated as success: POSIX leaves the fd state
        // unspecified and Linux always releases it — retrying risks
        // closing someone else's fd.  An injected fault skips the real
        // close, so the fd is released here before it is reported.
        const int fd = std::exchange(fd_, -1);
        bool called = false;
        if (hooked(IoPhase::Close, [&](const FaultHook::Action&) {
                called = true;
                return ::close(fd);
            }) != 0) {
            const int err = errno;
            if (!called) ::close(fd);
            if (err != EINTR) return fail(IoPhase::Close, err);
        }
    }
    retries = 0;
    if (retried(IoPhase::Rename, opts_.retry, retries,
                [&](const FaultHook::Action&) {
                    return ::rename(temp_path_.c_str(), path_.c_str());
                }) != 0)
        return fail(IoPhase::Rename, errno, retries);
    // The rename has happened: from here on the destination holds the
    // new complete artifact, so failures are reported (durability of
    // the rename is not yet guaranteed) without rolling anything back.
    committed_ = true;
    temp_path_.clear();
    if (opts_.durable) {
        const std::string dir = parent_dir(path_);
        retries = 0;
        const int dfd = retried(IoPhase::DirOpen, opts_.retry, retries,
                                [&](const FaultHook::Action&) {
                                    return ::open(dir.c_str(),
                                                  O_RDONLY | O_DIRECTORY |
                                                      O_CLOEXEC);
                                });
        if (dfd < 0) return IoError{IoPhase::DirOpen, errno, path_, retries};
        retries = 0;
        const int rc = retried(IoPhase::DirSync, opts_.retry, retries,
                               [&](const FaultHook::Action&) {
                                   return ::fsync(dfd);
                               });
        const int err = errno;
        ::close(dfd);
        if (rc != 0) return IoError{IoPhase::DirSync, err, path_, retries};
    }
    return std::nullopt;
}

void AtomicWriter::abort() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!committed_ && !temp_path_.empty()) ::unlink(temp_path_.c_str());
    temp_path_.clear();
}

IoStatus write_file_atomic(const std::string& path, std::string_view bytes,
                           const WriteOptions& opts) {
    AtomicWriter w;
    if (auto e = w.open(path, opts)) return e;
    if (auto e = w.write(bytes)) return e;
    return w.commit();
}

// ---- fds, pipes, sockets ---------------------------------------------------

void ignore_sigpipe() {
    struct sigaction sa{};
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
}

IoStatus write_fd(int fd, std::string_view bytes, IoPhase phase,
                  const RetryPolicy& policy, std::string_view label,
                  bool zero_is_enospc) {
    std::size_t done = 0;
    unsigned retries = 0;
    while (done < bytes.size()) {
        const char* at = bytes.data() + done;
        const std::size_t left = bytes.size() - done;
        const ssize_t n = retried(
            phase, policy, retries, [&](const FaultHook::Action& a) {
                if (a.kill) {
                    // Torn host write: persist the prefix, then die
                    // exactly here — the chaos oracle must still find a
                    // complete artifact at the destination.
                    const std::size_t pre =
                        std::min(a.kill_after_bytes, left);
                    if (pre > 0) {
                        [[maybe_unused]] const ssize_t w =
                            ::write(fd, at, pre);
                    }
                    ::raise(SIGKILL);
                }
                return ::write(fd, at,
                               a.shorten && left > 1 ? left / 2 : left);
            });
        if (n > 0) {
            // The stats probe's torn-write offset space: payload bytes
            // of the phase `kill:write:K:OFF` can tear.
            if (phase == IoPhase::Write && FaultHook::active())
                FaultHook::note_write_bytes(static_cast<std::uint64_t>(n));
            done += static_cast<std::size_t>(n);
        } else if (n == 0 && zero_is_enospc &&
                   retries < policy.max_retries) {
            // write() returning 0 for a nonzero count: a pathological
            // fs.  Bounded like any other non-progress condition.
            ++retries;
        } else {
            const int err = n < 0 ? errno : zero_is_enospc ? ENOSPC : 0;
            return IoError{phase, err, std::string(label), retries};
        }
    }
    return std::nullopt;
}

IoStatus read_fd(int fd, std::size_t want, std::string& out, IoPhase phase,
                 const RetryPolicy& policy, std::string_view label,
                 std::size_t chunk) {
    const std::size_t base = out.size();
    std::size_t done = 0;
    unsigned retries = 0;
    IoStatus status;
    while (done < want) {
        const std::size_t ask = std::min(want - done, chunk);
        out.resize(base + done + ask);
        char* at = out.data() + base + done;
        const ssize_t n = retried(
            phase, policy, retries, [&](const FaultHook::Action& a) {
                return a.eof ? ssize_t{0} : ::read(fd, at, ask);
            });
        if (n <= 0) {  // n == 0: EOF mid-message, a torn read, err 0
            status = IoError{phase, n < 0 ? errno : 0, std::string(label),
                             retries};
            break;
        }
        done += static_cast<std::size_t>(n);
    }
    out.resize(base + done);
    return status;
}

}  // namespace iocov::host
