#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <sstream>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/report_io.hpp"
#include "core/tcd.hpp"
#include "core/untested.hpp"
#include "host/fault.hpp"
#include "host/parse.hpp"
#include "trace/binary_format.hpp"

namespace iocov::serve {
namespace {

// Signal handlers may only poke an fd; the loop turns the eventfd tick
// into a graceful shutdown.  One daemon per process is the serve
// model, so a single slot suffices.
volatile int g_signal_wake_fd = -1;

void on_signal(int) {
    const int fd = g_signal_wake_fd;
    if (fd < 0) return;
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof one);
}

/// accept4 with FaultHook consultation; injected errnos behave exactly
/// like real ones (EAGAIN ends the drain, anything else is diagnosed).
int accept_checked(int listen_fd) {
    if (host::FaultHook::active()) {
        const auto a = host::FaultHook::consult(host::IoPhase::Accept);
        if (a.inject_errno) {
            errno = a.inject_errno;
            return -1;
        }
    }
    return ::accept4(listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
}

ssize_t recv_checked(int fd, char* buf, std::size_t cap) {
    if (host::FaultHook::active()) {
        const auto a = host::FaultHook::consult(host::IoPhase::SockRead);
        if (a.inject_errno) {
            errno = a.inject_errno;
            return -1;
        }
        if (a.eof) return 0;
    }
    return ::recv(fd, buf, cap, 0);
}

ssize_t send_checked(int fd, const char* buf, std::size_t len) {
    if (host::FaultHook::active()) {
        const auto a = host::FaultHook::consult(host::IoPhase::SockWrite);
        if (a.inject_errno) {
            errno = a.inject_errno;
            return -1;
        }
        if (a.shorten && len > 1) len = std::max<std::size_t>(1, len / 2);
        len = std::min(len, a.clamp_bytes);
    }
    // MSG_NOSIGNAL belt-and-braces next to the process-wide
    // ignore_sigpipe(): a disconnecting client must never kill the
    // daemon.
    return ::send(fd, buf, len, MSG_NOSIGNAL);
}

std::string format_gaps(const core::CoverageReport& report) {
    std::string out;
    char line[512];
    for (const auto& gap : core::find_untested(report)) {
        std::snprintf(line, sizeof line, "%-8s %-10s %-18s %s\n",
                      gap.kind == core::UntestedPartition::Kind::Input
                          ? "input"
                          : "output",
                      gap.base.c_str(), gap.partition.c_str(),
                      gap.suggestion.c_str());
        out += line;
    }
    return out;
}

}  // namespace

Server::Server(core::LiveCoverage& live, ServeOptions opts)
    : live_(live), opts_(std::move(opts)) {}

Server::~Server() {
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    if (unix_fd_ >= 0) ::close(unix_fd_);
    if (tcp_fd_ >= 0) ::close(tcp_fd_);
    if (event_fd_ >= 0) {
        if (g_signal_wake_fd == event_fd_) g_signal_wake_fd = -1;
        ::close(event_fd_);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
}

host::IoStatus Server::start() {
    host::ignore_sigpipe();
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0)
        return host::IoError{host::IoPhase::Open, errno, "epoll"};
    event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (event_fd_ < 0)
        return host::IoError{host::IoPhase::Open, errno, "eventfd"};
    if (!epoll_add(event_fd_, false))
        return host::IoError{host::IoPhase::Open, errno, "eventfd"};

    if (!opts_.unix_path.empty())
        if (auto err = listen_unix()) return err;
    if (opts_.tcp_port >= 0)
        if (auto err = listen_tcp()) return err;
    if (unix_fd_ < 0 && tcp_fd_ < 0)
        return host::IoError{host::IoPhase::Open, EINVAL, "no listener"};

    if (opts_.resume && !opts_.checkpoint_path.empty())
        if (auto err = restore_from_checkpoint()) return err;

    if (opts_.install_signal_handlers) {
        g_signal_wake_fd = event_fd_;
        struct sigaction sa{};
        sa.sa_handler = on_signal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
    }
    return std::nullopt;
}

host::IoStatus Server::listen_unix() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.unix_path.size() >= sizeof addr.sun_path)
        return host::IoError{host::IoPhase::Open, ENAMETOOLONG,
                             opts_.unix_path};
    std::memcpy(addr.sun_path, opts_.unix_path.c_str(),
                opts_.unix_path.size() + 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
    if (unix_fd_ < 0)
        return host::IoError{host::IoPhase::Open, errno, opts_.unix_path};
    // A stale socket file from a killed daemon would fail the bind;
    // replacing it is the restart contract (the kill-loop gate leans
    // on this).
    ::unlink(opts_.unix_path.c_str());
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(unix_fd_, SOMAXCONN) < 0)
        return host::IoError{host::IoPhase::Open, errno, opts_.unix_path};
    if (!epoll_add(unix_fd_, false))
        return host::IoError{host::IoPhase::Open, errno, opts_.unix_path};
    return std::nullopt;
}

host::IoStatus Server::listen_tcp() {
    const std::string label =
        "127.0.0.1:" + std::to_string(opts_.tcp_port);
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                       0);
    if (tcp_fd_ < 0) return host::IoError{host::IoPhase::Open, errno, label};
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(tcp_fd_, SOMAXCONN) < 0)
        return host::IoError{host::IoPhase::Open, errno, label};
    socklen_t len = sizeof addr;
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
        0)
        bound_tcp_port_ = ntohs(addr.sin_port);
    if (!epoll_add(tcp_fd_, false))
        return host::IoError{host::IoPhase::Open, errno, label};
    return std::nullopt;
}

host::IoStatus Server::restore_from_checkpoint() {
    core::SnapshotError err;
    auto cp = core::resume_checkpoint(opts_.checkpoint_path,
                                      core::CheckpointMode::Serve, &err);
    if (!cp) {
        std::fprintf(stderr, "iocov: %s: %s\n",
                     opts_.checkpoint_path.c_str(),
                     err.to_string().c_str());
        return host::IoError{host::IoPhase::Open, EINVAL,
                             opts_.checkpoint_path};
    }
    live_.restore(cp->blocks.empty() ? core::IOCovSnapshot{}
                                     : cp->blocks[0].snapshot,
                  std::move(cp->consumed));
    stats_.pushes_accepted = live_.epoch();
    stats_.pushes_rejected = cp->rejected;
    stats_.shard_bytes = cp->bytes;
    diags_ = cp->diags;
    return std::nullopt;
}

// Registration is level-triggered on purpose: the handlers already
// drain to EAGAIN (the edge-triggered discipline), and with LT a
// readiness notification that races registration — a client that
// connects between listen() and epoll_ctl(ADD), say — is re-reported
// on the next epoll_wait instead of being lost forever.  EPOLLOUT is
// only armed while a connection has unflushed output, so LT cannot
// busy-loop.
bool Server::epoll_add(int fd, bool out_too) {
    epoll_event ev{};
    ev.events = EPOLLIN | (out_too ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void Server::request_stop() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd_, &one, sizeof one);
}

void Server::run() {
    epoll_event events[64];
    while (!stopping_) {
        const int n = ::epoll_wait(epoll_fd_, events,
                                   static_cast<int>(std::size(events)), -1);
        if (n < 0) {
            if (errno == EINTR) continue;
            diags_.record(0, 0, std::string("epoll_wait: ") +
                                    std::strerror(errno));
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == event_fd_) {
                std::uint64_t drained = 0;
                [[maybe_unused]] const ssize_t r =
                    ::read(event_fd_, &drained, sizeof drained);
                stopping_ = true;
                continue;
            }
            if (fd == unix_fd_ || fd == tcp_fd_) {
                accept_ready(fd);
                continue;
            }
            // A fd dropped earlier in this batch may still have a
            // queued event; ignore strangers.
            if (!conns_.count(fd)) continue;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                // Half-close still delivers EPOLLIN with the final
                // bytes first; read them before judging.
                conn_readable(fd);
                continue;
            }
            if (events[i].events & EPOLLIN) conn_readable(fd);
            if (conns_.count(fd) && (events[i].events & EPOLLOUT))
                conn_writable(fd);
        }
    }
    finalize();
}

void Server::accept_ready(int listen_fd) {
    // Drain the whole accept backlog every time the listener reports.
    for (;;) {
        const int fd = accept_checked(listen_fd);
        if (fd < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
                || errno == EWOULDBLOCK
#endif
            )
                return;
            // EMFILE, ECONNABORTED, injected errnos...: diagnose and
            // keep serving — a full fd table must not kill the daemon.
            ++stats_.sock_errors;
            diags_.record(0, 0,
                          std::string("accept: ") + std::strerror(errno));
            return;
        }
        ++stats_.connections;
        if (!epoll_add(fd, false)) {
            ++stats_.sock_errors;
            diags_.record(0, 0, std::string("epoll add: ") +
                                    std::strerror(errno));
            ::close(fd);
            continue;
        }
        conns_.emplace(fd, Conn{});
    }
}

void Server::conn_readable(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = recv_checked(fd, buf, sizeof buf);
        if (n > 0) {
            conn.decoder.feed({buf, static_cast<std::size_t>(n)});
            continue;
        }
        if (n < 0) {
            if (errno == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
                || errno == EWOULDBLOCK
#endif
            )
                break;
            if (errno == EINTR) continue;
            ++stats_.sock_errors;
            diags_.record(0, 0, std::string("sock-read: ") +
                                    std::strerror(errno));
            drop_conn(fd);
            return;
        }
        // EOF.  Bytes still buffered mean the peer died mid-frame —
        // the connection-level analogue of an IOCT torn tail.
        if (conn.decoder.pending() > 0) {
            ++stats_.torn_frames;
            diags_.record(0, conn.decoder.pending(),
                          "torn frame: connection closed with " +
                              std::to_string(conn.decoder.pending()) +
                              " byte(s) buffered");
        }
        drop_conn(fd);
        return;
    }
    // Process every complete frame that arrived.
    for (;;) {
        Frame frame;
        std::string reason;
        const auto st = conn.decoder.next(frame, &reason);
        if (st == FrameDecoder::Status::NeedMore) break;
        if (st == FrameDecoder::Status::Corrupt) {
            ++stats_.torn_frames;
            diags_.record(0, 0, "corrupt frame: " + reason);
            respond(fd, encode_err("corrupt frame: " + reason));
            drop_conn(fd);
            return;
        }
        handle_frame(fd, std::move(frame));
        if (!conns_.count(fd)) return;  // dropped while handling
    }
}

void Server::handle_frame(int fd, Frame frame) {
    ++stats_.frames;
    switch (frame.tag) {
        case MsgTag::Push: {
            std::string name;
            std::string_view shard;
            if (!decode_push(frame.body, name, shard) || name.empty()) {
                ++stats_.pushes_rejected;
                diags_.record(0, 0, "malformed push frame");
                respond(fd, encode_err("malformed push frame"));
                return;
            }
            if (!trace::is_ioct(shard)) {
                ++stats_.pushes_rejected;
                diags_.record(0, 0, name + ": not an IOCT trace");
                respond(fd,
                        encode_err(name + ": not an IOCT trace (bad "
                                          "magic/version)"));
                return;
            }
            const auto r = live_.push(name, shard, opts_.threads);
            if (r.accepted) {
                ++stats_.pushes_accepted;
                stats_.shard_bytes += shard.size();
                respond(fd, encode_ok(r.epoch,
                                      "accepted " + name + " (" +
                                          std::to_string(r.events) +
                                          " events, " +
                                          std::to_string(r.dropped) +
                                          " torn records)"));
                after_accepted_push();
            } else {
                ++stats_.pushes_duplicate;
                respond(fd,
                        encode_ok(r.epoch, "duplicate " + name +
                                               " (already consumed)"));
            }
            return;
        }
        case MsgTag::Query: {
            ++stats_.queries;
            std::uint64_t epoch = 0;
            bool ok = true;
            std::string payload = handle_query(frame.body, epoch, ok);
            respond(fd, ok ? encode_ok(epoch, payload)
                           : encode_err(payload));
            return;
        }
        case MsgTag::Stop:
            respond(fd, encode_ok(live_.epoch(), "stopping"));
            stopping_ = true;
            return;
        case MsgTag::Ok:
        case MsgTag::Err:
            // Response tags from a client are a protocol violation.
            diags_.record(0, 0, "unexpected response-tag frame");
            drop_conn(fd);
            return;
    }
}

std::string Server::handle_query(std::string_view text,
                                 std::uint64_t& epoch, bool& ok) {
    // One consistent state answers the whole query: grab the published
    // snapshot once; pushes that land while rendering cannot tear it.
    const auto published = live_.read();
    epoch = published->epoch;
    ok = true;
    if (text == "ping") return "pong";
    if (text == "report") {
        std::ostringstream out;
        core::save_report(out, published->state.report);
        return out.str();
    }
    if (text == "gaps") return format_gaps(published->state.report);
    if (text == "status") {
        std::ostringstream out;
        out << "epoch " << published->epoch << "\n"
            << "events_seen " << published->state.report.events_seen << "\n"
            << "events_tracked " << published->state.report.events_tracked
            << "\n"
            << "pushes_accepted " << stats_.pushes_accepted << "\n"
            << "pushes_duplicate " << stats_.pushes_duplicate << "\n"
            << "pushes_rejected " << stats_.pushes_rejected << "\n"
            << "shard_bytes " << stats_.shard_bytes << "\n"
            << "queries " << stats_.queries << "\n"
            << "torn_frames " << stats_.torn_frames << "\n"
            << "sock_errors " << stats_.sock_errors << "\n"
            << "deltas " << stats_.deltas << "\n"
            << "checkpoints " << stats_.checkpoints << "\n";
        return out.str();
    }
    if (text.rfind("tcd ", 0) == 0) {
        // "tcd BASE.KEY TARGET"
        std::string_view rest = text.substr(4);
        const auto space = rest.find(' ');
        if (space == std::string_view::npos) {
            ok = false;
            return "malformed tcd query (want: tcd BASE.KEY TARGET)";
        }
        const std::string_view arg = rest.substr(0, space);
        double target = 0;
        if (!host::parse_f64(rest.substr(space + 1), target) ||
            target <= 0) {
            ok = false;
            return "malformed tcd target (want a positive number)";
        }
        const auto dot = arg.find('.');
        if (dot == std::string_view::npos) {
            ok = false;
            return "malformed tcd space (want BASE.KEY)";
        }
        const auto* in = published->state.report.find_input(
            std::string(arg.substr(0, dot)),
            std::string(arg.substr(dot + 1)));
        if (!in) {
            ok = false;
            return "no input space " + std::string(arg);
        }
        char line[160];
        std::snprintf(line, sizeof line, "TCD(%.*s, target=%g) = %.4f\n",
                      static_cast<int>(arg.size()), arg.data(), target,
                      core::tcd_uniform(in->hist, target));
        return line;
    }
    ok = false;
    return "unknown query '" + std::string(text) +
           "' (want: report | gaps | tcd BASE.KEY TARGET | status | ping)";
}

void Server::respond(int fd, std::string frame_bytes) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    it->second.out += frame_bytes;
    conn_writable(fd);
}

void Server::conn_writable(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    bool want_out = false;
    while (conn.out_off < conn.out.size()) {
        const ssize_t n = send_checked(fd, conn.out.data() + conn.out_off,
                                       conn.out.size() - conn.out_off);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
                      || errno == EWOULDBLOCK
#endif
                      )) {
            want_out = true;
            break;
        }
        if (n < 0 && errno == EINTR) continue;
        // EPIPE/ECONNRESET (or injected): the client went away; with
        // SIGPIPE ignored this is a clean structured drop, never a
        // daemon death.
        ++stats_.sock_errors;
        diags_.record(0, 0,
                      std::string("sock-write: ") + std::strerror(errno));
        drop_conn(fd);
        return;
    }
    if (conn.out_off >= conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void Server::drop_conn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(it);
}

void Server::after_accepted_push() {
    ++pushes_since_delta_;
    ++pushes_since_checkpoint_;
    if (!opts_.delta_dir.empty() && opts_.delta_every > 0 &&
        pushes_since_delta_ >= opts_.delta_every)
        emit_delta();
    if (!opts_.checkpoint_path.empty() &&
        pushes_since_checkpoint_ >= opts_.checkpoint_every) {
        pushes_since_checkpoint_ = 0;
        write_checkpoint();
    }
}

void Server::emit_delta() {
    pushes_since_delta_ = 0;
    std::uint64_t pushes = 0;
    auto delta = live_.take_delta(&pushes);
    if (pushes == 0) return;
    delta.label = opts_.delta_label;
    delta.timestamp = static_cast<std::uint64_t>(::time(nullptr));
    char name[64];
    std::snprintf(name, sizeof name, "/delta-%012" PRIu64 ".iocs",
                  live_.epoch());
    const std::string path = opts_.delta_dir + name;
    core::SnapshotError err;
    if (!core::save_snapshot_file(path, delta, &err)) {
        diags_.record(0, 0, path + ": " + err.to_string());
        return;
    }
    ++stats_.deltas;
}

void Server::write_checkpoint() {
    core::Checkpoint cp;
    cp.mode = core::CheckpointMode::Serve;
    cp.consumed = live_.consumed();
    cp.rejected = stats_.pushes_rejected;
    cp.bytes = stats_.shard_bytes;
    cp.diags = diags_;
    // A block folds at least one push; before the first there is none.
    if (!cp.consumed.empty())
        cp.blocks.push_back({static_cast<std::uint64_t>(cp.consumed.size()),
                             live_.read()->state});
    core::SnapshotError err;
    if (!core::save_checkpoint_file(opts_.checkpoint_path, cp, &err)) {
        diags_.record(0, 0,
                      opts_.checkpoint_path + ": " + err.to_string());
        return;
    }
    ++stats_.checkpoints;
}

void Server::finalize() {
    if (!opts_.delta_dir.empty()) emit_delta();
    // Unlike merge/analyze, the manifest is NOT removed on a graceful
    // stop: the daemon's state dies with the process, and the manifest
    // is what lets the next `iocov serve --resume` continue the fleet's
    // coverage where this run left it.
    if (!opts_.checkpoint_path.empty()) write_checkpoint();
}

}  // namespace iocov::serve
