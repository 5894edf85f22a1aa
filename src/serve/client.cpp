#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "trace/detail/wire.hpp"

namespace iocov::serve {
namespace {

/// Errnos that mean "the daemon is not up *yet*" — worth retrying
/// inside the connect deadline.
bool connect_retryable(int err) {
    return err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
           err == EINTR;
}

int try_connect_once(const Endpoint& ep, int& err_out) {
    int fd = -1;
    if (!ep.unix_path.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (ep.unix_path.size() >= sizeof addr.sun_path) {
            err_out = ENAMETOOLONG;
            return -1;
        }
        std::memcpy(addr.sun_path, ep.unix_path.c_str(),
                    ep.unix_path.size() + 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            err_out = errno;
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) == 0)
            return fd;
    } else {
        fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            err_out = errno;
            return -1;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(ep.tcp_port));
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) == 0)
            return fd;
    }
    err_out = errno;
    ::close(fd);
    return -1;
}

/// Bounds every send/recv on the connected socket by the caller's
/// deadline.  Without this a daemon that accepts but never answers
/// (wedged, SIGSTOPped, or a missed wakeup) would hang the client
/// forever — the timeout surfaces as EAGAIN, which the host retry
/// policy treats as transient a bounded number of times and then
/// returns as a structured IoError.
void bound_socket_io(int fd, int deadline_ms) {
    if (deadline_ms <= 0) deadline_ms = 1;
    timeval tv{};
    tv.tv_sec = deadline_ms / 1000;
    tv.tv_usec = (deadline_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

std::string endpoint_label(const Endpoint& ep) {
    return ep.unix_path.empty()
               ? "127.0.0.1:" + std::to_string(ep.tcp_port)
               : ep.unix_path;
}

}  // namespace

std::optional<Client> Client::connect(const Endpoint& ep, int deadline_ms,
                                      host::IoError* err) {
    host::ignore_sigpipe();
    int last_errno = EINVAL;
    if (ep.unix_path.empty() && ep.tcp_port < 0) {
        if (err)
            *err = host::IoError{host::IoPhase::Open, EINVAL,
                                 "no endpoint"};
        return std::nullopt;
    }
    int waited_ms = 0;
    for (;;) {
        const int fd = try_connect_once(ep, last_errno);
        if (fd >= 0) {
            bound_socket_io(fd, deadline_ms);
            return Client(fd);
        }
        if (!connect_retryable(last_errno) || waited_ms >= deadline_ms)
            break;
        timespec ts{0, 20 * 1'000'000};
        ::nanosleep(&ts, nullptr);
        waited_ms += 20;
    }
    if (err)
        *err = host::IoError{host::IoPhase::Open, last_errno,
                             endpoint_label(ep)};
    return std::nullopt;
}

Client& Client::operator=(Client&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

Client::~Client() {
    if (fd_ >= 0) ::close(fd_);
}

std::optional<Reply> Client::roundtrip(std::string frame_bytes,
                                       host::IoError* err) {
    if (auto e = host::write_fd(fd_, frame_bytes, host::IoPhase::SockWrite,
                                host::RetryPolicy::standard(), "serve")) {
        if (err) *err = *e;
        return std::nullopt;
    }
    // Read exactly one response frame: length prefix, then payload.
    std::string head;
    if (auto e = host::read_fd(fd_, 4, head, host::IoPhase::SockRead,
                               host::RetryPolicy::standard(), "serve")) {
        if (err) *err = *e;
        return std::nullopt;
    }
    FrameDecoder decoder;
    decoder.feed(head);
    const std::uint32_t len = trace::detail::read_u32le(head.data());
    if (len == 0 || len > kMaxFramePayload) {
        if (err)
            *err = host::IoError{host::IoPhase::SockRead, EPROTO, "serve"};
        return std::nullopt;
    }
    std::string payload;
    if (auto e = host::read_fd(fd_, len, payload, host::IoPhase::SockRead,
                               host::RetryPolicy::standard(), "serve")) {
        if (err) *err = *e;  // err == 0 here means a torn response
        return std::nullopt;
    }
    decoder.feed(payload);
    Frame frame;
    if (decoder.next(frame) != FrameDecoder::Status::Frame) {
        if (err)
            *err = host::IoError{host::IoPhase::SockRead, EPROTO, "serve"};
        return std::nullopt;
    }
    Reply reply;
    if (frame.tag == MsgTag::Ok) {
        std::string_view text;
        if (!decode_ok(frame.body, reply.epoch, text)) {
            if (err)
                *err = host::IoError{host::IoPhase::SockRead, EPROTO,
                                     "serve"};
            return std::nullopt;
        }
        reply.ok = true;
        reply.text.assign(text);
    } else if (frame.tag == MsgTag::Err) {
        reply.ok = false;
        reply.text = std::move(frame.body);
    } else {
        if (err)
            *err = host::IoError{host::IoPhase::SockRead, EPROTO, "serve"};
        return std::nullopt;
    }
    return reply;
}

std::optional<Reply> Client::push(std::string_view name,
                                  std::string_view shard,
                                  host::IoError* err) {
    return roundtrip(encode_push(name, shard), err);
}

std::optional<Reply> Client::query(std::string_view text,
                                   host::IoError* err) {
    return roundtrip(encode_query(text), err);
}

std::optional<Reply> Client::stop(host::IoError* err) {
    return roundtrip(encode_stop(), err);
}

}  // namespace iocov::serve
