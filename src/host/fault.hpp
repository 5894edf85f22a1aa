// Self-fault injection for the host I/O layer — eating our own dogfood.
//
// vfs/fault.hpp injects errnos into the *simulated* file system so
// testers can cover hard-to-reach error outputs.  FaultHook does the
// same to iocov's own host I/O, so a chaos harness can make the tool's
// own writes fail with ENOSPC/EIO, come up short, get interrupted with
// EINTR, or SIGKILL the process at an exact operation — and then assert
// the durability oracle on what is left on disk.
//
// Every host syscall iocov makes on its own files and sockets goes
// through one primitive pair at the bottom of this header:
//
//   hooked(phase, call)                    one attempt: count the op
//                                          under `phase`, fail it with
//                                          an injected errno, otherwise
//                                          run call(action)
//   retried(phase, policy, retries, call)  hooked() plus the bounded
//                                          transient-errno loop with
//                                          Backoff under RetryPolicy
//
// The call receives the armed Action and applies the clauses that
// belong to its syscall (a shortened write, an eof read, the torn-write
// kill); everything else about injection and retry lives here once.
// host/io.cpp (AtomicWriter, write_fd, read_fd), MappedFile::open and
// the serve daemon's accept/recv/send are the callers.
//
// Configuration is process-global (host I/O is a process-wide
// resource): the `IOCOV_SELF_FAULT` environment variable or the hidden
// `--self-fault` CLI flag, a comma-separated clause list:
//
//   errno:<phase|any>:<ERRNO>:<k>   k-th matching op fails with ERRNO;
//                                   k == 0 means *every* matching op
//   short:<k>                       k-th write() writes only half its
//                                   bytes (short-write path exercise)
//   eof:<k>                         k-th read() returns 0 — simulates
//                                   the file shrinking mid-read
//   kill:<phase|any>:<k>            raise(SIGKILL) immediately before
//                                   the k-th matching op
//   kill:write:<k>:<off>            k-th write() persists `off` bytes,
//                                   then SIGKILL — a torn host write
//   stats:<path>                    at process exit, write per-phase op
//                                   counts (for probing the op space)
//
// Phases are the IoPhase names from host/io.hpp ("temp-create",
// "write", "sync", "close", "rename", "dir-open", "dirsync", "open",
// "stat", "read", "accept", "sock-read", "sock-write") or "any".
// ERRNO is a symbolic name (ENOSPC, EIO, EINTR, EAGAIN, ENOMEM,
// EDQUOT, EROFS, ENOENT, EACCES, EBADF, EFBIG, EMFILE, ENFILE, EPERM,
// and the socket family EPIPE, ECONNRESET, ECONNABORTED,
// ECONNREFUSED, ENOTCONN, ETIMEDOUT) or a plain decimal errno value.  Injected
// errnos are indistinguishable from real ones: a clause firing EINTR is
// retried by the normal retry policy, ENOSPC aborts the write with a
// structured IoError, exactly as the kernel's would.
//
// Counting is per-clause: each clause keeps its own count of matching
// ops, so `errno:write:ENOSPC:3,errno:sync:EIO:1` arms two independent
// faults.  All state sits behind one mutex; the inactive fast path is a
// single relaxed atomic load.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "host/io.hpp"

namespace iocov::host {

class FaultHook {
  public:
    /// What the hooked primitive should do for the op it is about to
    /// perform.  Fields compose: a kill action overrides the rest.
    struct Action {
        int inject_errno = 0;  ///< fail with this errno (0 = no fault)
        bool shorten = false;  ///< halve this write (short-write clause)
        bool eof = false;   ///< make read() return 0 ("file shrank")
        bool kill = false;  ///< raise(SIGKILL) — before the op, or ...
        /// ... for writes: after persisting this many bytes (SIZE_MAX =
        /// before any byte).
        std::size_t kill_after_bytes = SIZE_MAX;
    };

    /// True once any clause is configured; the only check on the fast
    /// path when no self-fault run is active.
    static bool active();

    /// Counts the op and returns the armed action, firing (and
    /// consuming) any one-shot clause whose count matched.  When
    /// `Action::kill` is set without kill_after_bytes the caller is
    /// expected to not return (consult() already raised SIGKILL for
    /// non-write phases; write handles the partial-then-kill case).
    static Action consult(IoPhase phase);

    /// Parses and installs `spec` (clauses accumulate onto whatever is
    /// already configured).  Returns an error message on a malformed
    /// spec, nullopt on success.
    static std::optional<std::string> configure(std::string_view spec);

    /// Installs IOCOV_SELF_FAULT if set; exits the process with a
    /// message on stderr if the env spec is malformed.  Idempotent —
    /// the env is read at most once per process.
    static void configure_from_env();

    /// Drops every clause and counter (tests).
    static void reset();

    /// Ops consulted so far, total and per phase.
    static std::uint64_t total_ops();
    static std::uint64_t ops(IoPhase phase);
    /// Called by the write primitive (only while active) with the
    /// payload bytes handed to write(), so the stats probe can report
    /// the torn-write offset space.
    static void note_write_bytes(std::uint64_t n);
};

/// Parses a symbolic ("ENOSPC") or decimal errno; 0 on failure.
int parse_errno_name(std::string_view name);

// ---- the one hooked syscall ------------------------------------------------

/// One attempt of a host syscall.  While a self-fault run is active the
/// op is counted under `phase`, and an armed errno fails it (errno set,
/// -1 returned) without calling the kernel — unless an eof or a torn-
/// write kill fired on the same op: those outrank the errno and are the
/// call's to apply.  Otherwise returns `call(action)`, which makes the
/// syscall and returns its result (-1 with errno set on failure).
template <class Call>
auto hooked(IoPhase phase, Call&& call) {
    FaultHook::Action action;
    if (FaultHook::active()) {
        action = FaultHook::consult(phase);
        if (action.inject_errno && !action.eof && !action.kill) {
            errno = action.inject_errno;
            return decltype(call(action)){-1};
        }
    }
    return call(action);
}

/// hooked() in a loop: an attempt that fails with a transient errno
/// (EINTR, EAGAIN) is retried after a Backoff wait until one succeeds,
/// one fails otherwise, or `retries` reaches `policy.max_retries`.
/// `retries` is the caller's count: the full-write and full-read loops
/// pass the same one to every chunk's call, so the bound covers the
/// whole operation.  Returns the last attempt's result.
template <class Call>
auto retried(IoPhase phase, const RetryPolicy& policy, unsigned& retries,
             Call&& call) {
    Backoff backoff(policy);
    for (;;) {
        const auto rc = hooked(phase, call);
        if (rc >= 0 || !transient_errno(errno) ||
            retries >= policy.max_retries)
            return rc;
        ++retries;
        backoff.wait(errno);
    }
}

}  // namespace iocov::host
