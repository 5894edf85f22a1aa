// Durable host I/O: the layer iocov trusts with its *own* artifacts.
//
// The paper's thesis — coverage must include environmental failure
// inputs (errnos) and failure outputs — applies to this tool as much as
// to the file systems it measures.  Every artifact iocov emits (IOCS
// snapshots, saved reports, JSON summaries, converted traces,
// checkpoint manifests) used to be written with a bare truncating
// ofstream: a SIGKILL or ENOSPC mid-write destroyed the previous good
// artifact and could leave a torn file nothing detected.  host::io is
// the fix, and the contract the chaos gate (scripts/check_chaos.sh)
// enforces:
//
//   At every instant, an artifact path holds either the prior complete
//   artifact or the new complete artifact — never a torn one.
//
// The mechanism is the classic all-or-nothing sequence: write the new
// bytes to a temp file *in the destination directory*, fsync the file,
// rename() over the destination, fsync the directory.  Every step
// consults host::FaultHook (host/fault.hpp) so the tool's own failure
// handling is testable the same way it tests everyone else's, and every
// transient errno (EINTR, EAGAIN) is retried under a bounded backoff
// policy instead of aborting the write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace iocov::host {

// ---- phases ----------------------------------------------------------------

/// Which host-I/O step an operation (or a failure) belongs to.  This is
/// both the error taxonomy (IoError::phase) and the fault-hook match
/// key (`IOCOV_SELF_FAULT="errno:rename:ENOSPC:1"`).
enum class IoPhase : std::uint8_t {
    TempCreate,  ///< creating the temp file next to the destination
    Write,       ///< write()ing payload bytes
    Sync,        ///< fsync() of the temp file
    Close,       ///< close() of the temp file
    Rename,      ///< rename() over the destination
    DirOpen,     ///< opening the destination directory for fsync
    DirSync,     ///< fsync() of the destination directory
    Open,        ///< opening a file for reading
    Stat,        ///< fstat() of an opened file
    Read,        ///< read()ing file bytes (mmap-fallback path)
    Accept,      ///< accept()ing a serve connection
    SockRead,    ///< recv()/read() on a socket or pipe
    SockWrite,   ///< send()/write() on a socket or pipe
};

/// Stable lower-case name ("temp-create", "write", "dirsync", ...).
std::string_view phase_name(IoPhase phase);

/// Inverse of phase_name; nullopt for unknown names.
std::optional<IoPhase> phase_from_name(std::string_view name);

// ---- errors ----------------------------------------------------------------

/// A structured host-I/O failure: which step failed, with which errno,
/// on which path — replacing the bare `bool`/unchecked-stream results
/// the write paths used to return.
struct IoError {
    IoPhase phase = IoPhase::Open;
    int err = 0;        ///< errno value at the point of failure
    std::string path;   ///< the artifact (not temp-file) path
    unsigned retries = 0;  ///< transient retries consumed before giving up

    /// "write out.iocs: No space left on device (ENOSPC, write phase)".
    std::string to_string() const;
};

/// nullopt == success; the error otherwise.
using IoStatus = std::optional<IoError>;

// ---- retry policy ----------------------------------------------------------

/// Bounded retry/backoff for transient errnos.  EINTR retries
/// immediately (the syscall was merely interrupted); EAGAIN/EWOULDBLOCK
/// sleeps `backoff_initial_us`, doubling per retry up to `backoff_cap_us`.
/// `max_retries` bounds the total transient retries of one logical
/// operation, so a persistently-failing fd cannot spin forever.
struct RetryPolicy {
    unsigned max_retries = 8;
    std::uint32_t backoff_initial_us = 50;
    std::uint32_t backoff_cap_us = 20'000;

    static RetryPolicy none() { return {0, 0, 0}; }
    /// Default policy; `IOCOV_IO_RETRIES` (an integer) overrides
    /// max_retries for the whole process (the "configurable cap").
    static RetryPolicy standard();
};

/// True for errnos worth retrying (EINTR, EAGAIN/EWOULDBLOCK).
bool transient_errno(int err);

/// Backoff state for one run of retries (host::retried in
/// host/fault.hpp): EINTR retries immediately (the op was interrupted,
/// not refused); any other transient errno sleeps, doubling up to the
/// cap.
struct Backoff {
    explicit Backoff(const RetryPolicy& p)
        : policy(p), next_us(p.backoff_initial_us) {}

    void wait(int err);

    const RetryPolicy& policy;
    std::uint32_t next_us;
};

// ---- atomic writer ---------------------------------------------------------

struct WriteOptions {
    RetryPolicy retry = RetryPolicy::standard();
    /// When true (the default, and what every CLI artifact uses), the
    /// temp file is fsync'd before rename and the directory after, so
    /// the replace survives power loss.  false keeps the atomic
    /// temp+rename shape without the syncs (crash-during-process-life
    /// safety only) — for tests that sweep the non-durable shape.
    bool durable = true;
    unsigned mode = 0644;  ///< permission bits for a newly created file
};

/// Streaming all-or-nothing file replace.  Usage:
///
///   AtomicWriter w;
///   if (auto e = w.open(path)) return *e;
///   if (auto e = w.write(chunk)) return *e;   // repeat as needed
///   if (auto e = w.commit()) return *e;       // sync + rename + dirsync
///
/// Until commit() returns success the destination is untouched; an
/// uncommitted writer unlinks its temp file on destruction (or abort()),
/// so a failed write never leaves debris that a later directory scan
/// would trip over.
class AtomicWriter {
  public:
    AtomicWriter() = default;
    ~AtomicWriter();
    AtomicWriter(const AtomicWriter&) = delete;
    AtomicWriter& operator=(const AtomicWriter&) = delete;

    /// Creates the temp file next to `path`.  Phase TempCreate.
    IoStatus open(std::string path, WriteOptions opts = {});

    /// Appends `bytes`, looping over short writes, retrying transient
    /// errnos per the policy.  Phase Write.
    IoStatus write(std::string_view bytes);

    /// fsync(file) + close + rename + fsync(dir).  After success the
    /// destination holds the new artifact durably.  A DirSync failure
    /// is reported even though the rename already happened: the content
    /// is in place but its durability is not guaranteed.
    IoStatus commit();

    /// Unlinks the temp file if not yet committed.  Idempotent.
    void abort();

    bool committed() const { return committed_; }
    const std::string& temp_path() const { return temp_path_; }

  private:
    IoStatus fail(IoPhase phase, int err, unsigned retries = 0);

    std::string path_;
    std::string temp_path_;
    WriteOptions opts_;
    int fd_ = -1;
    bool committed_ = false;
};

/// One-shot convenience over AtomicWriter: atomically (and, by default,
/// durably) replaces `path` with `bytes`.
IoStatus write_file_atomic(const std::string& path, std::string_view bytes,
                           const WriteOptions& opts = {});

// ---- fds, pipes, sockets ---------------------------------------------------

/// Ignores SIGPIPE process-wide (idempotent).  Without this a consumer
/// closing the read end of a pipe (`iocov analyze ... | head`) or a
/// serve client disconnecting mid-response kills the process outright,
/// skipping every cleanup path; with it the write fails with EPIPE and
/// surfaces as a structured IoError like any other host-I/O failure.
void ignore_sigpipe();

/// Full write of `bytes` to a blocking fd (pipe, socket, plain file),
/// looping over short writes, retrying transient errnos per the policy,
/// consulting FaultHook under `phase` per write() call.  `label` names
/// the peer in IoError::path (there is no filesystem path).  A write()
/// that returns 0 is a torn write (err 0) — or, with `zero_is_enospc`
/// (AtomicWriter's rule), retried without backoff and then ENOSPC.
/// This is also AtomicWriter::write's loop, so it applies the short
/// and torn-write (`kill:write:K:OFF`) clauses.
IoStatus write_fd(int fd, std::string_view bytes,
                  IoPhase phase = IoPhase::SockWrite,
                  const RetryPolicy& policy = RetryPolicy::standard(),
                  std::string_view label = "fd",
                  bool zero_is_enospc = false);

/// Full read of exactly `want` bytes from a blocking fd into `out`
/// (appended), at most `chunk` bytes per read() call.  Early EOF and
/// injected `eof` faults surface as an IoError with err == 0, `out`
/// holding the prefix that did arrive.  Phase SockRead unless
/// overridden.
IoStatus read_fd(int fd, std::size_t want, std::string& out,
                 IoPhase phase = IoPhase::SockRead,
                 const RetryPolicy& policy = RetryPolicy::standard(),
                 std::string_view label = "fd",
                 std::size_t chunk = std::size_t{1} << 16);

}  // namespace iocov::host
