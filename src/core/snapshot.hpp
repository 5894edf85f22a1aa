// IOCS — the compact binary coverage-snapshot format, and the fleet
// aggregation built on it.
//
// The paper's premise is fleet-scale measurement: coverage must be
// combined across many machines and many runs.  Re-ingesting raw
// traces to answer every aggregate query costs minutes of decode per
// billion events even at the hardware-bound IOCT rate; an IOCovSnapshot
// makes the *analyzer state itself* the artifact, so aggregation cost
// scales with the number of snapshots, not the number of events.
//
// A snapshot is the full mergeable state of one IOCov: the
// CoverageReport (every partition histogram with its declared-block
// boundary, so merge behavior survives a round trip bit-identically),
// the filtered/dropped counters, cumulative IngestStats, and two
// provenance fields (`label`, `timestamp`) that `iocov trend` slices
// on.  Every field is an integer, a histogram or a string, so merge()
// is exact: associative and commutative, merge(ingest(A), ingest(B))
// == ingest(A+B), and a directory of snapshots folds in any order and
// grouping on any thread count to the same bytes.
//
// File layout: the sealed record container (DESIGN.md §6.0: 16-byte
// header, u32-length-prefixed tagged records, a FOOTER checksummed
// over every byte before it) with magic "IOCS" and these tags (full
// spec in DESIGN.md §10.1):
//
//       0x01 STR     the container's string table
//       0x02 META    varint counters (events seen/tracked, filtered,
//                    dropped, ingest stats), 8 reserved bytes (written
//                    0, ignored on read), label string-id, timestamp
//       0x03 INPUT   one ArgCoverage: base-id, key-id, class byte, then
//                    the four histograms (hist, combo, combo_rdonly,
//                    pairs), each as varint row/declared counts +
//                    (label-id, count) varint pairs
//       0x04 OUTPUT  one OutputCoverage: base-id, success-kind byte,
//                    one histogram
//       0x05 FOOTER  sealed: input and output space counts
//
// Unlike IOCT (a stream where every intact prefix record is useful), a
// snapshot is a *state*: loading half of one would silently undercount
// coverage.  A torn or bit-flipped file therefore never loads — the
// footer checksum turns any truncation or corruption into a structured
// SnapshotError instead of partial state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/coverage.hpp"
#include "core/iocov.hpp"
#include "trace/diagnostics.hpp"

namespace iocov::core {

// ---- format constants ------------------------------------------------------

inline constexpr char kIocsMagic[4] = {'I', 'O', 'C', 'S'};
inline constexpr std::uint8_t kIocsVersion = 1;
inline constexpr std::size_t kIocsHeaderSize = 16;

enum class IocsTag : std::uint8_t {
    Str = 0x01,
    Meta = 0x02,
    Input = 0x03,
    Output = 0x04,
    Footer = 0x05,
};

/// The version byte of an IOCS header, or nullopt when `data` does not
/// start with the magic: callers can tell "a snapshot this build cannot
/// read" (structured version diagnostic) apart from "not a snapshot".
std::optional<std::uint8_t> iocs_version(std::string_view data);

// ---- snapshot value --------------------------------------------------------

/// Serializable, mergeable coverage state: everything one IOCov has
/// learned, plus provenance for fleet slicing.
struct IOCovSnapshot {
    CoverageReport report;
    std::uint64_t filtered_out = 0;  ///< events rejected by the filter
    std::uint64_t dropped = 0;       ///< inputs dropped during ingest
    IngestStats ingest;              ///< cumulative ingest statistics
    /// Free-form provenance tag (suite, host, tenant); `iocov trend
    /// --by-label` groups on it.  Never interpreted by merge().
    std::string label;
    /// Unix seconds of capture (0 = unset); `iocov trend --window`
    /// buckets on it.  merge() keeps the maximum (latest capture wins).
    std::uint64_t timestamp = 0;

    /// Exact associative + commutative fold: histograms merge row-wise
    /// (canonical order), counters add, `threads` and timestamp keep
    /// the max, and a label is kept only while all merged inputs agree
    /// on it (mixed labels collapse to "" rather than invent an
    /// ordering).  Not a monoid with IOCovSnapshot{} as identity:
    /// merging the empty snapshot clears a label and raises `threads`
    /// to 1, so folds seed from their first input.
    void merge(const IOCovSnapshot& other);

    friend bool operator==(const IOCovSnapshot&,
                           const IOCovSnapshot&) = default;
};

// ---- encode / decode -------------------------------------------------------

/// Serializes a snapshot (header + records + footer).  Deterministic:
/// the same snapshot value always encodes to the same bytes, so
/// "byte-identical output at any thread count" reduces to "same merged
/// snapshot value".
std::string encode_snapshot(const IOCovSnapshot& snapshot);

/// Why a snapshot failed to load, machine-readable.
struct SnapshotError {
    enum class Kind : std::uint8_t {
        NotIocs,      ///< magic mismatch — not a snapshot file at all
        VersionSkew,  ///< IOCS magic, but a version this build can't read
        Torn,         ///< truncated: missing/incomplete footer
        Corrupt,      ///< structural damage (checksum, bad record, ...)
        Io,           ///< host I/O failure (open/read/write/sync/rename)
        Mismatch,     ///< a manifest of another walk (mode or inputs)
    };
    Kind kind = Kind::Corrupt;
    std::uint64_t offset = 0;    ///< byte offset of the failure
    std::string reason;          ///< stable human-readable cause
    std::uint8_t found_version = 0;  ///< set for VersionSkew
    int io_errno = 0;                ///< set for Io: the failing errno

    /// One-line diagnostic ("snapshot version skew: file is v3, ...").
    std::string to_string() const;
};

/// Decodes a full snapshot.  All-or-nothing: returns nullopt (with
/// *err filled when non-null) on any damage — a snapshot is state, not
/// a stream, so there is no partial-prefix recovery.  Round trip is
/// bit-identical: decode(encode(s)) == s and re-encoding the result
/// reproduces the input bytes.
std::optional<IOCovSnapshot> decode_snapshot(std::string_view data,
                                             SnapshotError* err = nullptr);

/// Writes encode_snapshot(snapshot) to `path` *durably and
/// atomically* (host::write_file_atomic: temp file alongside, full
/// write, fsync, rename, directory fsync).  On failure the previous
/// contents of `path` — if any — are untouched, and `*err` (when
/// non-null) carries Kind::Io with the failing errno and phase in
/// `reason`.  A crash at any instant leaves either the old complete
/// snapshot or the new complete snapshot, never a torn file.
bool save_snapshot_file(const std::string& path,
                        const IOCovSnapshot& snapshot,
                        SnapshotError* err = nullptr);

/// Maps and decodes `path`.  nullopt on open failure (err.kind Io,
/// reason "cannot open file: <phase> <strerror>", io_errno set) or any
/// decode failure.
std::optional<IOCovSnapshot> load_snapshot_file(const std::string& path,
                                                SnapshotError* err = nullptr);

// ---- directory loading + merge ---------------------------------------------

/// One snapshot loaded from a directory entry, keyed by file name.
struct NamedSnapshot {
    std::string name;  ///< file name (not path) — the deterministic key
    IOCovSnapshot snapshot;
};

/// Result of enumerating + loading a snapshot directory.
struct SnapshotDirLoad {
    /// Successfully loaded snapshots, sorted by file name.
    std::vector<NamedSnapshot> snapshots;
    /// Entries that were not loadable snapshots (foreign files, version
    /// skew, torn/corrupt), one diagnostic each; feeds --max-errors.
    std::size_t rejected = 0;
    trace::ParseDiagnostics diags;
    std::uint64_t bytes = 0;  ///< bytes of snapshots loaded
};

/// Loads every regular `.iocs`-decodable file in `dir` (sorted by
/// name; not recursive) onto a work-stealing pool weighted by file
/// size.  Every rejected entry gets a per-file structured diagnostic —
/// a fleet drop-box routinely holds READMEs and half-written uploads,
/// so foreign files are counted, not fatal.  Returns nullopt when
/// `dir` cannot be enumerated.  Deterministic at any `n_threads`
/// (0 = hardware concurrency, 1 = serial).
std::optional<SnapshotDirLoad> load_snapshot_dir(const std::string& dir,
                                                 unsigned n_threads = 1);

/// Folds `snapshots` into one.  merge() is exact, so the result does
/// not depend on order, grouping or `n_threads` (0 = hardware
/// concurrency): each lane folds a contiguous chunk, then the lane
/// partials fold.  Every fold is seeded from its first input, because
/// IOCovSnapshot{} is not an identity.  Canonical histogram row order
/// then makes the encoding byte-identical at any thread count, which
/// the golden tests assert.  Returns an empty snapshot for no input.
IOCovSnapshot merge_snapshots(std::vector<NamedSnapshot> snapshots,
                              unsigned n_threads = 1);

/// Deterministic JSON summary of a merged fleet snapshot (stable key
/// order, fixed float formatting): the `snapshots` merged and the
/// `rejected` input count, plus per-space declared/tested/coverage
/// rows.  Byte-identical across reruns and thread counts for the same
/// directory.
std::string merge_summary_json(std::size_t snapshots, std::size_t rejected,
                               const IOCovSnapshot& merged);

}  // namespace iocov::core
