// IOCK — resumable-ingest checkpoint manifests.
//
// `iocov merge` and `iocov analyze DIR/` walk hundreds of inputs; a
// kill or fault mid-walk should not force re-reading everything.  A
// checkpoint captures the walk's full fold state every N inputs —
// which inputs are consumed, the reject/byte counters, the retained
// parse diagnostics, and the partial merge state itself — written
// atomically (host::write_file_atomic) so the manifest obeys the same
// durability contract as every other artifact: a crash leaves the
// previous complete manifest or the new complete one, never a torn
// file.
//
// IOCovSnapshot::merge is exact, so the partial state is one running
// accumulator and resuming from it is byte-identical to an
// uninterrupted run.  Writers store it as at most one BLOCK; resume
// folds every stored block, so older manifests that hold several
// blocks resume to the same bytes.
//
// File layout: the sealed record container (DESIGN.md §6.0) with magic
// "IOCK" and these tags (spec in DESIGN.md §12):
//
//       0x01 META    mode byte (1 = merge, 2 = analyze, 3 = serve),
//                    varint rejected count, input bytes, total
//                    diagnostics
//       0x02 NAME    one consumed input name, in processing order
//       0x03 DIAG    one retained diagnostic: varint line, offset,
//                    then length-prefixed reason and excerpt
//       0x04 BLOCK   partial merge state: varint leaf count, then a
//                    complete embedded IOCS snapshot
//       0x05 FOOTER  sealed: name/diag/block counts
//
// Like IOCS, a manifest is *state*: decode is all-or-nothing, and any
// truncation or bit flip surfaces as a structured SnapshotError rather
// than partial resume state (resuming from half a manifest would
// silently double-count inputs).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/snapshot.hpp"
#include "trace/diagnostics.hpp"

namespace iocov::core {

// ---- format constants ------------------------------------------------------

inline constexpr char kIockMagic[4] = {'I', 'O', 'C', 'K'};
inline constexpr std::uint8_t kIockVersion = 1;

enum class IockTag : std::uint8_t {
    Meta = 0x01,
    Name = 0x02,
    Diag = 0x03,
    Block = 0x04,
    Footer = 0x05,
};

/// Which walk produced the manifest; resume refuses a mode mismatch
/// (a merge manifest cannot seed an analyze walk).
enum class CheckpointMode : std::uint8_t {
    Merge = 1,
    Analyze = 2,
    /// `iocov serve` daemon state: `consumed` holds accepted shard
    /// names (push order), one block carries the full merged snapshot.
    Serve = 3,
};

// ---- checkpoint value ------------------------------------------------------

/// Partial merge state: the fold of `leaves` input snapshots.
struct MergeBlock {
    std::uint64_t leaves = 0;
    IOCovSnapshot snapshot;

    /// Folds `other` in.  A block with no leaves holds nothing: it is
    /// skipped, and an empty block takes `other` whole, so every fold
    /// is seeded from its first input (IOCovSnapshot{} is not a merge
    /// identity).
    void absorb(MergeBlock other);

    friend bool operator==(const MergeBlock&, const MergeBlock&) = default;
};

/// Full resumable state of one ingest/merge walk.
struct Checkpoint {
    CheckpointMode mode = CheckpointMode::Merge;
    /// Names of inputs fully consumed (or rejected), in processing
    /// order.  Resume requires this to be a prefix of the current
    /// input list — anything else means the directory changed.
    std::vector<std::string> consumed;
    std::uint64_t rejected = 0;  ///< inputs diagnosed + skipped so far
    std::uint64_t bytes = 0;     ///< input bytes consumed so far
    trace::ParseDiagnostics diags;
    /// Partial merge state.  Writers store at most one block; resume
    /// absorbs every block, in any order.
    std::vector<MergeBlock> blocks;
};

// ---- encode / decode -------------------------------------------------------

/// Serializes a checkpoint (header + records + footer).  Deterministic
/// for a given value.
std::string encode_checkpoint(const Checkpoint& cp);

/// Decodes a full manifest.  All-or-nothing: nullopt (with *err filled
/// when non-null) on any damage.  Reuses SnapshotError — embedded IOCS
/// block failures surface with their own kind, envelope damage as
/// Torn/Corrupt with checkpoint-specific reasons.
std::optional<Checkpoint> decode_checkpoint(std::string_view data,
                                            SnapshotError* err = nullptr);

/// Writes encode_checkpoint(cp) to `path` durably and atomically; on
/// failure the previous manifest (if any) is untouched and *err (when
/// non-null) carries Kind::Io.
bool save_checkpoint_file(const std::string& path, const Checkpoint& cp,
                          SnapshotError* err = nullptr);

/// Maps and decodes `path`; nullopt on open or decode failure.
std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               SnapshotError* err = nullptr);

/// The one resume loader, shared by the analyze and merge walks
/// (core/walk.hpp) and `iocov serve`.  A missing manifest is a fresh
/// start: an empty Checkpoint of `mode`.  A manifest written in
/// another mode fails with Kind::Mismatch.  Every stored block folds
/// into one, so `blocks` holds at most one.  nullopt (with *err filled
/// when non-null) on any failure.  Whether `consumed` matches the
/// current inputs is the caller's check.
std::optional<Checkpoint> resume_checkpoint(const std::string& path,
                                            CheckpointMode mode,
                                            SnapshotError* err = nullptr);

}  // namespace iocov::core
