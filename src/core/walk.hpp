// The one walk over many inputs, behind `iocov analyze DIR/`, `iocov
// merge` and `iocov trend`: file arguments in argument order, each
// directory's regular files sorted by name, each entry's body run on a
// work-stealing pool and folded in walk order.  --checkpoint cuts the
// same walk into segments and writes the fold state as an IOCK
// manifest (core/checkpoint.hpp) after each segment but the last; a
// resumed walk restores it and runs the rest.  Every fold is exact and
// in walk order, so where the walk is cut does not change the result.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/iocov.hpp"
#include "core/snapshot.hpp"

namespace iocov::core {

/// One input of a walk.
struct WalkEntry {
    std::string path;         ///< what to open; the manifest key
    std::string name;         ///< diagnostic label: a directory entry's
                              ///< file name, else the argument
    std::uint64_t bytes = 0;  ///< file size: the scheduling weight
};

/// Expands `inputs` into the walk (not recursive).  nullopt, with the
/// input in *failed when non-null, if a directory cannot be enumerated.
std::optional<std::vector<WalkEntry>> list_inputs(
    const std::vector<std::string>& inputs, std::string* failed = nullptr);

/// Loads each entry's snapshot (`n_threads` 0 = hardware concurrency).
/// An entry that does not load is rejected with one "<name>: <reason>"
/// diagnostic, recorded in walk order.
SnapshotDirLoad load_snapshots(std::span<const WalkEntry> entries,
                               unsigned n_threads = 1);

/// How a walk checkpoints; the default is one segment, no manifest.
struct Checkpointing {
    std::string path;         ///< IOCK manifest; empty = none
    std::uint64_t every = 8;  ///< entries per segment (0 acts as 1)
    bool resume = false;      ///< continue from `path` if it exists
};

/// The analyze walk: each entry is one IOCT file, analyzed on a fresh
/// IOCov (detail::ShardDriver) and folded into `into` with its
/// diagnostics labelled "<name>: ".  The manifest holds `into`'s whole
/// state, so a checkpointed `into` must start fresh.  The counts cover
/// the whole walk; DirIngest::resumed is the part a resume restored.
/// nullopt with *err if the manifest cannot be loaded or written, or
/// belongs to another walk (SnapshotError::Kind::Mismatch).
std::optional<IOCov::DirIngest> analyze_walk(
    IOCov& into, std::span<const WalkEntry> entries, unsigned n_threads,
    const Checkpointing& checkpointing = {}, SnapshotError* err = nullptr);

/// The merge walk: loads every entry's snapshot and folds them into
/// one.  Returns the final fold state in the manifest's shape: at most
/// one block (the merge), the rejected count, the loaded bytes, and the
/// first retained diagnostics in walk order, listed by (line, offset).
/// Errors as for analyze_walk.
std::optional<Checkpoint> merge_walk(std::span<const WalkEntry> entries,
                                     unsigned n_threads,
                                     const Checkpointing& checkpointing = {},
                                     SnapshotError* err = nullptr);

}  // namespace iocov::core
