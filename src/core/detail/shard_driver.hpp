// The one sharded ingest driver behind IOCov's parallel entry points
// (consume_binary_parallel: one item per pid class; consume_binary_files:
// one per file; consume_text_parallel: one per line chunk, then one per
// pid shard).  Internal, not public API; tests drive it directly to
// reach the isolation path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/iocov.hpp"
#include "core/walk.hpp"

namespace iocov::core::detail {

struct ShardDriver {
    struct Item {
        std::uint64_t weight = 0;  ///< scheduling weight (bytes, records)
        /// If the item is lost: the records counted as dropped, and where
        /// its "shard lost" diagnostic is recorded.
        std::uint64_t records = 0;
        std::uint64_t line = 0;
        std::uint64_t offset = 0;
        /// Non-empty: the item's diagnostics are re-keyed as
        /// "<label>: <reason>" and appended in item order; empty: they
        /// merge by input position.
        std::string label;
    };

    /// Ingests item `item` into the fresh `shard`; returns the records
    /// it dropped.  Runs concurrently with other items' bodies.
    using Body = std::function<std::size_t(std::size_t item, IOCov& shard)>;

    /// Called for a lost item, on its lane, with a copy of the item to
    /// complete: Item::records, line and offset, when counting them up
    /// front would cost a pass the body makes anyway.
    using Recount = std::function<void(std::size_t item, Item& lost)>;

    struct Run {
        std::size_t dropped = 0;  ///< records dropped by bodies and losses
        unsigned lanes = 1;       ///< lanes the items ran on
    };

    /// Runs body(i, shard) for every item, each on a fresh IOCov with
    /// `into`'s filter configuration and schema, so fd state never
    /// crosses items.  One lane (`n_threads` 1, or one item) runs the
    /// items inline in order; more run on a work-stealing pool weighted
    /// by Item::weight (`n_threads` 0 = hardware concurrency).  A body
    /// that throws loses its item: shards_lost() rises by one,
    /// Item::records (as `recount`, when given, completes them) count
    /// as dropped, and "shard lost: <what>" is recorded at
    /// Item::line/offset.  Only the fold's inputs (report,
    /// counters, diagnostics, dropped count) outlive an item; they fold
    /// into `into` in item order, through the same fold as
    /// IOCov::merge, so the result does not depend on scheduling.
    static Run run(IOCov& into, const std::vector<Item>& items,
                   unsigned n_threads, const Body& body,
                   const Recount& recount = {});

    /// One item per IOCT file: weighted by WalkEntry::bytes, labelled
    /// by WalkEntry::name.  An entry that cannot be opened or is not
    /// IOCT is rejected with one diagnostic.  The counts cover these
    /// entries only.
    static IOCov::DirIngest consume_binary_files(
        IOCov& into, std::span<const WalkEntry> entries, unsigned n_threads);
};

}  // namespace iocov::core::detail
