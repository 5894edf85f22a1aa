#include "core/walk.hpp"

#include <algorithm>
#include <filesystem>

#include "core/detail/shard_driver.hpp"
#include "exec/thread_pool.hpp"

namespace iocov::core {
namespace {

/// The walk's starting state: a fresh manifest of `mode`, or with
/// `resume` the one the resume loader returns, whose consumed entries
/// must be a prefix of `entries` — anything else means the inputs
/// changed under the manifest, and resuming would double- or
/// mis-count.
std::optional<Checkpoint> start_walk(const Checkpointing& checkpointing,
                                     CheckpointMode mode,
                                     std::span<const WalkEntry> entries,
                                     SnapshotError* err) {
    Checkpoint fresh;
    fresh.mode = mode;
    if (!checkpointing.resume) return fresh;
    auto cp = resume_checkpoint(checkpointing.path, mode, err);
    if (!cp) return std::nullopt;
    const bool prefix =
        cp->consumed.size() <= entries.size() &&
        std::equal(cp->consumed.begin(), cp->consumed.end(), entries.begin(),
                   [](const std::string& consumed, const WalkEntry& e) {
                       return consumed == e.path;
                   });
    if (!prefix) {
        if (err)
            *err = {SnapshotError::Kind::Mismatch, 0,
                    "checkpoint does not match the current inputs (" +
                        std::to_string(cp->consumed.size()) +
                        " consumed; inputs changed?)"};
        return std::nullopt;
    }
    return cp;
}

/// The one walk: runs segment(begin, end) over the entries `cp` has
/// not consumed — as one segment without a manifest, else in segments
/// of `every` — and after each segment but the last lets save(cp) fill
/// in the fold state and writes the manifest.  A completed walk
/// removes its manifest.
template <class Segment, class Save>
bool run_walk(std::span<const WalkEntry> entries,
              const Checkpointing& checkpointing, Checkpoint& cp,
              Segment segment, Save save, SnapshotError* err) {
    const std::size_t n = entries.size();
    const bool manifest = !checkpointing.path.empty();
    const std::uint64_t every =
        manifest ? std::max<std::uint64_t>(checkpointing.every, 1) : n;
    for (std::size_t begin = cp.consumed.size(); begin < n;) {
        const std::size_t end =
            begin + static_cast<std::size_t>(
                        std::min<std::uint64_t>(every, n - begin));
        segment(begin, end);
        if (end < n) {
            for (std::size_t i = begin; i < end; ++i)
                cp.consumed.push_back(entries[i].path);
            save(cp);
            if (!save_checkpoint_file(checkpointing.path, cp, err))
                return false;
        }
        begin = end;
    }
    if (manifest) {
        std::error_code ec;
        std::filesystem::remove(checkpointing.path, ec);
    }
    return true;
}

}  // namespace

std::optional<std::vector<WalkEntry>> list_inputs(
    const std::vector<std::string>& inputs, std::string* failed) {
    namespace fs = std::filesystem;
    auto size_of = [](const fs::path& path) {
        std::error_code ec;
        const auto size = fs::file_size(path, ec);
        return ec ? std::uint64_t{0} : static_cast<std::uint64_t>(size);
    };
    std::vector<WalkEntry> walk;
    for (const auto& input : inputs) {
        std::error_code ec;
        if (!fs::is_directory(input, ec) || ec) {
            walk.push_back({input, input, size_of(input)});
            continue;
        }
        const std::size_t first = walk.size();
        for (fs::directory_iterator it(input, ec), end; !ec && it != end;
             it.increment(ec)) {
            std::error_code fec;
            if (!it->is_regular_file(fec) || fec) continue;
            walk.push_back({it->path().string(),
                            it->path().filename().string(),
                            size_of(it->path())});
        }
        if (ec) {
            if (failed) *failed = input;
            return std::nullopt;
        }
        // Name order fixes the fold order (and so which diagnostics
        // survive retention) independent of directory-entry order.
        std::sort(walk.begin() + static_cast<std::ptrdiff_t>(first),
                  walk.end(), [](const WalkEntry& a, const WalkEntry& b) {
                      return a.name < b.name;
                  });
    }
    return walk;
}

SnapshotDirLoad load_snapshots(std::span<const WalkEntry> entries,
                               unsigned n_threads) {
    struct Slot {
        std::optional<IOCovSnapshot> snapshot;
        SnapshotError error;
    };
    std::vector<Slot> slots(entries.size());
    auto load_one = [&](std::size_t i) {
        Slot& slot = slots[i];
        try {
            slot.snapshot = load_snapshot_file(entries[i].path, &slot.error);
        } catch (const std::exception& e) {
            slot.snapshot.reset();
            slot.error = {SnapshotError::Kind::Corrupt, 0,
                          std::string("load failed: ") + e.what()};
        }
    };

    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    const auto lanes = static_cast<unsigned>(std::min<std::size_t>(
        n_threads, std::max<std::size_t>(entries.size(), 1)));
    if (lanes == 1) {
        for (std::size_t i = 0; i < entries.size(); ++i) load_one(i);
    } else {
        std::vector<std::uint64_t> weights(entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i)
            weights[i] = entries[i].bytes;
        exec::ThreadPool pool(lanes);
        exec::parallel_for_stealing(pool, weights, load_one);
    }

    SnapshotDirLoad result;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        Slot& slot = slots[i];
        if (slot.snapshot) {
            result.bytes += entries[i].bytes;
            result.snapshots.push_back(
                {entries[i].name, std::move(*slot.snapshot)});
        } else {
            ++result.rejected;
            result.diags.record(0, slot.error.offset,
                                entries[i].name + ": " +
                                    slot.error.to_string());
        }
    }
    return result;
}

std::optional<SnapshotDirLoad> load_snapshot_dir(const std::string& dir,
                                                 unsigned n_threads) {
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec) || ec) return std::nullopt;
    const auto entries = list_inputs({dir});
    if (!entries) return std::nullopt;
    return load_snapshots(*entries, n_threads);
}

std::optional<IOCov::DirIngest> analyze_walk(
    IOCov& into, std::span<const WalkEntry> entries, unsigned n_threads,
    const Checkpointing& checkpointing, SnapshotError* err) {
    auto cp = start_walk(checkpointing, CheckpointMode::Analyze, entries,
                         err);
    if (!cp) return std::nullopt;
    IOCov::DirIngest total;
    if (!cp->consumed.empty()) {
        const MergeBlock none;
        const MergeBlock& saved = cp->blocks.empty() ? none : cp->blocks[0];
        into.resume(saved.snapshot, cp->diags);
        total.files = saved.leaves;
        total.rejected = cp->rejected;
        // The manifest's diagnostics count one per rejected entry and
        // one per dropped record.
        total.dropped =
            cp->diags.total() - std::min(cp->rejected, cp->diags.total());
        total.bytes = cp->bytes;
        total.resumed = saved.snapshot.ingest;
    }
    const bool ok = run_walk(
        entries, checkpointing, *cp,
        [&](std::size_t begin, std::size_t end) {
            const auto part = detail::ShardDriver::consume_binary_files(
                into, entries.subspan(begin, end - begin), n_threads);
            total.files += part.files;
            total.rejected += part.rejected;
            total.dropped += part.dropped;
            total.bytes += part.bytes;
        },
        [&](Checkpoint& state) {
            state.rejected = total.rejected;
            state.bytes = total.bytes;
            state.diags = into.diagnostics();
            state.blocks.clear();
            if (total.files > 0)
                state.blocks.push_back({total.files, into.snapshot()});
        },
        err);
    if (!ok) return std::nullopt;
    return total;
}

std::optional<Checkpoint> merge_walk(std::span<const WalkEntry> entries,
                                     unsigned n_threads,
                                     const Checkpointing& checkpointing,
                                     SnapshotError* err) {
    auto cp = start_walk(checkpointing, CheckpointMode::Merge, entries, err);
    if (!cp) return std::nullopt;
    // The fold state is cp itself: resume_checkpoint left at most one
    // block, and a block is only kept once it holds a leaf.
    const bool ok = run_walk(
        entries, checkpointing, *cp,
        [&](std::size_t begin, std::size_t end) {
            auto load = load_snapshots(entries.subspan(begin, end - begin),
                                       n_threads);
            cp->rejected += load.rejected;
            cp->bytes += load.bytes;
            cp->diags.append(load.diags);
            MergeBlock part{load.snapshots.size(),
                            merge_snapshots(std::move(load.snapshots),
                                            n_threads)};
            if (!cp->blocks.empty()) cp->blocks[0].absorb(std::move(part));
            else if (part.leaves > 0) cp->blocks.push_back(std::move(part));
        },
        [](Checkpoint&) {}, err);
    if (!ok) return std::nullopt;
    // Retained in walk order, listed by position: the order `iocov
    // merge` has always printed.
    trace::ParseDiagnostics listed;
    listed.merge(cp->diags);
    cp->diags = std::move(listed);
    return cp;
}

}  // namespace iocov::core
