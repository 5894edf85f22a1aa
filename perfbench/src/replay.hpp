// In-process replay of a workload's inputs, untraced (the wall-time
// baseline) or traced (spans around each layer's public functions, for
// the per-layer breakdown).
//
// Serial phases, under one root span whose wall time the stage self
// times must add up to:
//   analyze  what `iocov analyze` does.  Untraced, it calls the same
//            IOCov::consume_binary_dir / consume_binary_file on the same
//            targets as the CLI.  Traced, it runs the per-file steps
//            those entry points run, one call at a time: map, scan, set
//            up a fresh filter + analyzer and bind the string table,
//            decode 512-row chunks, materialize / filter / analyze each
//            event, merge into the accumulated IOCov.  Both then render
//            and write the report, snapshot, encode and write the
//            snapshot.
//   live     what `iocov serve` does per push: LiveCoverage::push, and
//            every 16 accepted pushes (the daemon's checkpoint cadence
//            in this benchmark) an IOCK checkpoint encode and write.
//   frame    serve::encode_push + FrameDecoder feed/next per shard.
// A separate parallel pass runs IOCov::consume_binary_file on a fresh
// IOCov per file on exec::parallel_for_stealing, with one span per item.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "span.hpp"

namespace perfbench {

struct ReplayFile {
    std::string path;
    std::string name;  ///< shard name (the file name)
    std::uint64_t events = 0;
};

/// Shards with at least this many events count as large pushes.
inline constexpr std::uint64_t kLargeShardEvents = 100000;

/// Accepted pushes between two checkpoints (matches the serve-mixed
/// daemon's --checkpoint-every).
inline constexpr std::uint64_t kCheckpointEvery = 16;

struct ReplayInputs {
    std::vector<ReplayFile> analyze;  ///< what the CLI analyzes, name order
    /// The CLI's operands for the same files: trace files and
    /// directories, in command-line order.
    std::vector<std::string> targets;
    std::vector<ReplayFile> push;     ///< what is pushed in the live phase
    std::string work_dir;             ///< where artifacts are written
    /// clock_read_ns(), moved out of every per-event interval.
    double clock_ns = 0;
};

struct ReplayResult {
    double analyze_ms = 0;   ///< analyze phase wall time
    double ingest_ms = 0;    ///< map + ingest of the analyze inputs
    double total_ms = 0;     ///< all serial phases
    std::string report;      ///< saved-report bytes of the analyze phase
    std::uint64_t decoded = 0;
    std::uint64_t admitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t frame_bytes = 0;  ///< PUSH frame bytes of the frame phase
};

/// Runs the serial phases; with a tracer, records spans into it.
ReplayResult replay(const ReplayInputs& in, Tracer* tracer);

/// Runs the parallel pass of the analyze files on `lanes` workers,
/// recording one "exec.item" span per file into `tracer` under a root
/// span named "exec.parallel".
void replay_parallel(const ReplayInputs& in, unsigned lanes, Tracer& tracer);

/// Per-layer metrics from one traced replay: the serial phases' spans
/// and result, the parallel pass on `lanes` workers, and the untraced
/// serial ingest time the parallel pass is compared with.  Keys are
/// the benchmark's per-layer metric names.
std::map<std::string, double> layer_metrics(const Tracer& serial,
                                            const ReplayResult& result,
                                            const Tracer& parallel,
                                            unsigned lanes,
                                            double serial_ingest_ms);

/// Stage self times must match the traced wall time to within this
/// share; the rest is the replay's own loop glue.
inline constexpr double kStageSumTolerance = 0.03;

}  // namespace perfbench
