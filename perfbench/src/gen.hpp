// Seeded input generator.  Every trace comes from the library's own
// simulators (syscall::Kernel + trace::BinarySink running the xfstests,
// CrashMonkey and LTP testers); multi-pid traces are built by decoding
// simulator runs, renumbering their pids and interleaving them, which
// keeps each pid's event order.  Out-of-scope noise comes from extra
// processes making kernel calls on a /build tree outside /mnt/test.
//
// The same (workload, seed, size) always produces byte-identical files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Bump when the generated bytes change for a given seed, so cached
/// inputs from an older generator are never reused.
inline constexpr int kGenVersion = 3;

/// One generated file, as listed in the manifest.
struct GenFile {
    std::string kind;  ///< trace | probe | shard | small | large | empty
    std::string path;  ///< relative to the output directory
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    std::uint64_t pids = 0;
    std::uint64_t noise_events = 0;  ///< events of the out-of-scope processes
};

/// Generates `workload`'s inputs (xfstests-serial, fleet-dir or
/// serve-mixed; anything else throws std::invalid_argument) for `seed`
/// into `out_dir` (created if needed) and writes `out_dir`/manifest.tsv.  `size` scales the volume
/// (1.0 is the benchmark's size; tests use a small fraction).  Simulator
/// runs are spread over `threads` workers; the output does not depend
/// on the thread count.
std::vector<GenFile> generate(const std::string& workload, std::uint64_t seed,
                              const std::string& out_dir, double size = 1.0,
                              unsigned threads = 1);

}  // namespace perfbench
