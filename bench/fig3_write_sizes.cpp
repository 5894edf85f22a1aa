// Figure 3: input coverage of the write size argument (log2 buckets).
//
// Paper reference points: xfstests exceeds CrashMonkey in every
// interval; CrashMonkey exercises few sizes; neither suite writes more
// than 258 MiB (bucket 2^28) although ext4 allows 16 TiB files; the
// "=0" boundary partition is tested only by xfstests.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "report/table.hpp"
#include "stats/log_bucket.hpp"

int main() {
    using namespace iocov;
    const double scale = bench::env_scale();
    bench::print_banner("Figure 3", "input coverage of write size (bytes)",
                        scale);

    const auto runs = bench::run_both(scale);
    const auto* cm = runs.crashmonkey.find_input("write", "count");
    const auto* xfs = runs.xfstests.find_input("write", "count");

    std::printf("%s\n",
                report::render_comparison("CrashMonkey", cm->hist,
                                          "xfstests", xfs->hist)
                    .c_str());

    // Largest tested bucket for each suite, and its exponent (-1: none).
    auto max_exponent = [](const stats::PartitionHistogram& h) {
        int out = -1;
        for (const auto& row : h.rows())
            if (row.count > 0 && row.label.rfind("2^", 0) == 0)
                out = std::stoi(row.label.substr(2));
        return out;
    };
    auto max_bucket = [&](const stats::PartitionHistogram& h) {
        const int e = max_exponent(h);
        return e < 0 ? std::string("(none)") : "2^" + std::to_string(e);
    };
    std::printf("largest write bucket: CM=%s xfs=%s "
                "(paper: max write = 258 MiB, bucket 2^28)\n",
                max_bucket(cm->hist).c_str(), max_bucket(xfs->hist).c_str());
    std::printf("zero-size writes:     CM=%llu xfs=%llu "
                "(paper: \"=0\" tested only by xfstests)\n",
                static_cast<unsigned long long>(cm->hist.count("=0")),
                static_cast<unsigned long long>(xfs->hist.count("=0")));
    std::printf("untested buckets:     CM=%zu xfs=%zu of %zu declared\n",
                cm->hist.untested().size(), xfs->hist.untested().size(),
                cm->hist.partition_count());

    // The paper's claims are the gate: exit 1 when one does not hold.
    bool xfs_wins_everywhere = true;
    for (const auto& row : xfs->hist.rows())
        if (row.count < cm->hist.count(row.label))
            xfs_wins_everywhere = false;
    const bool matches =
        xfs_wins_everywhere && max_exponent(cm->hist) <= 28 &&
        max_exponent(xfs->hist) <= 28 && cm->hist.count("=0") == 0 &&
        xfs->hist.count("=0") > 0;
    return matches ? 0 : 1;
}
