#include "report/trend.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "core/gap.hpp"

namespace iocov::report {
namespace {

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
                break;
        }
    }
    return out;
}

std::string fixed4(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return buf;
}

}  // namespace

std::string trend_json(const std::vector<core::NamedSnapshot>& snapshots,
                       const TrendOptions& options, unsigned n_threads) {
    // Slice keys: (sort key, display key).  std::map keeps them sorted;
    // windows get a zero-padded numeric sort key so lexicographic order
    // equals numeric order.
    struct Slice {
        std::string display;
        std::vector<core::NamedSnapshot> members;  // name order preserved
    };
    std::map<std::string, Slice> slices;
    for (const auto& ns : snapshots) {
        std::string sort_key, display;
        if (options.by_label) {
            display = ns.snapshot.label.empty() ? "(unlabeled)"
                                                : ns.snapshot.label;
            sort_key = display;
        } else if (options.window_seconds == 0) {
            sort_key = display = "all";
        } else {
            const std::uint64_t bucket =
                ns.snapshot.timestamp / options.window_seconds;
            char buf[32];
            std::snprintf(buf, sizeof buf, "%020llu",
                          static_cast<unsigned long long>(bucket));
            sort_key = buf;
            display = std::to_string(bucket * options.window_seconds);
        }
        auto& slice = slices[sort_key];
        slice.display = std::move(display);
        slice.members.push_back(ns);
    }

    std::string json = "{\n  \"slices\": [\n";
    std::size_t slice_idx = 0;
    for (auto& [sort_key, slice] : slices) {
        // Same fold as `iocov merge`; merge is exact, so the slice's
        // bytes do not depend on member order or thread count.
        const std::size_t n = slice.members.size();
        const core::IOCovSnapshot merged =
            core::merge_snapshots(std::move(slice.members), n_threads);
        const core::GapReport gaps =
            core::extract_gaps(merged.report, options.target);

        json += "    {\n";
        json += "      \"key\": \"" + json_escape(slice.display) + "\",\n";
        json += "      \"snapshots\": " + std::to_string(n) + ",\n";
        json += "      \"events_seen\": " +
                std::to_string(merged.report.events_seen) + ",\n";
        json += "      \"events_tracked\": " +
                std::to_string(merged.report.events_tracked) + ",\n";
        json += "      \"aggregate_tcd\": " + fixed4(gaps.aggregate_tcd) +
                ",\n";
        json += "      \"input_gaps\": " +
                std::to_string(gaps.input_gaps.size()) + ",\n";
        json += "      \"output_gaps\": " +
                std::to_string(gaps.output_gaps.size()) + ",\n";
        json += "      \"spaces\": [\n";
        for (std::size_t i = 0; i < gaps.spaces.size(); ++i) {
            const auto& sp = gaps.spaces[i];
            json += "        {\"space\": \"" + json_escape(sp.base) +
                    (sp.arg.empty() ? "" : "." + json_escape(sp.arg)) +
                    "\", \"tcd\": " + fixed4(sp.tcd) +
                    ", \"untested\": " + std::to_string(sp.untested) +
                    ", \"declared\": " + std::to_string(sp.declared) + "}" +
                    (i + 1 < gaps.spaces.size() ? ",\n" : "\n");
        }
        json += "      ]\n";
        json += "    }";
        json += (++slice_idx < slices.size()) ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    return json;
}

}  // namespace iocov::report
