#include "core/diff.hpp"

#include <algorithm>
#include <sstream>

namespace iocov::core {
namespace {

void diff_hist(const stats::PartitionHistogram& before,
               const stats::PartitionHistogram& after, bool is_input,
               const std::string& base, const std::string& arg,
               const DiffOptions& options,
               std::vector<CoverageDelta>* out) {
    // Union of labels, before-order first.
    std::vector<std::string> labels;
    for (const auto& row : before.rows()) labels.push_back(row.label);
    for (const auto& row : after.rows())
        if (!before.has_partition(row.label)) labels.push_back(row.label);

    for (const auto& label : labels) {
        const std::uint64_t b = before.count(label);
        const std::uint64_t a = after.count(label);
        if (b == a) continue;
        CoverageDelta d;
        d.is_input = is_input;
        d.base = base;
        d.arg = arg;
        d.partition = label;
        d.before = b;
        d.after = a;
        if (b > 0 && a == 0) {
            d.kind = CoverageDelta::Kind::Lost;
        } else if (b == 0 && a > 0) {
            d.kind = CoverageDelta::Kind::Gained;
        } else {
            const double lo = static_cast<double>(std::min(a, b));
            const double hi = static_cast<double>(std::max(a, b));
            if ((hi - lo) / hi < options.ratio_threshold) continue;
            d.kind = a < b ? CoverageDelta::Kind::Decreased
                           : CoverageDelta::Kind::Increased;
        }
        out->push_back(std::move(d));
    }
}

int severity(CoverageDelta::Kind kind) {
    switch (kind) {
        case CoverageDelta::Kind::Lost: return 0;
        case CoverageDelta::Kind::Decreased: return 1;
        case CoverageDelta::Kind::Gained: return 2;
        case CoverageDelta::Kind::Increased: return 3;
    }
    return 4;
}

}  // namespace

std::vector<CoverageDelta> diff_reports(const CoverageReport& before,
                                        const CoverageReport& after,
                                        const DiffOptions& options) {
    std::vector<CoverageDelta> out;
    for (const auto& in : before.inputs) {
        const auto* other = after.find_input(in.base, in.key);
        if (!other) continue;
        diff_hist(in.hist, other->hist, true, in.base, in.key, options,
                  &out);
    }
    for (const auto& oc : before.outputs) {
        const auto* other = after.find_output(oc.base);
        if (!other) continue;
        diff_hist(oc.hist, other->hist, false, oc.base, "", options, &out);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const CoverageDelta& a, const CoverageDelta& b) {
                         return severity(a.kind) < severity(b.kind);
                     });
    return out;
}

bool has_coverage_regression(const CoverageReport& before,
                             const CoverageReport& after) {
    const auto deltas = diff_reports(before, after);
    return std::any_of(deltas.begin(), deltas.end(),
                       [](const CoverageDelta& d) {
                           return d.kind == CoverageDelta::Kind::Lost;
                       });
}

std::string delta_kind_name(CoverageDelta::Kind kind) {
    switch (kind) {
        case CoverageDelta::Kind::Lost: return "LOST";
        case CoverageDelta::Kind::Gained: return "gained";
        case CoverageDelta::Kind::Decreased: return "decreased";
        case CoverageDelta::Kind::Increased: return "increased";
    }
    return "?";
}

// ---- file-system state diffing ------------------------------------------

namespace {

StateDelta make_delta(StateDelta::Kind kind, const std::string& path,
                      std::string detail) {
    StateDelta d;
    d.kind = kind;
    d.path = path;
    d.detail = std::move(detail);
    return d;
}

}  // namespace

std::vector<StateDelta> diff_states(const StateSnapshot& expected,
                                    const StateSnapshot& actual,
                                    const StateDiffOptions& options) {
    std::vector<StateDelta> out;
    for (const auto& [path, want] : expected.entries) {
        auto it = actual.entries.find(path);
        if (it == actual.entries.end()) {
            out.push_back(make_delta(StateDelta::Kind::Missing, path,
                                     std::string("expected ") +
                                         state_fact_type_name(want.type)));
            continue;
        }
        const StateFact& got = it->second;
        if (want.type != got.type) {
            std::ostringstream os;
            os << "expected " << state_fact_type_name(want.type) << ", found "
               << state_fact_type_name(got.type);
            out.push_back(make_delta(StateDelta::Kind::TypeMismatch, path,
                                     os.str()));
            continue;  // other aspects are meaningless across types
        }
        if (want.check_data && want.type == StateFact::Type::File) {
            if (want.size != got.size) {
                std::ostringstream os;
                os << "size " << want.size << " -> " << got.size;
                out.push_back(make_delta(StateDelta::Kind::DataLoss, path,
                                         os.str()));
            } else if (want.content_hash != got.content_hash) {
                out.push_back(make_delta(StateDelta::Kind::DataLoss, path,
                                         "content diverged"));
            }
        }
        if (want.check_meta) {
            std::ostringstream os;
            bool lost = false;
            if (want.mode != got.mode) {
                os << "mode " << std::oct << want.mode << " -> " << got.mode
                   << std::dec << "; ";
                lost = true;
            }
            if (want.uid != got.uid || want.gid != got.gid) {
                os << "owner " << want.uid << ':' << want.gid << " -> "
                   << got.uid << ':' << got.gid << "; ";
                lost = true;
            }
            if (want.xattr_hash != got.xattr_hash) {
                os << "xattrs diverged; ";
                lost = true;
            }
            if (want.symlink_target != got.symlink_target) {
                os << "target \"" << want.symlink_target << "\" -> \""
                   << got.symlink_target << "\"; ";
                lost = true;
            }
            if (lost) {
                std::string detail = os.str();
                detail.resize(detail.size() - 2);  // drop trailing "; "
                out.push_back(make_delta(StateDelta::Kind::MetadataLoss, path,
                                         std::move(detail)));
            }
        }
    }
    if (!options.allow_extra) {
        for (const auto& [path, got] : actual.entries) {
            if (!expected.entries.count(path))
                out.push_back(
                    make_delta(StateDelta::Kind::Extra, path,
                               std::string("unexpected ") +
                                   state_fact_type_name(got.type)));
        }
    }
    return out;
}

const char* state_delta_kind_name(StateDelta::Kind kind) {
    switch (kind) {
        case StateDelta::Kind::Missing: return "missing";
        case StateDelta::Kind::TypeMismatch: return "type-mismatch";
        case StateDelta::Kind::DataLoss: return "data-loss";
        case StateDelta::Kind::MetadataLoss: return "metadata-loss";
        case StateDelta::Kind::Extra: return "extra";
    }
    return "?";
}

const char* state_fact_type_name(StateFact::Type type) {
    switch (type) {
        case StateFact::Type::File: return "file";
        case StateFact::Type::Dir: return "dir";
        case StateFact::Type::Symlink: return "symlink";
        case StateFact::Type::Special: return "special";
    }
    return "?";
}

}  // namespace iocov::core
