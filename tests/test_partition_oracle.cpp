// Partition-inverse oracle: every declared partition of every input and
// output space, in both registries, treated as a finite fault domain.
//
// For each declared label the oracle builds a representative value from
// the label itself — a flag's bits, a mode bit, a log2 bucket's lower
// bound, an errno, a path shape — using only the abi/ tables and
// stats/log_bucket, never the analyzer's own partitioning code.  It
// then feeds one event through Analyzer::consume and reads the report
// rows back: the representative must land in exactly its label (open
// flags: that label plus the access mode; paths: that label plus the
// absolute/relative class every ordinary path carries).  Numeric and
// "OK:" boundaries 2^k-1, 2^k and 2^(k+1)-1 must land in the expected
// buckets, no two labels may share a representative, and the labels no
// value can reach are an explicit list.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "abi/errno.hpp"
#include "abi/fcntl.hpp"
#include "abi/limits.hpp"
#include "abi/seek.hpp"
#include "abi/stat_mode.hpp"
#include "abi/xattr.hpp"
#include "core/coverage.hpp"
#include "stats/log_bucket.hpp"

namespace iocov::core {
namespace {

using trace::ArgValue;
using trace::TraceEvent;

/// The labels no value can reach (DESIGN.md §8.2): the path classifier
/// never resolves symlinks, so "contains-symlinkish" is declared only so
/// the gap stays visible.
const std::set<std::string> kUnreachable = {"contains-symlinkish"};

/// The partition family of a tracked argument, as the registry's
/// argument classes define it (syscall_spec.hpp).
enum class Family { OpenFlags, ModeBits, Numeric, Whence, XattrFlags, Fd,
                    Path };

Family family_of(const std::string& base, const ArgSpec& arg) {
    switch (arg.cls) {
        case ArgClass::Bitmap:
            return base == "open" && arg.key == "flags" ? Family::OpenFlags
                                                        : Family::ModeBits;
        case ArgClass::Numeric: return Family::Numeric;
        case ArgClass::Categorical:
            return base == "setxattr" ? Family::XattrFlags : Family::Whence;
        case ArgClass::Identifier:
            return arg.key == "fd" ? Family::Fd : Family::Path;
    }
    return Family::Numeric;
}

const std::map<std::string, abi::mode_t_>& mode_bits() {
    static const std::map<std::string, abi::mode_t_> kBits = {
        {"S_ISUID", abi::S_ISUID}, {"S_ISGID", abi::S_ISGID},
        {"S_ISVTX", abi::S_ISVTX}, {"S_IRUSR", abi::S_IRUSR},
        {"S_IWUSR", abi::S_IWUSR}, {"S_IXUSR", abi::S_IXUSR},
        {"S_IRGRP", abi::S_IRGRP}, {"S_IWGRP", abi::S_IWGRP},
        {"S_IXGRP", abi::S_IXGRP}, {"S_IROTH", abi::S_IROTH},
        {"S_IWOTH", abi::S_IWOTH}, {"S_IXOTH", abi::S_IXOTH},
    };
    return kBits;
}

/// A value and the exact label set it must land in.
struct Representative {
    ArgValue value;
    std::set<std::string> lands;
};

std::string pow2_label(unsigned k) { return "2^" + std::to_string(k); }

std::optional<Representative> represent(Family family,
                                        const std::string& label) {
    using I = std::int64_t;
    switch (family) {
        case Family::OpenFlags:
            for (const auto& info : abi::open_flag_table()) {
                if (label != info.name) continue;
                // A lone OR-able flag leaves the access mode at O_RDONLY.
                std::set<std::string> lands = {label};
                if (!info.access_mode) lands.insert("O_RDONLY");
                return Representative{std::uint64_t{info.bits}, lands};
            }
            return std::nullopt;
        case Family::ModeBits: {
            if (label == "none") return Representative{std::uint64_t{0}, {label}};
            const auto it = mode_bits().find(label);
            if (it == mode_bits().end()) return std::nullopt;
            return Representative{std::uint64_t{it->second}, {label}};
        }
        case Family::Numeric: {
            const auto b = stats::parse_bucket_label(label);
            if (!b) return std::nullopt;
            return Representative{I{stats::bucket_lower_bound(*b)}, {label}};
        }
        case Family::Whence: {
            int invalid = 0;
            for (int w : abi::seek_whence_values()) {
                if (abi::seek_whence_name(w) == label)
                    return Representative{I{w}, {label}};
                invalid = std::max(invalid, w + 1);
            }
            if (label == "INVALID") return Representative{I{invalid}, {label}};
            return std::nullopt;
        }
        case Family::XattrFlags: {
            const std::map<std::string, I> kValues = {
                {"0", 0},
                {"XATTR_CREATE", abi::XATTR_CREATE_},
                {"XATTR_REPLACE", abi::XATTR_REPLACE_},
                {"INVALID", abi::XATTR_CREATE_ | abi::XATTR_REPLACE_}};
            const auto it = kValues.find(label);
            if (it == kValues.end()) return std::nullopt;
            return Representative{it->second, {label}};
        }
        case Family::Fd: {
            const std::map<std::string, I> kValues = {
                {"stdio(0-2)", 0},   {"valid(>=3)", 3},
                {"large(>=1024)", 1024}, {"minus-one", -1},
                {"AT_FDCWD", abi::AT_FDCWD}, {"other-negative", -2}};
            const auto it = kValues.find(label);
            if (it == kValues.end()) return std::nullopt;
            return Representative{it->second, {label}};
        }
        case Family::Path: {
            // Sentinels and the empty path carry no structural class.
            const std::map<std::string, std::string> kSentinels = {
                {"via-fd", "<via-fd>"}, {"faulting", "<fault>"},
                {"empty", ""}};
            if (const auto it = kSentinels.find(label);
                it != kSentinels.end())
                return Representative{it->second, {label}};
            std::string deep = "/";
            while (deep.size() < abi::PATH_MAX_) deep += "dd/";
            deep += "d";
            const std::map<std::string, std::string> kShapes = {
                {"absolute", "/a"},
                {"relative", "a"},
                {"dot", "./a"},
                {"dotdot", "../a"},
                {"trailing-slash", "/a/"},
                {"name-max", "/" + std::string(abi::NAME_MAX_ + 1, 'n')},
                {"path-max", deep}};
            const auto it = kShapes.find(label);
            if (it == kShapes.end()) return std::nullopt;
            std::set<std::string> lands = {label};
            lands.insert(it->second.front() == '/' ? "absolute" : "relative");
            return Representative{it->second, lands};
        }
    }
    return std::nullopt;
}

/// Labels of a histogram's rows with a nonzero count, each checked to
/// count exactly `n`.
std::set<std::string> hit(const stats::PartitionHistogram& h,
                          std::uint64_t n = 1) {
    std::set<std::string> out;
    for (const auto& row : h.rows()) {
        if (row.count == 0) continue;
        EXPECT_EQ(row.count, n) << row.label;
        out.insert(row.label);
    }
    return out;
}

std::string declared_label(const stats::PartitionHistogram& h,
                           std::size_t i) {
    return h.rows()[i].label;
}

TraceEvent one_arg_event(const std::string& base, const std::string& key,
                         ArgValue value) {
    TraceEvent ev;
    ev.syscall = base;
    ev.args = {{key, std::move(value)}};
    ev.ret = 0;
    return ev;
}

TraceEvent return_event(const std::string& base, std::int64_t ret) {
    TraceEvent ev;
    ev.syscall = base;
    ev.ret = ret;
    return ev;
}

/// One registry under test.  gtest prints the parameter into every test
/// name it lists, so it prints the registry's name: a bare pointer would
/// print its load address and give the tests a new name on every build.
struct Registry {
    const char* name;
    const std::vector<SyscallSpec>* specs;

    friend void PrintTo(const Registry& r, std::ostream* os) {
        *os << r.name;
    }
};

class PartitionOracle : public ::testing::TestWithParam<Registry> {};

TEST_P(PartitionOracle, EveryDeclaredInputLabelHasAnExactRepresentative) {
    const auto& registry = *GetParam().specs;
    const Analyzer empty(registry);
    std::set<std::string> unreached;
    for (const auto& spec : registry) {
        for (const auto& arg : spec.args) {
            const Family family = family_of(spec.base, arg);
            const auto& declared =
                empty.report().find_input(spec.base, arg.key)->hist;
            ASSERT_EQ(declared.declared_count(), declared.rows().size());
            std::map<std::string, std::string> owner;  // value -> label
            for (std::size_t i = 0; i < declared.declared_count(); ++i) {
                const std::string label = declared_label(declared, i);
                const auto rep = represent(family, label);
                if (!rep) {
                    unreached.insert(label);
                    continue;
                }
                const std::string key = testing::PrintToString(rep->value);
                EXPECT_TRUE(owner.emplace(key, label).second)
                    << spec.base << "/" << arg.key << ": " << label
                    << " shares its representative with " << owner[key];
                Analyzer a(registry);
                a.consume(one_arg_event(spec.base, arg.key, rep->value));
                const auto* cov = a.report().find_input(spec.base, arg.key);
                ASSERT_NE(cov, nullptr);
                EXPECT_EQ(hit(cov->hist), rep->lands)
                    << spec.base << "/" << arg.key << ": " << label;
                // Landing adds no row: the label was declared.
                EXPECT_EQ(cov->hist.rows().size(), declared.rows().size());
            }
        }
    }
    EXPECT_EQ(unreached, kUnreachable);
}

TEST_P(PartitionOracle, DeclaredInputSpacesMatchTheAbiTables) {
    const auto& registry = *GetParam().specs;
    Analyzer a(registry);
    for (const auto& spec : registry) {
        for (const auto& arg : spec.args) {
            const auto& h = a.report().find_input(spec.base, arg.key)->hist;
            std::vector<std::string> expect;
            switch (family_of(spec.base, arg)) {
                case Family::OpenFlags:
                    for (const auto& info : abi::open_flag_table())
                        expect.emplace_back(info.name);
                    break;
                case Family::Numeric:
                    expect = {"<0", "=0"};
                    for (unsigned k = 0; k <= 32; ++k)
                        expect.push_back(pow2_label(k));
                    break;
                case Family::Whence:
                    for (int w : abi::seek_whence_values())
                        expect.push_back(*abi::seek_whence_name(w));
                    expect.emplace_back("INVALID");
                    break;
                default:
                    continue;  // fixed lists, pinned by the test above
            }
            std::vector<std::string> rows;
            for (const auto& row : h.rows()) rows.push_back(row.label);
            EXPECT_EQ(rows, expect) << spec.base << "/" << arg.key;
        }
    }
}

TEST_P(PartitionOracle, NumericBoundariesLandInTheirBuckets) {
    const auto& registry = *GetParam().specs;
    for (const auto& spec : registry) {
        for (const auto& arg : spec.args) {
            if (arg.cls != ArgClass::Numeric) continue;
            auto lands = [&](std::int64_t v) {
                Analyzer a(registry);
                a.consume(one_arg_event(spec.base, arg.key, ArgValue{v}));
                return hit(a.report().find_input(spec.base, arg.key)->hist);
            };
            using L = std::set<std::string>;
            EXPECT_EQ(lands(-1), L{"<0"});
            EXPECT_EQ(lands(INT64_MIN), L{"<0"});
            EXPECT_EQ(lands(0), L{"=0"});
            for (unsigned k = 0; k <= 62; ++k) {
                const std::int64_t lo = std::int64_t{1} << k;
                const std::int64_t hi = lo + (lo - 1);  // 2^(k+1)-1
                EXPECT_EQ(lands(lo - 1),
                          L{k == 0 ? std::string("=0") : pow2_label(k - 1)})
                    << spec.base << "/" << arg.key << " k=" << k;
                EXPECT_EQ(lands(lo), L{pow2_label(k)}) << " k=" << k;
                EXPECT_EQ(lands(hi), L{pow2_label(k)}) << " k=" << k;
            }
        }
    }
}

TEST_P(PartitionOracle, EveryDeclaredOutputLabelHasAnExactRepresentative) {
    const auto& registry = *GetParam().specs;
    const Analyzer empty(registry);
    for (const auto& spec : registry) {
        const auto& declared = empty.report().find_output(spec.base)->hist;
        const bool sized = spec.success == SuccessKind::ByteCount ||
                           spec.success == SuccessKind::Offset;
        // The declared block: the success partitions, then each
        // documented errno by name.
        std::vector<std::string> expect;
        if (sized) {
            expect.emplace_back("OK:=0");
            for (unsigned k = 0; k <= 32; ++k)
                expect.push_back("OK:" + pow2_label(k));
        } else {
            expect.emplace_back("OK");
        }
        for (abi::Err e : spec.errors) expect.push_back(abi::err_name(e));
        std::vector<std::string> rows;
        for (const auto& row : declared.rows()) rows.push_back(row.label);
        EXPECT_EQ(rows, expect) << spec.base;

        std::set<std::int64_t> used;
        for (const auto& label : rows) {
            std::int64_t ret = 0;
            if (label == "OK") {
                ret = spec.success == SuccessKind::NewFd ? 3 : 0;
            } else if (label.rfind("OK:", 0) == 0) {
                const auto b = stats::parse_bucket_label(label.substr(3));
                ASSERT_TRUE(b.has_value()) << label;
                ret = stats::bucket_lower_bound(*b);
            } else {
                const auto err = abi::err_from_name(label);
                ASSERT_TRUE(err.has_value()) << label;
                ret = abi::fail(*err);
            }
            EXPECT_TRUE(used.insert(ret).second) << spec.base << ": " << label;
            Analyzer a(registry);
            a.consume(return_event(spec.base, ret));
            const auto& h = a.report().find_output(spec.base)->hist;
            EXPECT_EQ(hit(h), std::set<std::string>{label})
                << spec.base << ": " << label;
            EXPECT_EQ(h.rows().size(), declared.rows().size());
        }
    }
}

TEST_P(PartitionOracle, SizedSuccessBoundariesLandInTheirBuckets) {
    const auto& registry = *GetParam().specs;
    for (const auto& spec : registry) {
        if (spec.success != SuccessKind::ByteCount &&
            spec.success != SuccessKind::Offset)
            continue;
        auto lands = [&](std::int64_t ret) {
            Analyzer a(registry);
            a.consume(return_event(spec.base, ret));
            return hit(a.report().find_output(spec.base)->hist);
        };
        using L = std::set<std::string>;
        EXPECT_EQ(lands(0), L{"OK:=0"});
        for (unsigned k = 0; k <= 62; ++k) {
            const std::int64_t lo = std::int64_t{1} << k;
            const std::int64_t hi = lo + (lo - 1);
            EXPECT_EQ(lands(lo - 1),
                      L{k == 0 ? std::string("OK:=0")
                               : "OK:" + pow2_label(k - 1)})
                << spec.base << " k=" << k;
            EXPECT_EQ(lands(lo), L{"OK:" + pow2_label(k)}) << " k=" << k;
            EXPECT_EQ(lands(hi), L{"OK:" + pow2_label(k)}) << " k=" << k;
        }
    }
}

TEST_P(PartitionOracle, OpenFlagCombinationsLandInTheirCountAndPairs) {
    const auto& registry = *GetParam().specs;
    // OR-able, non-composite flags: each adds exactly one to the count.
    std::vector<const abi::OpenFlagInfo*> plain;
    for (const auto& info : abi::open_flag_table())
        if (!info.access_mode && info.bits != abi::O_SYNC &&
            info.bits != abi::O_TMPFILE && info.bits != abi::O_DSYNC &&
            info.bits != abi::O_DIRECTORY)
            plain.push_back(&info);
    ASSERT_GE(plain.size(), 7u);
    const std::vector<std::string> counts = {"1", "2", "3", "4",
                                             "5", "6", "7+"};
    const Analyzer empty(registry);
    const auto* declared = empty.report().find_input("open", "flags");
    for (const auto* h : {&declared->combo_cardinality,
                          &declared->combo_cardinality_rdonly}) {
        std::vector<std::string> rows;
        for (const auto& row : h->rows()) rows.push_back(row.label);
        EXPECT_EQ(rows, counts);
    }
    for (const std::uint32_t mode : {abi::O_RDONLY, abi::O_WRONLY}) {
        for (std::size_t extra = 0; extra <= 7; ++extra) {
            std::uint32_t flags = mode;
            std::vector<std::string> names = {
                mode == abi::O_RDONLY ? "O_RDONLY" : "O_WRONLY"};
            for (std::size_t i = 0; i < extra; ++i) {
                flags |= plain[i]->bits;
                names.emplace_back(plain[i]->name);
            }
            Analyzer a(registry);
            a.consume(one_arg_event("open", "flags", std::uint64_t{flags}));
            const auto* cov = a.report().find_input("open", "flags");
            const std::size_t n = names.size();
            const std::string count = n >= 7 ? "7+" : std::to_string(n);
            EXPECT_EQ(hit(cov->combo_cardinality), std::set<std::string>{count});
            EXPECT_EQ(hit(cov->combo_cardinality_rdonly),
                      mode == abi::O_RDONLY ? std::set<std::string>{count}
                                            : std::set<std::string>{});
            std::set<std::string> pairs;
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = i + 1; j < n; ++j)
                    pairs.insert(std::min(names[i], names[j]) + "+" +
                                 std::max(names[i], names[j]));
            EXPECT_EQ(hit(cov->pairs), pairs) << n << " flags";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registries, PartitionOracle,
    ::testing::Values(Registry{"Paper", &syscall_registry()},
                      Registry{"Extended", &extended_syscall_registry()}));

}  // namespace
}  // namespace iocov::core
