#include "core/schema.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "abi/errno.hpp"
#include "abi/fcntl.hpp"
#include "abi/limits.hpp"
#include "abi/seek.hpp"
#include "abi/stat_mode.hpp"
#include "abi/xattr.hpp"
#include "stats/log_bucket.hpp"

namespace iocov::core {
namespace {

using stats::LogBucket;

// ---- declared labels, each written once ------------------------------------
//
// A space's declared block keeps declaration order, so the position of a
// label below is its row.

constexpr const char* kInvalid = "INVALID";

constexpr std::array<std::pair<abi::mode_t_, const char*>, 12> kModeBits = {{
    {abi::S_ISUID, "S_ISUID"},
    {abi::S_ISGID, "S_ISGID"},
    {abi::S_ISVTX, "S_ISVTX"},
    {abi::S_IRUSR, "S_IRUSR"},
    {abi::S_IWUSR, "S_IWUSR"},
    {abi::S_IXUSR, "S_IXUSR"},
    {abi::S_IRGRP, "S_IRGRP"},
    {abi::S_IWGRP, "S_IWGRP"},
    {abi::S_IXGRP, "S_IXGRP"},
    {abi::S_IROTH, "S_IROTH"},
    {abi::S_IWOTH, "S_IWOTH"},
    {abi::S_IXOTH, "S_IXOTH"},
}};
constexpr const char* kNoModeBits = "none";  // row kModeBits.size()

constexpr std::array<const char*, 4> kXattrFlags = {
    "0", "XATTR_CREATE", "XATTR_REPLACE", kInvalid};

enum FdRow : std::uint16_t {
    kStdio, kValidFd, kLargeFd, kMinusOne, kAtFdcwd, kOtherNegative
};
constexpr std::array<const char*, 6> kFdClasses = {
    "stdio(0-2)", "valid(>=3)", "large(>=1024)",
    "minus-one",  "AT_FDCWD",   "other-negative"};

// kSymlinkish is declared but never landed: classification does not
// resolve symlinks (DESIGN.md §8.2).
enum PathRow : std::uint16_t {
    kAbsolute, kRelative, kDot, kDotdot, kTrailingSlash, kSymlinkish,
    kNameMax, kPathMax, kViaFd, kFaulting, kEmpty
};
constexpr std::array<const char*, 11> kPathClasses = {
    "absolute", "relative", "dot",      "dotdot",   "trailing-slash",
    "contains-symlinkish",  "name-max", "path-max", "via-fd",
    "faulting", "empty"};

/// Flags combined per open call (Table 1): up to six were ever combined
/// in the paper's data, so 1..6 plus an overflow bucket.
constexpr std::array<const char*, 7> kCardinalities = {"1", "2", "3", "4",
                                                       "5", "6", "7+"};

constexpr const char* kOk = "OK";
/// Every return below -MAX_ERRNO: not an errno, so one shared label.
constexpr const char* kBeyondMaxErrno = "E?>4095";

std::string sized_ok_label(const LogBucket& b) {
    return "OK:" + stats::bucket_label(b);
}

std::vector<std::string> names(const auto& table) {
    return std::vector<std::string>(table.begin(), table.end());
}

// ---- classification ----------------------------------------------------------

/// A string where an integer belongs classifies as 0.
std::int64_t as_int(const trace::ArgView& v) {
    return v.int_value().value_or(0);
}

std::uint16_t fd_row(std::int64_t fd) {
    if (fd >= 0 && fd <= 2) return kStdio;
    if (fd >= 1024) return kLargeFd;
    if (fd >= 3) return kValidFd;
    if (fd == -1) return kMinusOne;
    if (fd == abi::AT_FDCWD) return kAtFdcwd;
    return kOtherNegative;
}

void classify_path(const trace::ArgView& value, Schema::Hits& hits) {
    auto land = [&hits](std::uint16_t row) { hits.rows[hits.n++] = row; };
    if (value.kind != trace::ArgView::Kind::Str || value.str == "<fault>")
        return land(kFaulting);
    const std::string_view p = value.str;
    if (p == "<via-fd>") return land(kViaFd);
    if (p.empty()) return land(kEmpty);
    if (p == "." || p.starts_with("./")) land(kDot);
    if (p == ".." || p.starts_with("../")) land(kDotdot);
    land(p.front() == '/' ? kAbsolute : kRelative);
    if (p.size() > 1 && p.back() == '/') land(kTrailingSlash);
    // Longest component length and whole-path length boundaries.
    std::size_t comp = 0, longest = 0;
    for (char ch : p) {
        if (ch == '/') {
            longest = std::max(longest, comp);
            comp = 0;
        } else {
            ++comp;
        }
    }
    longest = std::max(longest, comp);
    if (longest > abi::NAME_MAX_) land(kNameMax);
    if (p.size() >= abi::PATH_MAX_) land(kPathMax);
}

std::size_t row_of(const stats::PartitionHistogram& hist,
                   std::string_view label) {
    const auto& rows = hist.rows();
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].label == label) return i;
    return Schema::npos;
}

using Family = Schema::Family;

Family family_of(std::string_view base, const ArgSpec& arg) {
    switch (arg.cls) {
        case ArgClass::Bitmap:
            return base == "open" && arg.key == "flags" ? Family::OpenFlags
                                                        : Family::ModeBits;
        case ArgClass::Numeric:
            return Family::Numeric;
        case ArgClass::Categorical:
            return base == "setxattr" ? Family::XattrFlags : Family::Whence;
        case ArgClass::Identifier:
            return arg.key == "fd" ? Family::Fd : Family::Path;
    }
    return Family::Numeric;
}

std::vector<std::string> declared(Family family) {
    std::vector<std::string> out;
    switch (family) {
        case Family::OpenFlags:
            for (const auto& info : abi::open_flag_table())
                out.emplace_back(info.name);
            break;
        case Family::ModeBits:
            for (const auto& [bits, name] : kModeBits) out.emplace_back(name);
            out.emplace_back(kNoModeBits);
            break;
        case Family::Numeric:
            out.push_back(stats::bucket_label({LogBucket::Kind::Negative, 0}));
            out.push_back(stats::bucket_label({LogBucket::Kind::Zero, 0}));
            for (unsigned e = 0; e <= kNumericDeclaredMaxExp; ++e)
                out.push_back(stats::bucket_label({LogBucket::Kind::Pow2, e}));
            break;
        case Family::Whence:
            for (int w : abi::seek_whence_values())
                out.push_back(*abi::seek_whence_name(w));
            out.emplace_back(kInvalid);
            break;
        case Family::XattrFlags: out = names(kXattrFlags); break;
        case Family::Fd: out = names(kFdClasses); break;
        case Family::Path: out = names(kPathClasses); break;
    }
    return out;
}

}  // namespace

std::string open_flag_pair_label(std::string_view a, std::string_view b) {
    if (b < a) std::swap(a, b);
    std::string out(a);
    out += '+';
    out += b;
    return out;
}

std::shared_ptr<const Schema> Schema::of(
    const std::vector<SyscallSpec>& registry) {
    if (&registry == &syscall_registry()) {
        static const auto kPaper = std::make_shared<const Schema>(registry);
        return kPaper;
    }
    if (&registry == &extended_syscall_registry()) {
        static const auto kExtended =
            std::make_shared<const Schema>(registry);
        return kExtended;
    }
    return std::make_shared<const Schema>(registry);
}

Schema::Schema(const std::vector<SyscallSpec>& registry) : table_(registry) {
    using stats::PartitionHistogram;
    inputs_.reserve(table_.arg_slot_count());
    outputs_.reserve(registry.size());
    for (const auto& spec : registry) {
        for (const auto& arg : spec.args) {
            const Family family = family_of(spec.base, arg);
            ArgCoverage cov;
            cov.base = spec.base;
            cov.key = arg.key;
            cov.cls = arg.cls;
            cov.hist = PartitionHistogram::with_partitions(declared(family));
            if (family == Family::OpenFlags) {
                open_flags_slot_ = inputs_.size();
                cov.combo_cardinality =
                    PartitionHistogram::with_partitions(names(kCardinalities));
                cov.combo_cardinality_rdonly = cov.combo_cardinality;
            }
            empty_.inputs.push_back(std::move(cov));
            inputs_.push_back(family);
        }

        OutputSpace space;
        space.sized = spec.success == SuccessKind::ByteCount ||
                      spec.success == SuccessKind::Offset;
        std::vector<std::string> labels;
        if (space.sized) {
            labels.push_back(sized_ok_label({LogBucket::Kind::Zero, 0}));
            for (unsigned e = 0; e <= kNumericDeclaredMaxExp; ++e)
                labels.push_back(sized_ok_label({LogBucket::Kind::Pow2, e}));
        } else {
            labels.emplace_back(kOk);
        }
        for (abi::Err e : spec.errors) labels.push_back(abi::err_name(e));
        OutputCoverage ocov;
        ocov.base = spec.base;
        ocov.success = spec.success;
        // with_partitions drops a repeated errno, so rows are looked up.
        ocov.hist = PartitionHistogram::with_partitions(std::move(labels));
        for (abi::Err e : spec.errors) {
            const auto err = static_cast<std::size_t>(e);
            if (err >= space.err_row.size()) space.err_row.resize(err + 1, npos);
            space.err_row[err] = row_of(ocov.hist, abi::err_name(e));
        }
        empty_.outputs.push_back(std::move(ocov));
        outputs_.push_back(std::move(space));
    }

    // Open-flag rows are open_flag_table() indices (no name repeats).
    const auto& flags = abi::open_flag_table();
    flag_count_ = flags.size();
    pair_labels_.reserve(flag_count_ * flag_count_);
    for (std::size_t a = 0; a < flag_count_; ++a) {
        if (flags[a].access_mode && flags[a].bits == abi::O_RDONLY)
            rdonly_row_ = static_cast<std::uint16_t>(a);
        for (std::size_t b = 0; b < flag_count_; ++b)
            pair_labels_.push_back(
                open_flag_pair_label(flags[a].name, flags[b].name));
    }
}

Schema::Hits Schema::classify_input(std::size_t slot,
                                    const trace::ArgView& value) const {
    Hits hits;
    auto land = [&hits](std::size_t row) {
        hits.rows[hits.n++] = static_cast<std::uint16_t>(row);
    };
    switch (inputs_[slot]) {
        case Family::OpenFlags:
            hits.n = abi::open_flag_indices(
                static_cast<std::uint32_t>(as_int(value)), hits.rows.data(),
                hits.rows.size());
            break;
        case Family::ModeBits: {
            const auto mode = static_cast<abi::mode_t_>(as_int(value)) &
                              abi::MODE_PERM_MASK;
            for (std::size_t i = 0; i < kModeBits.size(); ++i)
                if (mode & kModeBits[i].first) land(i);
            if (hits.n == 0) land(kModeBits.size());  // kNoModeBits
            break;
        }
        case Family::Numeric: {
            const auto b = stats::log_bucket_of(as_int(value));
            if (b.kind == LogBucket::Kind::Negative) land(0);
            else if (b.kind == LogBucket::Kind::Zero) land(1);
            else if (b.exponent <= kNumericDeclaredMaxExp) land(2 + b.exponent);
            else hits.undeclared = true;
            break;
        }
        case Family::Whence: {
            const auto& values = abi::seek_whence_values();
            const auto w = static_cast<int>(as_int(value));
            std::size_t i = 0;
            while (i < values.size() && values[i] != w) ++i;
            land(i);  // past the values: kInvalid
            break;
        }
        case Family::XattrFlags:
            switch (as_int(value)) {
                case 0: land(0); break;
                case abi::XATTR_CREATE_: land(1); break;
                case abi::XATTR_REPLACE_: land(2); break;
                default: land(3); break;
            }
            break;
        case Family::Fd: land(fd_row(as_int(value))); break;
        case Family::Path: classify_path(value, hits); break;
    }
    return hits;
}

std::string Schema::undeclared_input_label(const trace::ArgView& value) {
    return stats::bucket_label(stats::log_bucket_of(as_int(value)));
}

std::size_t Schema::classify_output(SyscallId id, std::int64_t ret) const {
    const OutputSpace& space = outputs_[id];
    if (ret >= 0) {
        if (!space.sized) return 0;  // kOk
        const auto b = stats::log_bucket_of(ret);
        if (b.kind == LogBucket::Kind::Zero) return 0;  // OK:=0
        return b.exponent <= kNumericDeclaredMaxExp ? 1 + b.exponent : npos;
    }
    if (ret < -abi::kMaxErrno) return npos;
    const auto err = static_cast<std::size_t>(-ret);
    return err < space.err_row.size() ? space.err_row[err] : npos;
}

std::string Schema::undeclared_output_label(std::int64_t ret) {
    if (ret >= 0) return sized_ok_label(stats::log_bucket_of(ret));
    if (ret < -abi::kMaxErrno) return kBeyondMaxErrno;
    return abi::err_name(static_cast<int>(-ret));
}

std::size_t Schema::cardinality_row(std::size_t flags) {
    assert(flags > 0);
    return std::min(flags, kCardinalities.size()) - 1;
}

}  // namespace iocov::core
