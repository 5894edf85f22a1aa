// Syscall trace events — the substrate replacing LTTng.
//
// The simulated syscall layer emits one TraceEvent per call; the IOCov
// analyzer consumes a stream of them.  An event carries the syscall
// *variant* name ("openat", not "open"), typed arguments, and the raw
// kernel-convention return value (>= 0 success, -errno failure).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace iocov::trace {

/// A traced argument value.  Signed for fds/offsets/whence, unsigned for
/// flags/modes/sizes, string for pathnames and xattr names.
using ArgValue = std::variant<std::int64_t, std::uint64_t, std::string>;

/// The integer in `v`, either signedness read as the requested one;
/// nullopt for a string.
inline std::optional<std::int64_t> int_value(const ArgValue& v) {
    if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
    if (const auto* u = std::get_if<std::uint64_t>(&v))
        return static_cast<std::int64_t>(*u);
    return std::nullopt;
}
inline std::optional<std::uint64_t> uint_value(const ArgValue& v) {
    if (const auto i = int_value(v)) return static_cast<std::uint64_t>(*i);
    return std::nullopt;
}

struct Arg {
    std::string name;
    ArgValue value;

    friend bool operator==(const Arg&, const Arg&) = default;
};

/// One traced system call.
struct TraceEvent {
    std::uint64_t seq = 0;  ///< Monotonic sequence number within a buffer.
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::string syscall;    ///< Variant name as invoked (e.g. "pwrite64").
    std::vector<Arg> args;  ///< In prototype order.
    std::int64_t ret = 0;   ///< >= 0 success; < 0 is -errno.

    bool ok() const { return ret >= 0; }

    /// Argument lookup by name; nullopt if the syscall has no such arg.
    const Arg* find_arg(std::string_view name) const;

    /// Typed accessors; nullopt when missing or of a different type
    /// (an unsigned value reads as signed; uint_value() reads either
    /// kind of integer as unsigned).
    std::optional<std::int64_t> int_arg(std::string_view name) const;
    std::optional<std::string> str_arg(std::string_view name) const;

    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

}  // namespace iocov::trace
