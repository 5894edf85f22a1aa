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

/// A borrowed argument value, or its absence: what the filter and the
/// analyzer classify.  An ArgValue and a decoded IOCT argument (whose
/// string stays a view of the string table) project onto it alike.
struct ArgView {
    enum class Kind : std::uint8_t { Missing, Int, Uint, Str };

    Kind kind = Kind::Missing;
    std::uint64_t raw = 0;  ///< the integer's bits (Int, Uint)
    std::string_view str;   ///< Str only

    ArgView() = default;
    ArgView(Kind k, std::uint64_t bits, std::string_view s = {})
        : kind(k), raw(bits), str(s) {}
    ArgView(const ArgValue& v) {  // NOLINT: an ArgValue views as itself
        if (const auto* i = std::get_if<std::int64_t>(&v))
            *this = {Kind::Int, static_cast<std::uint64_t>(*i)};
        else if (const auto* u = std::get_if<std::uint64_t>(&v))
            *this = {Kind::Uint, *u};
        else
            *this = {Kind::Str, 0, std::get<std::string>(v)};
    }

    explicit operator bool() const { return kind != Kind::Missing; }

    /// int_value() of the viewed value; nullopt for a string or none.
    std::optional<std::int64_t> int_value() const {
        if (kind == Kind::Int || kind == Kind::Uint)
            return static_cast<std::int64_t>(raw);
        return std::nullopt;
    }
};

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

    /// The string argument `name`; nullopt when missing or not a
    /// string (int_value()/uint_value() read an integer argument).
    std::optional<std::string> str_arg(std::string_view name) const;

    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

}  // namespace iocov::trace
