#include "stats/log_bucket.hpp"

#include <bit>
#include <charconv>
#include <limits>

namespace iocov::stats {

LogBucket log_bucket_of(std::int64_t value) {
    if (value < 0) return {LogBucket::Kind::Negative, 0};
    if (value == 0) return {LogBucket::Kind::Zero, 0};
    const auto uv = static_cast<std::uint64_t>(value);
    const unsigned exp = 63u - static_cast<unsigned>(std::countl_zero(uv));
    return {LogBucket::Kind::Pow2, exp};
}

std::int64_t bucket_lower_bound(const LogBucket& b) {
    switch (b.kind) {
        case LogBucket::Kind::Negative:
            return std::numeric_limits<std::int64_t>::min();
        case LogBucket::Kind::Zero:
            return 0;
        case LogBucket::Kind::Pow2:
            // 1 << 63 is signed overflow; no int64 value lives in that
            // bucket anyway, so saturate (parse rejects exp >= 63 too).
            if (b.exponent >= 63)
                return std::numeric_limits<std::int64_t>::max();
            return std::int64_t{1} << b.exponent;
    }
    return 0;
}

std::string bucket_label(const LogBucket& b) {
    switch (b.kind) {
        case LogBucket::Kind::Negative:
            return "<0";
        case LogBucket::Kind::Zero:
            return "=0";
        case LogBucket::Kind::Pow2:
            return "2^" + std::to_string(b.exponent);
    }
    return "?";
}

std::optional<LogBucket> parse_bucket_label(const std::string& label) {
    if (label == "<0") return LogBucket{LogBucket::Kind::Negative, 0};
    if (label == "=0") return LogBucket{LogBucket::Kind::Zero, 0};
    if (label.size() > 2 && label[0] == '2' && label[1] == '^') {
        unsigned exp = 0;
        const char* first = label.data() + 2;
        const char* last = label.data() + label.size();
        auto [ptr, ec] = std::from_chars(first, last, exp);
        // exp 63 is rejected: no positive int64 reaches it, and the
        // bucket's lower bound would not be representable.
        if (ec == std::errc{} && ptr == last && exp < 63)
            return LogBucket{LogBucket::Kind::Pow2, exp};
    }
    return std::nullopt;
}

}  // namespace iocov::stats
