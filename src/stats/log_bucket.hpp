// Log2 bucketing of numeric syscall arguments and return values.
//
// The paper partitions numeric input spaces (e.g. write sizes) by powers
// of two: bucket k holds all values v with 2^k <= v < 2^(k+1).  Zero is a
// dedicated boundary partition ("Equal to 0" in Fig. 3) because it is the
// minimum size accepted by write(2) yet easily neglected by tests.
// Negative values (which appear in output spaces as -errno) get their own
// bucket so the partitioner can route them to error handling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace iocov::stats {

/// Identifies one power-of-two partition of a numeric space.
///
/// Buckets are ordered: Negative < Zero < Pow2(0) < Pow2(1) < ...
struct LogBucket {
    enum class Kind : std::uint8_t { Negative, Zero, Pow2 };

    Kind kind = Kind::Zero;
    /// Exponent k for Kind::Pow2: the bucket covers [2^k, 2^(k+1)).
    /// Unused (0) for Negative and Zero.
    unsigned exponent = 0;

    friend bool operator==(const LogBucket&, const LogBucket&) = default;
    friend auto operator<=>(const LogBucket&, const LogBucket&) = default;
};

/// Maps a value to its log2 bucket. 0 -> Zero, v<0 -> Negative,
/// otherwise Pow2(floor(log2(v))).
LogBucket log_bucket_of(std::int64_t value);

/// Inclusive lower bound of the bucket (0 for Zero; min int64 for Negative).
std::int64_t bucket_lower_bound(const LogBucket& b);

/// Human label: "<0", "=0", or "2^k".
std::string bucket_label(const LogBucket& b);

/// Parses labels produced by bucket_label back into buckets (round-trip
/// support for serialized coverage reports). Returns nullopt on garbage.
std::optional<LogBucket> parse_bucket_label(const std::string& label);

}  // namespace iocov::stats
