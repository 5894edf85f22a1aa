// Structured gap reports: what a coverage report says to test next.
//
// A CoverageReport names which partitions a suite exercised; this module
// turns the complement into data a synthesizer can act on.  A Gap is one
// untested partition (input or output) annotated with its share of the
// TCD deviation for its space, so callers can rank gaps by how much
// closing each one would move the metric.  extract_gaps() is the
// measure half of the guide loop (testers/guided); the synthesize half
// maps each Gap to a concrete syscall recipe.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/coverage.hpp"

namespace iocov::core {

/// One untested partition, ranked by TCD contribution.
struct Gap {
    enum class Kind : std::uint8_t { Input, Output };
    Kind kind = Kind::Input;
    std::string base;        ///< base syscall ("open", "write", ...)
    std::string arg;         ///< argument key (inputs only; empty for outputs)
    std::string partition;   ///< the untested partition label
    std::string suggestion;  ///< human-readable test idea (from core/untested)
    /// This partition's share of the squared TCD deviation for its
    /// space, against the uniform target the gaps were extracted with.
    double tcd_share = 0.0;

    /// "base.arg:partition" for inputs, "base:partition" for outputs.
    std::string id() const;
};

/// Per-space TCD snapshot (one input-argument or output space).
struct SpaceTcd {
    std::string base;
    std::string arg;  ///< empty for output spaces
    double tcd = 0.0;
    std::size_t untested = 0;  ///< partitions at count 0
    std::size_t declared = 0;  ///< total partitions in the space
};

/// Everything extract_gaps() learns from one report.
struct GapReport {
    std::vector<Gap> input_gaps;   ///< untested input partitions
    std::vector<Gap> output_gaps;  ///< unreached output partitions
    std::vector<SpaceTcd> spaces;  ///< per-space TCD, report order
    double target = 0.0;           ///< uniform target used throughout
    /// Mean of the per-space TCDs — the scalar the guide loop drives
    /// down.  Comparable across reports only for the same target.
    double aggregate_tcd = 0.0;

    std::size_t total_gaps() const {
        return input_gaps.size() + output_gaps.size();
    }
};

/// Extracts every untested partition from `report`, with per-space TCD
/// against a uniform `target` and per-gap deviation shares.  Within a
/// space, gaps are ordered by descending TCD share (label-tie-broken),
/// i.e. the order tcd_attribution() ranks them; spaces follow report
/// order.  Every returned gap has count 0 in `report`, and every
/// count-0 partition of `report` is returned.
GapReport extract_gaps(const CoverageReport& report, double target);

}  // namespace iocov::core
