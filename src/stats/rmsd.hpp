// Root Mean Square Deviation helpers.
//
// The paper's Test Coverage Deviation (TCD) metric is an RMSD computed in
// log10 space between observed partition frequencies and a target array.
// The generic numeric kernels live here; the TCD policy (log transform,
// zero handling, target construction) lives in core/tcd.hpp.
#pragma once

#include <span>

namespace iocov::stats {

/// RMSD between two equal-length series: sqrt(mean((a[i]-b[i])^2)).
/// Returns 0.0 for empty input; throws std::invalid_argument on a
/// length mismatch (a real check, not an assert — a short series must
/// fail loudly in release builds too, not read out of bounds).
double rmsd(std::span<const double> a, std::span<const double> b);

/// log10 that tolerates zero counts: log10(max(x, floor)).
/// IOCov uses floor = 1 so an untested partition (count 0) contributes
/// log10(1) = 0, i.e. the full log-distance to the target.
double safe_log10(double x, double floor = 1.0);

/// Arithmetic mean; 0.0 for empty input.
double mean(std::span<const double> xs);

}  // namespace iocov::stats
