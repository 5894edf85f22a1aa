// Allocation-counting hook for zero-malloc assertions.
//
// The ingest hot path (batched IOCT decode -> filter -> analyzer) is
// designed to perform no heap allocation in steady state.  "Designed
// to" rots; this hook makes it testable.  When active, the global
// operator new/delete are replaced with counting wrappers and each
// thread keeps a running allocation count, so a test (or `iocov
// analyze --stats`) can snapshot the counter around a loop and assert
// the delta is zero.  It also sums the bytes each allocation requests.
//
// The replacement is compiled out under ASan/TSan/MSan — sanitizers
// interpose the allocator themselves — in which case
// has_allocation_counting() is false and thread_allocation_count()
// stays at zero; callers must gate their assertions on it.
#pragma once

#include <cstdint>

namespace iocov::exec {

/// True when the counting operator new/delete replacement is compiled
/// in (i.e. not a sanitizer build).
bool has_allocation_counting();

/// Number of heap allocations made by the calling thread since it
/// started (0 when counting is unavailable).  Snapshot before/after a
/// region and subtract.
std::uint64_t thread_allocation_count();

/// Bytes those allocations requested (0 when counting is unavailable):
/// what a region asks of the heap, freed or not, so a test can check
/// that it does not grow with the input.
std::uint64_t thread_allocated_bytes();

/// Adds the calling thread's thread_allocated_bytes() to
/// retired_allocated_bytes(); every exec::ThreadPool worker calls it as
/// it exits.
void retire_thread_allocations();

/// Bytes requested by the threads that have retired their count: with
/// the caller's own, what a region that fans out to a pool asks of the
/// heap once the pool is joined.
std::uint64_t retired_allocated_bytes();

}  // namespace iocov::exec
