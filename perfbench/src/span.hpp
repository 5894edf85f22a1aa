// In-memory spans for the traced run.
//
// A span records a name, the id of the input it belongs to (all spans
// of one trace file or one push share it), its parent span, and a start
// and end time.  Per-event stages are recorded as *summed* spans, one
// per stage per decode chunk, whose duration is the sum of that stage's
// per-event intervals inside the parent; this keeps the span count per
// chunk, not per event.  It does not save clock reads: every interval
// still costs about one clock read, as long as a short stage itself.
// That cost is measured once (clock_read_ns) and moved out of each
// summed span by its interval count.
//
// Self time is a span's duration minus the part of it its children
// cover: the union of its interval children (clipped to the parent, so
// overlapping children from parallel lanes count once) plus the sum of
// its summed children.  Spans stay in memory until the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    const char* name = "";     ///< static string
    std::uint64_t id = 0;      ///< input (file / push) the span belongs to
    std::int64_t parent = -1;  ///< index into the span vector; -1 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t summed_ns = -1;  ///< >= 0 marks a summed span
    std::uint64_t count = 1;      ///< intervals folded into a summed span

    std::int64_t duration() const {
        return summed_ns >= 0 ? summed_ns : end_ns - start_ns;
    }
};

/// Self time of every span, indexed like `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct StageTotal {
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;  ///< sum of durations
    std::uint64_t count = 0;    ///< spans, or intervals for summed spans
};
std::map<std::string, StageTotal> stage_totals(const std::vector<Span>& spans);

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Cost of one now_ns() call: the median over rounds of a tight loop of
/// back-to-back reads.  An interval between two chained reads takes in
/// about this much besides the work it brackets.
double clock_read_ns();

/// Single-threaded span recorder with an implicit parent stack.
class Tracer {
  public:
    /// Opens a span as a child of the innermost open span.
    std::size_t open(const char* name, std::uint64_t id);
    void close(std::size_t index);

    /// Records a summed span under the innermost open span.
    void add_summed(const char* name, std::uint64_t id, std::int64_t ns,
                    std::uint64_t count);

    /// Appends a finished span under the innermost open span (used for
    /// spans recorded elsewhere, e.g. by worker threads).
    void add(Span span);

    /// The innermost open span's index (-1 when none is open).
    std::int64_t top() const { return stack_.empty() ? -1 : stack_.back(); }

    const std::vector<Span>& spans() const { return spans_; }

    /// One line per span: name, id, parent, start, end, duration, self
    /// time (ns) and count, tab-separated, with a header line.
    void write_tsv(std::ostream& os) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
  public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id)
        : tracer_(tracer), index_(tracer ? tracer->open(name, id) : 0) {}
    ~Scope() {
        if (tracer_) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_;
    std::size_t index_;
};

}  // namespace perfbench
