#include "span.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "stats.hpp"

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto p = spans[i].parent;
        if (p >= 0) children.at(static_cast<std::size_t>(p)).push_back(i);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::int64_t covered = 0;
        std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
        for (const auto c : children[i]) {
            const Span& ch = spans[c];
            if (ch.summed_ns >= 0) {
                covered += ch.summed_ns;
                continue;
            }
            const auto lo = std::max(ch.start_ns, s.start_ns);
            const auto hi = std::min(ch.end_ns, s.end_ns);
            if (hi > lo) intervals.emplace_back(lo, hi);
        }
        std::sort(intervals.begin(), intervals.end());
        std::int64_t run_lo = 0, run_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : intervals) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open) covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open) covered += run_hi - run_lo;
        self[i] = s.duration() - covered;
    }
    return self;
}

std::map<std::string, StageTotal> stage_totals(const std::vector<Span>& spans) {
    const auto self = self_times(spans);
    std::map<std::string, StageTotal> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        StageTotal& t = out[spans[i].name];
        t.self_ns += self[i];
        t.total_ns += spans[i].duration();
        t.count += spans[i].count;
    }
    return out;
}

double clock_read_ns() {
    constexpr int kReads = 1000;
    constexpr int kRounds = 31;
    std::vector<double> per_read;
    volatile std::int64_t sink = 0;
    for (int r = 0; r < kRounds; ++r) {
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < kReads; ++i) sink = now_ns();
        per_read.push_back(static_cast<double>(now_ns() - t0) / (kReads + 1));
    }
    (void)sink;
    return median(per_read);
}

std::size_t Tracer::open(const char* name, std::uint64_t id) {
    Span s;
    s.name = name;
    s.id = id;
    s.parent = top();
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
    if (stack_.empty() || stack_.back() != static_cast<std::int64_t>(index))
        throw std::logic_error("span closed out of order");
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
}

void Tracer::add_summed(const char* name, std::uint64_t id, std::int64_t ns,
                        std::uint64_t count) {
    Span s;
    s.name = name;
    s.id = id;
    s.summed_ns = ns;
    s.count = count;
    add(s);
}

void Tracer::add(Span span) {
    span.parent = top();
    if (span.summed_ns >= 0 && span.parent >= 0) {
        // A summed span has no interval of its own; give it the
        // parent's start so the dump stays ordered.
        span.start_ns = span.end_ns =
            spans_[static_cast<std::size_t>(span.parent)].start_ns;
    }
    spans_.push_back(span);
}

void Tracer::write_tsv(std::ostream& os) const {
    const auto self = self_times(spans_);
    os << "name\tid\tparent\tstart_ns\tend_ns\tdur_ns\tself_ns\tcount\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << s.name << '\t' << s.id << '\t' << s.parent << '\t'
           << s.start_ns << '\t' << s.end_ns << '\t' << s.duration() << '\t'
           << self[i] << '\t' << s.count << '\n';
    }
}

}  // namespace perfbench
