#include "trace/diagnostics.hpp"

#include <algorithm>

namespace iocov::trace {

void ParseDiagnostics::record(std::uint64_t line, std::uint64_t offset,
                              std::string_view reason,
                              std::string_view excerpt) {
    ++total_;
    if (entries_.size() >= max_retained_) return;
    ParseDiagnostic d;
    d.line = line;
    d.offset = offset;
    d.reason = std::string(reason);
    d.excerpt = std::string(excerpt.substr(0, kExcerptBytes));
    entries_.push_back(std::move(d));
}

void ParseDiagnostics::merge(const ParseDiagnostics& other) {
    total_ += other.total_;
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const ParseDiagnostic& a, const ParseDiagnostic& b) {
                         if (a.line != b.line) return a.line < b.line;
                         return a.offset < b.offset;
                     });
    if (entries_.size() > max_retained_) entries_.resize(max_retained_);
}

void ParseDiagnostics::append(const ParseDiagnostics& other,
                              std::string_view label) {
    for (const auto& d : other.entries_)
        record(d.line, d.offset,
               label.empty() ? d.reason
                             : std::string(label) + ": " + d.reason,
               d.excerpt);
    count_only(other.total_ - other.entries_.size());
}

std::string ParseDiagnostics::to_string() const {
    if (total_ == 0) return "no parse diagnostics";
    std::string out = std::to_string(total_) + " input(s) dropped\n";
    for (const auto& d : entries_) {
        out += "  ";
        if (d.line) out += "line " + std::to_string(d.line) + ", ";
        out += "offset " + std::to_string(d.offset) + ": " + d.reason;
        if (!d.excerpt.empty()) out += "  |" + d.excerpt + "|";
        out += "\n";
    }
    if (total_ > entries_.size())
        out += "  ... and " + std::to_string(total_ - entries_.size()) +
               " more\n";
    return out;
}

}  // namespace iocov::trace
