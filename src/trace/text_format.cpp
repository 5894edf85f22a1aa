#include "trace/text_format.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

namespace iocov::trace {
namespace {

// --- tiny recursive-descent helpers over a string_view cursor ---------

struct Cursor {
    std::string_view rest;

    bool consume(std::string_view token) {
        if (rest.substr(0, token.size()) != token) return false;
        rest.remove_prefix(token.size());
        return true;
    }

    void skip_spaces() {
        while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    }

    /// Consumes characters until one of `stops` or end; returns them.
    std::string_view take_until(std::string_view stops) {
        std::size_t i = 0;
        while (i < rest.size() && stops.find(rest[i]) == std::string_view::npos)
            ++i;
        auto out = rest.substr(0, i);
        rest.remove_prefix(i);
        return out;
    }
};

template <typename T>
std::optional<T> parse_number(std::string_view s, int base = 10) {
    T value{};
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value, base);
    // Both failure modes drop the line: result_out_of_range for fields
    // that overflow T (an over-long number in a torn trace must never
    // wrap into a plausible value), invalid_argument / trailing bytes
    // for non-numeric garbage.
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    return value;
}

std::optional<ArgValue> parse_value(Cursor& c, const char** reason) {
    auto fail = [&](const char* r) -> std::nullopt_t {
        if (reason) *reason = r;
        return std::nullopt;
    };
    if (c.rest.empty()) return fail("missing argument value");
    if (c.rest.front() == '"') {
        c.rest.remove_prefix(1);
        std::string raw;
        while (!c.rest.empty() && c.rest.front() != '"') {
            if (c.rest.front() == '\\') {
                if (c.rest.size() < 2)
                    return fail("truncated escape sequence");
                raw += c.rest.substr(0, 2);
                c.rest.remove_prefix(2);
            } else {
                raw += c.rest.front();
                c.rest.remove_prefix(1);
            }
        }
        if (!c.consume("\"")) return fail("unterminated string value");
        auto unescaped = unescape_string(raw);
        if (!unescaped) return fail("invalid escape sequence");
        return ArgValue{std::move(*unescaped)};
    }
    auto token = c.take_until(", =");
    if (token.starts_with("0x")) {
        auto u = parse_number<std::uint64_t>(token.substr(2), 16);
        if (!u) return fail("bad hex argument value");
        return ArgValue{*u};
    }
    auto i = parse_number<std::int64_t>(token);
    if (!i) return fail("bad numeric argument value");
    return ArgValue{*i};
}

}  // namespace

std::string escape_string(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default: out += ch;
        }
    }
    return out;
}

std::optional<std::string> unescape_string(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        if (++i == s.size()) return std::nullopt;
        switch (s[i]) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            default: return std::nullopt;
        }
    }
    return out;
}

std::string format_event(const TraceEvent& event) {
    char head[96];
    std::snprintf(head, sizeof head, "[%09llu] pid=%u tid=%u %s:",
                  static_cast<unsigned long long>(event.seq), event.pid,
                  event.tid, event.syscall.c_str());
    std::string out = head;
    bool first = true;
    for (const auto& arg : event.args) {
        out += first ? " " : ", ";
        first = false;
        out += arg.name;
        out += '=';
        if (const auto* i = std::get_if<std::int64_t>(&arg.value)) {
            out += std::to_string(*i);
        } else if (const auto* u = std::get_if<std::uint64_t>(&arg.value)) {
            char buf[24];
            std::snprintf(buf, sizeof buf, "0x%llx",
                          static_cast<unsigned long long>(*u));
            out += buf;
        } else {
            out += '"';
            out += escape_string(std::get<std::string>(arg.value));
            out += '"';
        }
    }
    out += " = ";
    out += std::to_string(event.ret);
    return out;
}

std::optional<TraceEvent> parse_event(std::string_view line,
                                      const char** reason) {
    Cursor c{line};
    TraceEvent ev;
    auto fail = [&](const char* r) -> std::nullopt_t {
        if (reason) *reason = r;
        return std::nullopt;
    };

    if (!c.consume("[")) return fail("missing '[seq]' header");
    auto seq = parse_number<std::uint64_t>(c.take_until("]"));
    if (!seq || !c.consume("]")) return fail("bad sequence number");
    ev.seq = *seq;

    c.skip_spaces();
    if (!c.consume("pid=")) return fail("missing pid field");
    auto pid = parse_number<std::uint32_t>(c.take_until(" "));
    if (!pid) return fail("bad pid");
    ev.pid = *pid;

    c.skip_spaces();
    if (!c.consume("tid=")) return fail("missing tid field");
    auto tid = parse_number<std::uint32_t>(c.take_until(" "));
    if (!tid) return fail("bad tid");
    ev.tid = *tid;

    c.skip_spaces();
    auto name = c.take_until(":");
    if (name.empty() || !c.consume(":")) return fail("missing syscall name");
    ev.syscall = std::string(name);

    // Arguments until the " = ret" tail.
    for (;;) {
        c.skip_spaces();
        if (c.rest.starts_with("= ")) break;  // no more args
        auto arg_name = c.take_until("=");
        if (arg_name.empty() || !c.consume("="))
            return fail("missing argument name");
        auto value = parse_value(c, reason);
        if (!value) return std::nullopt;  // parse_value set the reason
        ev.args.push_back({std::string(arg_name), std::move(*value)});
        c.skip_spaces();
        if (c.consume(",")) continue;
        if (c.rest.starts_with("= ")) break;
        return fail("malformed argument separator");
    }
    if (!c.consume("= ")) return fail("missing '= ret' tail");
    auto ret = parse_number<std::int64_t>(c.take_until(" "));
    if (!ret) return fail("bad return value");
    ev.ret = *ret;
    c.skip_spaces();
    if (!c.rest.empty()) return fail("trailing bytes after return value");
    return ev;
}

std::vector<std::string_view> split_line_chunks(std::string_view text,
                                                std::size_t n_chunks) {
    std::vector<std::string_view> chunks;
    if (text.empty() || n_chunks == 0) return chunks;
    chunks.reserve(n_chunks);
    const std::size_t target = text.size() / n_chunks + 1;
    std::size_t begin = 0;
    while (begin < text.size() && chunks.size() + 1 < n_chunks) {
        std::size_t end = begin + target;
        if (end >= text.size()) break;
        // Extend to the end of the current line.
        end = text.find('\n', end);
        if (end == std::string_view::npos) break;
        chunks.push_back(text.substr(begin, end + 1 - begin));
        begin = end + 1;
    }
    if (begin < text.size()) chunks.push_back(text.substr(begin));
    return chunks;
}

std::vector<TraceEvent> parse_chunk(std::string_view chunk,
                                    std::size_t* dropped,
                                    ParseDiagnostics* diags,
                                    std::uint64_t first_line,
                                    std::uint64_t base_offset) {
    std::vector<TraceEvent> out;
    if (dropped) *dropped = 0;
    // Lines average ~80 bytes in this format; reserve a conservative
    // estimate to avoid repeated growth during the parallel parse.
    out.reserve(chunk.size() / 96 + 1);
    std::uint64_t line_no = first_line;
    std::uint64_t offset = base_offset;
    while (!chunk.empty()) {
        std::size_t eol = chunk.find('\n');
        std::string_view line = chunk.substr(0, eol);
        const std::size_t consumed =
            eol == std::string_view::npos ? chunk.size() : eol + 1;
        chunk.remove_prefix(consumed);
        const std::uint64_t line_offset = offset;
        offset += consumed;
        const std::uint64_t this_line = line_no++;
        if (line.empty() || line[0] == '#') continue;
        const char* reason = "malformed line";
        if (auto ev = parse_event(line, &reason)) {
            out.push_back(std::move(*ev));
        } else {
            if (dropped) ++*dropped;
            if (diags) diags->record(this_line, line_offset, reason, line);
        }
    }
    return out;
}

std::vector<TraceEvent> parse_stream(std::istream& in, std::size_t* dropped,
                                     ParseDiagnostics* diags) {
    // One bulk copy: an istreambuf_iterator copy goes byte by byte and
    // is several times slower on a multi-megabyte trace.
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_chunk(std::move(buffer).str(), dropped, diags, 1, 0);
}

}  // namespace iocov::trace
