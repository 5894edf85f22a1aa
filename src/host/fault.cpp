#include "host/fault.hpp"

#include <atomic>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

namespace iocov::host {
namespace {

constexpr std::size_t kPhaseCount = 13;

struct Clause {
    enum class Kind : std::uint8_t { Errno, Short, Eof, Kill, KillAfter };
    Kind kind = Kind::Errno;
    std::optional<IoPhase> phase;  ///< nullopt = "any"
    int err = 0;
    std::uint64_t k = 0;  ///< 1-based op index; 0 = every matching op
    std::size_t off = 0;  ///< KillAfter: bytes persisted before the kill
    std::uint64_t seen = 0;
    bool fired = false;
};

struct State {
    std::mutex mu;
    std::vector<Clause> clauses;
    std::array<std::uint64_t, kPhaseCount> ops{};
    std::uint64_t total = 0;
    std::uint64_t write_bytes = 0;
    std::string stats_path;
    bool stats_registered = false;
    bool env_loaded = false;
};

State& state() {
    static State s;
    return s;
}

std::atomic<bool> g_active{false};

void write_stats_at_exit() {
    // Deliberately a plain stdio write: the stats probe runs fault-free
    // and must not recurse into the hooked layer it is describing.
    auto& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.stats_path.empty()) return;
    std::FILE* f = std::fopen(st.stats_path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "total %llu\nwrite_bytes %llu\n",
                 static_cast<unsigned long long>(st.total),
                 static_cast<unsigned long long>(st.write_bytes));
    for (std::size_t i = 0; i < kPhaseCount; ++i)
        if (st.ops[i])
            std::fprintf(f, "%.*s %llu\n",
                         static_cast<int>(
                             phase_name(static_cast<IoPhase>(i)).size()),
                         phase_name(static_cast<IoPhase>(i)).data(),
                         static_cast<unsigned long long>(st.ops[i]));
    std::fclose(f);
}

struct ErrName {
    const char* name;
    int value;
};

constexpr ErrName kErrNames[] = {
    {"ENOSPC", ENOSPC}, {"EIO", EIO},         {"EINTR", EINTR},
    {"EAGAIN", EAGAIN}, {"ENOMEM", ENOMEM},   {"EDQUOT", EDQUOT},
    {"EROFS", EROFS},   {"ENOENT", ENOENT},   {"EACCES", EACCES},
    {"EBADF", EBADF},   {"EFBIG", EFBIG},     {"EMFILE", EMFILE},
    {"ENFILE", ENFILE}, {"EPERM", EPERM},     {"ENODEV", ENODEV},
    {"EISDIR", EISDIR}, {"ENOTDIR", ENOTDIR}, {"EPIPE", EPIPE},
    {"ECONNRESET", ECONNRESET},               {"ECONNABORTED", ECONNABORTED},
    {"ECONNREFUSED", ECONNREFUSED},           {"ENOTCONN", ENOTCONN},
    {"ETIMEDOUT", ETIMEDOUT},
};

std::vector<std::string_view> split(std::string_view s, char sep) {
    std::vector<std::string_view> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const auto next = s.find(sep, pos);
        out.push_back(s.substr(
            pos, next == std::string_view::npos ? std::string_view::npos
                                                : next - pos));
        if (next == std::string_view::npos) break;
        pos = next + 1;
    }
    return out;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
    if (s.empty()) return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = v;
    return true;
}

std::optional<std::string> parse_clause(std::string_view text,
                                        Clause& clause,
                                        std::string& stats_path) {
    const auto fields = split(text, ':');
    const auto err_msg = [&](const char* why) {
        return "bad self-fault clause '" + std::string(text) + "': " + why;
    };
    if (fields.empty() || fields[0].empty())
        return err_msg("empty clause");
    const std::string_view kind = fields[0];

    auto parse_phase = [&](std::string_view name,
                           std::optional<IoPhase>& out) -> bool {
        if (name == "any") {
            out = std::nullopt;
            return true;
        }
        const auto p = phase_from_name(name);
        if (!p) return false;
        out = p;
        return true;
    };

    if (kind == "errno") {
        // errno:<phase|any>:<ERRNO>:<k>
        if (fields.size() != 4) return err_msg("want errno:PHASE:ERRNO:K");
        clause.kind = Clause::Kind::Errno;
        if (!parse_phase(fields[1], clause.phase))
            return err_msg("unknown phase");
        clause.err = parse_errno_name(fields[2]);
        if (clause.err == 0) return err_msg("unknown errno");
        if (!parse_u64(fields[3], clause.k)) return err_msg("bad op index");
        return std::nullopt;
    }
    if (kind == "short") {
        // short:<k>
        if (fields.size() != 2) return err_msg("want short:K");
        clause.kind = Clause::Kind::Short;
        clause.phase = IoPhase::Write;
        if (!parse_u64(fields[1], clause.k) || clause.k == 0)
            return err_msg("bad op index");
        return std::nullopt;
    }
    if (kind == "eof") {
        // eof:<k>
        if (fields.size() != 2) return err_msg("want eof:K");
        clause.kind = Clause::Kind::Eof;
        clause.phase = IoPhase::Read;
        if (!parse_u64(fields[1], clause.k) || clause.k == 0)
            return err_msg("bad op index");
        return std::nullopt;
    }
    if (kind == "kill") {
        // kill:<phase|any>:<k>[:<off>]
        if (fields.size() != 3 && fields.size() != 4)
            return err_msg("want kill:PHASE:K[:OFF]");
        if (!parse_phase(fields[1], clause.phase))
            return err_msg("unknown phase");
        if (!parse_u64(fields[2], clause.k) || clause.k == 0)
            return err_msg("bad op index");
        if (fields.size() == 4) {
            std::uint64_t off = 0;
            if (!parse_u64(fields[3], off)) return err_msg("bad byte offset");
            if (!clause.phase || *clause.phase != IoPhase::Write)
                return err_msg("byte offset only applies to write");
            clause.kind = Clause::Kind::KillAfter;
            clause.off = static_cast<std::size_t>(off);
        } else {
            clause.kind = Clause::Kind::Kill;
        }
        return std::nullopt;
    }
    if (kind == "stats") {
        // stats:<path>  (path may itself contain ':'? keep it simple: no)
        if (fields.size() != 2 || fields[1].empty())
            return err_msg("want stats:PATH");
        stats_path.assign(fields[1]);
        clause.kind = Clause::Kind::Errno;  // sentinel, not installed
        clause.err = -1;
        return std::nullopt;
    }
    return err_msg("unknown clause kind");
}

}  // namespace

int parse_errno_name(std::string_view name) {
    for (const auto& e : kErrNames)
        if (name == e.name) return e.value;
    std::uint64_t v = 0;
    if (parse_u64(name, v) && v > 0 && v < 4096) return static_cast<int>(v);
    return 0;
}

bool FaultHook::active() {
    return g_active.load(std::memory_order_relaxed);
}

FaultHook::Action FaultHook::consult(IoPhase phase) {
    Action action;
    auto& st = state();
    {
        std::lock_guard<std::mutex> lock(st.mu);
        ++st.total;
        ++st.ops[static_cast<std::size_t>(phase)];
        for (auto& c : st.clauses) {
            if (c.fired) continue;
            if (c.phase && *c.phase != phase) continue;
            ++c.seen;
            if (c.k != 0 && c.seen != c.k) continue;
            if (c.k != 0) c.fired = true;
            switch (c.kind) {
                case Clause::Kind::Errno:
                    action.inject_errno = c.err;
                    break;
                case Clause::Kind::Short:
                    action.shorten = true;
                    break;
                case Clause::Kind::Eof:
                    action.eof = true;
                    break;
                case Clause::Kind::Kill:
                    action.kill = true;
                    break;
                case Clause::Kind::KillAfter:
                    action.kill = true;
                    action.kill_after_bytes = c.off;
                    break;
            }
        }
    }
    // A plain kill dies before the op it targets; only the write-torn
    // variant (kill after OFF bytes) is deferred to the caller, which
    // persists the prefix first.
    if (action.kill &&
        (phase != IoPhase::Write || action.kill_after_bytes == SIZE_MAX))
        ::raise(SIGKILL);
    return action;
}

void FaultHook::note_write_bytes(std::uint64_t n) {
    auto& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.write_bytes += n;
}

std::optional<std::string> FaultHook::configure(std::string_view spec) {
    if (spec.empty()) return std::nullopt;
    std::vector<Clause> parsed;
    std::string stats_path;
    for (const auto clause_text : split(spec, ',')) {
        if (clause_text.empty()) continue;
        Clause c;
        if (auto err = parse_clause(clause_text, c, stats_path)) return err;
        if (c.err != -1) parsed.push_back(c);  // -1 = stats sentinel
    }
    auto& st = state();
    bool need_atexit = false;
    {
        std::lock_guard<std::mutex> lock(st.mu);
        for (auto& c : parsed) st.clauses.push_back(std::move(c));
        if (!stats_path.empty()) {
            st.stats_path = std::move(stats_path);
            need_atexit = !st.stats_registered;
            st.stats_registered = true;
        }
        g_active.store(!st.clauses.empty() || !st.stats_path.empty(),
                       std::memory_order_relaxed);
    }
    if (need_atexit) std::atexit(write_stats_at_exit);
    return std::nullopt;
}

void FaultHook::configure_from_env() {
    auto& st = state();
    {
        std::lock_guard<std::mutex> lock(st.mu);
        if (st.env_loaded) return;
        st.env_loaded = true;
    }
    const char* env = std::getenv("IOCOV_SELF_FAULT");
    if (!env || !*env) return;
    if (auto err = configure(env)) {
        std::fprintf(stderr, "iocov: IOCOV_SELF_FAULT: %s\n", err->c_str());
        std::exit(2);
    }
}

void FaultHook::reset() {
    auto& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.clauses.clear();
    st.ops.fill(0);
    st.total = 0;
    st.write_bytes = 0;
    st.stats_path.clear();
    st.env_loaded = false;
    g_active.store(false, std::memory_order_relaxed);
}

std::uint64_t FaultHook::total_ops() {
    auto& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    return st.total;
}

std::uint64_t FaultHook::ops(IoPhase phase) {
    auto& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    return st.ops[static_cast<std::size_t>(phase)];
}

}  // namespace iocov::host
