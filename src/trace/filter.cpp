#include "trace/filter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

namespace iocov::trace {
namespace {

constexpr std::int64_t kAtFdCwd = -100;

constexpr std::array<std::pair<std::string_view, SyscallRole>, 7> kRoles = {{
    {"open", SyscallRole::Open},
    {"openat", SyscallRole::Open},
    {"creat", SyscallRole::Open},
    {"openat2", SyscallRole::Open},
    {"chdir", SyscallRole::Chdir},
    {"fchdir", SyscallRole::Fchdir},
    {"close", SyscallRole::Close},
}};

/// Fibonacci hashing of a pid onto a table of 2^bits slots (bits >= 4).
std::size_t slot_of(std::uint32_t pid, int bits) {
    return (pid * 0x9E3779B1u) >> (32 - bits);
}

}  // namespace

std::span<const std::pair<std::string_view, SyscallRole>> syscall_roles() {
    return kRoles;
}

SyscallRole syscall_role(std::string_view name) {
    for (const auto& [n, role] : kRoles)
        if (n == name) return role;
    return SyscallRole::Other;
}

FilterCall FilterCall::of(const TraceEvent& event) {
    FilterCall call;
    call.pid = event.pid;
    call.role = syscall_role(event.syscall);
    call.ret = event.ret;
    for (const Arg& a : event.args) {
        ArgView* slot = a.name == "pathname" ? &call.pathname
                        : a.name == "dfd"    ? &call.dfd
                        : a.name == "fd"     ? &call.fd
                                             : nullptr;
        if (slot && !*slot) *slot = a.value;
    }
    return call;
}

FilterConfig FilterConfig::mount_point(const std::string& mount) {
    // "/" strips to "", whose prefix form "/" admits every absolute path.
    const auto last = mount.find_last_not_of('/');
    return {{mount.substr(0, last == std::string::npos ? 0 : last + 1)}, {}};
}

TraceFilter::TraceFilter(const FilterConfig& config) : config_(config) {}

bool TraceFilter::path_in_scope(std::string_view path) const {
    auto matches_any = [&](const std::vector<std::string>& prefixes) {
        return std::any_of(
            prefixes.begin(), prefixes.end(), [&](const std::string& p) {
                return path.starts_with(p) &&
                       (path.size() == p.size() || path[p.size()] == '/');
            });
    };
    return matches_any(config_.include) && !matches_any(config_.exclude);
}

TraceFilter::PidState* TraceFilter::find(std::uint32_t pid) {
    if (last_ < pids_.size() && pids_[last_].pid == pid) return &pids_[last_];
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = slot_of(pid, std::countr_zero(slots_.size()));
         slots_[s] != 0; s = (s + 1) & mask) {
        if (pids_[slots_[s] - 1].pid == pid) {
            last_ = slots_[s] - 1;
            return &pids_[last_];
        }
    }
    return nullptr;
}

TraceFilter::PidState& TraceFilter::find_or_add(std::uint32_t pid) {
    if (PidState* st = find(pid)) return *st;
    pids_.push_back({pid, false, {}});
    // Indexes pids_[i] at the first free slot of its probe run.
    auto place = [this](std::size_t i) {
        const std::size_t mask = slots_.size() - 1;
        std::size_t s = slot_of(pids_[i].pid, std::countr_zero(slots_.size()));
        while (slots_[s] != 0) s = (s + 1) & mask;
        slots_[s] = static_cast<std::uint32_t>(i + 1);
    };
    if (2 * pids_.size() > slots_.size()) {
        // Regrow: at most a quarter full afterwards.
        slots_.assign(
            std::bit_ceil(std::max<std::size_t>(16, 4 * pids_.size())), 0);
        for (std::size_t i = 0; i + 1 < pids_.size(); ++i) place(i);
    }
    place(pids_.size() - 1);
    last_ = pids_.size() - 1;
    return pids_.back();
}

bool TraceFilter::admit(const FilterCall& call) {
    PidState* st = find(call.pid);
    auto watched = [&st](std::optional<std::int64_t> fd) {
        return fd && st && st->watched.contains(*fd);
    };
    const bool path = call.pathname.kind == ArgView::Kind::Str;

    // Whether the pathname, resolved against `dfd`, is in scope.
    auto lookup_in_scope = [&](std::optional<std::int64_t> dfd) {
        const std::string_view p = call.pathname.str;
        if (!p.empty() && p.front() == '/') return path_in_scope(p);
        // Relative path: scope comes from the directory it resolves
        // against — a watched dfd, or the pid's cwd for AT_FDCWD.
        if (dfd && *dfd != kAtFdCwd) return watched(dfd);
        return st != nullptr && st->cwd_in_scope;
    };

    bool in_scope = false;
    if (path) in_scope = lookup_in_scope(call.dfd.int_value());
    else in_scope = watched(call.fd.int_value());

    // State updates, in trace order.  Only a pid gaining state gets an
    // entry: setting an absent pid's cwd out of scope changes nothing.
    if (call.ret < 0) return in_scope;
    auto set_cwd = [&](bool in) {
        if (st) st->cwd_in_scope = in;
        else if (in) find_or_add(call.pid).cwd_in_scope = true;
    };
    switch (call.role) {
        case SyscallRole::Chdir:
            if (path) set_cwd(lookup_in_scope(std::nullopt));
            break;
        case SyscallRole::Fchdir:
            if (const auto fd = call.fd.int_value()) set_cwd(watched(fd));
            break;
        case SyscallRole::Open:
            if (in_scope) find_or_add(call.pid).watched.insert(call.ret);
            break;
        case SyscallRole::Close:
            if (const auto fd = call.fd.int_value(); fd && st)
                st->watched.erase(*fd);
            break;
        case SyscallRole::Other:
            break;
    }
    return in_scope;
}

std::vector<TraceEvent> TraceFilter::filter(
    const std::vector<TraceEvent>& events) {
    reset();
    std::vector<TraceEvent> kept;
    kept.reserve(events.size());
    for (const auto& ev : events)
        if (admit(ev)) kept.push_back(ev);
    return kept;
}

void TraceFilter::reset() {
    pids_.clear();
    slots_.clear();
    last_ = 0;
}

}  // namespace iocov::trace
