#include "trace/filter.hpp"

#include <algorithm>

namespace iocov::trace {
namespace {

constexpr std::int64_t kAtFdCwd = -100;

bool is_open_family(const std::string& name) {
    return name == "open" || name == "openat" || name == "creat" ||
           name == "openat2";
}

bool returns_watchable_fd(const TraceEvent& ev) {
    return is_open_family(ev.syscall) && ev.ok();
}

}  // namespace

FilterConfig FilterConfig::mount_point(const std::string& mount) {
    // "/" strips to "", whose prefix form "/" admits every absolute path.
    const auto last = mount.find_last_not_of('/');
    return {{mount.substr(0, last == std::string::npos ? 0 : last + 1)}, {}};
}

TraceFilter::TraceFilter(const FilterConfig& config) : config_(config) {}

bool TraceFilter::path_in_scope(const std::string& path) const {
    auto matches_any = [&](const std::vector<std::string>& prefixes) {
        return std::any_of(
            prefixes.begin(), prefixes.end(), [&](const std::string& p) {
                return path.starts_with(p) &&
                       (path.size() == p.size() || path[p.size()] == '/');
            });
    };
    return matches_any(config_.include) && !matches_any(config_.exclude);
}

bool TraceFilter::admit(const TraceEvent& event) {
    const auto pid = event.pid;
    auto& watched = watched_[pid];

    // Pointer into the event, not a str_arg() copy: admit() sits on the
    // ingest hot path and must not allocate per event.
    const std::string* path = nullptr;
    if (const Arg* a = event.find_arg("pathname"))
        path = std::get_if<std::string>(&a->value);

    // Resolve whether a (dfd, pathname) pair is in scope.
    auto lookup_in_scope = [&](const std::string* p,
                               std::optional<std::int64_t> dfd) {
        if (p && !p->empty() && p->front() == '/')
            return path_in_scope(*p);
        // Relative path: scope comes from the directory it resolves
        // against — a watched dfd, or the pid's cwd for AT_FDCWD.
        if (dfd && *dfd != kAtFdCwd) return watched.contains(*dfd);
        auto it = cwd_in_scope_.find(pid);
        return it != cwd_in_scope_.end() && it->second;
    };

    bool in_scope = false;
    if (path) {
        in_scope = lookup_in_scope(path, event.int_arg("dfd"));
    } else if (auto fd = event.int_arg("fd")) {
        in_scope = watched.contains(*fd);
    }

    // State updates, in trace order.
    if (event.syscall == "chdir" && event.ok()) {
        if (path) cwd_in_scope_[pid] = lookup_in_scope(path, std::nullopt);
    } else if (event.syscall == "fchdir" && event.ok()) {
        if (auto fd = event.int_arg("fd"))
            cwd_in_scope_[pid] = watched.contains(*fd);
    } else if (returns_watchable_fd(event)) {
        if (in_scope) watched.insert(event.ret);
    } else if (event.syscall == "close" && event.ok()) {
        if (auto fd = event.int_arg("fd")) watched.erase(*fd);
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
    watched_.clear();
    cwd_in_scope_.clear();
}

}  // namespace iocov::trace
