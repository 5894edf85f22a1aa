#include "load.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/client.hpp"
#include "stats.hpp"
#include "testers/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Open-loop rates (the README's serve-mixed load table).
constexpr double kPingHz = 200;
constexpr double kReportHz = 5;
constexpr double kLargePeriodS = 2;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Requests of one kind: attempted/failed counts and latencies (ms,
/// +inf for failures).
struct Series {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> latency_ms;

    void record(bool ok, double ms) {
        ++attempted;
        if (!ok) ++failed;
        latency_ms.push_back(ok ? ms : kInf);
    }
};

struct Pushed {
    std::string name;
    std::string path;
};

/// Events the daemon reports for an accepted push ("accepted NAME (E
/// events, D torn records)"); -1 when the reply is not an acceptance.
long long accepted_events(const std::string& text) {
    if (text.rfind("accepted ", 0) != 0) return -1;
    const auto open = text.rfind(" (");
    if (open == std::string::npos) return -1;
    return std::atoll(text.c_str() + open + 2);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

iocov::serve::Client connect(const std::string& socket) {
    iocov::host::IoError err;
    auto c = iocov::serve::Client::connect({socket, -1}, 5000, &err);
    if (!c) throw std::runtime_error("connect " + socket + ": " +
                                     err.to_string());
    return std::move(*c);
}

void json_number(std::ostream& os, double v) {
    if (std::isfinite(v)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        os << buf;
    } else {
        os << "null";
    }
}

void json_percentile(std::ostream& os, const char* key, const Percentile& p) {
    os << '"' << key << "\": {\"value\": ";
    json_number(os, p.value);
    os << ", \"samples\": " << p.samples << ", \"beyond\": " << p.beyond
       << ", \"reportable\": " << (p.reportable ? "true" : "false") << "}";
}

void json_series(std::ostream& os, const char* key, const Series& s) {
    os << '"' << key << "\": {\"attempted\": " << s.attempted
       << ", \"failed\": " << s.failed << ", ";
    json_percentile(os, "p50", percentile(s.latency_ms, 0.50));
    os << ", ";
    json_percentile(os, "p99", percentile(s.latency_ms, 0.99));
    os << "}";
}

}  // namespace

std::string run_load(const LoadOptions& opt) {
    if (opt.small.empty()) throw std::invalid_argument("load: no small shards");
    std::vector<std::string> small_bytes, large_bytes;
    for (const auto& f : opt.small) small_bytes.push_back(read_file(f.path));
    for (const auto& f : opt.large) large_bytes.push_back(read_file(f.path));

    // The small pool is walked in a seeded order, repeated each cycle.
    std::vector<std::size_t> order(opt.small.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    iocov::testers::Rng rng(opt.seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    auto small_client = connect(opt.socket);
    auto large_client = connect(opt.socket);
    auto query_client = connect(opt.socket);

    Series small, large, ping, report;
    std::vector<double> late_ms;  // open-loop send time minus due time
    std::vector<Pushed> small_pushed, large_pushed;
    std::uint64_t small_events = 0, large_events = 0;
    std::mutex late_mu;
    // An exception in a client thread is kept and rethrown after join.
    std::exception_ptr error;
    std::mutex error_mu;
    const auto guarded = [&](auto body) {
        return [&error, &error_mu, body] {
            try {
                body();
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!error) error = std::current_exception();
            }
        };
    };

    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(opt.seconds));

    auto push_one = [](iocov::serve::Client& c, const std::string& name,
                       const std::string& bytes, const ReplayFile& f,
                       Series& series, Clock::time_point t0,
                       std::uint64_t& events, std::vector<Pushed>& pushed) {
        const auto reply = c.push(name, bytes);
        const auto t1 = Clock::now();
        const bool ok =
            reply && reply->ok &&
            accepted_events(reply->text) == static_cast<long long>(f.events);
        series.record(ok, ms_between(t0, t1));
        if (ok) {
            events += f.events;
            pushed.push_back({name, f.path});
        }
    };

    std::thread small_thread(guarded([&] {
        for (std::size_t i = 0;
             opt.cycle ? Clock::now() < end : i < opt.small.size(); ++i) {
            const std::size_t k = order[i % order.size()];
            char name[32];
            std::snprintf(name, sizeof name, "s%06zu-", i);
            push_one(small_client, name + opt.small[k].name, small_bytes[k],
                     opt.small[k], small, Clock::now(), small_events,
                     small_pushed);
        }
    }));

    std::thread large_thread(guarded([&] {
        if (!opt.cycle || opt.large.empty()) return;
        for (std::size_t k = 0;; ++k) {
            const double due_s = (static_cast<double>(k) + 0.5) *
                                 kLargePeriodS;
            if (due_s >= opt.seconds) break;
            const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(due_s));
            std::this_thread::sleep_until(due);
            {
                std::lock_guard<std::mutex> lock(late_mu);
                late_ms.push_back(ms_between(due, Clock::now()));
            }
            const std::size_t j = k % opt.large.size();
            char name[32];
            std::snprintf(name, sizeof name, "L%04zu-", k);
            push_one(large_client, name + opt.large[j].name, large_bytes[j],
                     opt.large[j], large, due, large_events, large_pushed);
        }
    }));

    std::thread query_thread(guarded([&] {
        if (!opt.cycle) return;
        // One merged schedule: pings at k / kPingHz, reports offset by
        // half a period so the two never share a due time.
        std::vector<std::pair<double, bool>> due;  // (seconds, is_report)
        for (std::size_t k = 0;; ++k) {
            const double t = static_cast<double>(k) / kPingHz;
            if (t >= opt.seconds) break;
            due.emplace_back(t, false);
        }
        for (std::size_t k = 0;; ++k) {
            const double t = (static_cast<double>(k) + 0.5) / kReportHz;
            if (t >= opt.seconds) break;
            due.emplace_back(t, true);
        }
        std::sort(due.begin(), due.end());
        for (const auto& [t, is_report] : due) {
            const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(t));
            std::this_thread::sleep_until(at);
            {
                std::lock_guard<std::mutex> lock(late_mu);
                late_ms.push_back(ms_between(at, Clock::now()));
            }
            const auto reply = query_client.query(is_report ? "report" : "ping");
            const double ms = ms_between(at, Clock::now());
            if (is_report)
                report.record(reply && reply->ok && !reply->text.empty(), ms);
            else
                ping.record(reply && reply->ok && reply->text == "pong", ms);
        }
    }));

    small_thread.join();
    large_thread.join();
    query_thread.join();
    if (error) std::rethrow_exception(error);
    const double push_wall_s = ms_between(start, Clock::now()) / 1e3;

    if (!opt.names_out.empty()) {
        std::ofstream names(opt.names_out);
        for (const auto* list : {&small_pushed, &large_pushed})
            for (const auto& p : *list) names << p.name << '\t' << p.path << '\n';
        if (!names) throw std::runtime_error("cannot write " + opt.names_out);
    }

    std::ostringstream os;
    os << "{\"push_wall_s\": ";
    json_number(os, push_wall_s);
    os << ", \"events_accepted\": " << small_events + large_events
       << ", \"pushes_accepted\": " << small_pushed.size() + large_pushed.size()
       << ", ";
    json_series(os, "push_small", small);
    os << ", ";
    json_series(os, "push_large", large);
    os << ", ";
    json_series(os, "ping", ping);
    os << ", ";
    json_series(os, "report", report);
    os << ", ";
    json_percentile(os, "gen_late", percentile(late_ms, 0.99));
    os << "}";
    return os.str();
}

}  // namespace perfbench
