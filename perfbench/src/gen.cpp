#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "exec/thread_pool.hpp"
#include "abi/seek.hpp"
#include "syscall/kernel.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "testers/rng.hpp"
#include "trace/binary_format.hpp"
#include "vfs/filesystem.hpp"

namespace perfbench {
namespace {

using namespace iocov;

enum class Sim { Xfstests, Crashmonkey, Ltp, Noise };

/// One simulator run feeding an output file.  For Noise, `noise_events`
/// is the event count to produce.
struct Component {
    Sim sim = Sim::Noise;
    double scale = 0;
    std::uint64_t seed = 0;
    std::uint64_t noise_events = 0;
};

/// One output file: its components are interleaved into it.
struct Job {
    GenFile file;
    std::vector<Component> parts;
    std::uint64_t seed = 0;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    return testers::Rng(a * 0x9e3779b97f4a7c15ULL ^ b).next();
}

/// A simulated tester run, traced through a BinarySink.
std::string run_sim(const Component& c) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    const auto fx = testers::prepare_environment(fs, "/mnt/test");
    std::ostringstream os;
    {
        trace::BinarySink sink(os);
        syscall::Kernel kernel(fs, &sink);
        switch (c.sim) {
            case Sim::Xfstests:
                testers::run_xfstests(kernel, fx, c.scale, c.seed);
                break;
            case Sim::Crashmonkey:
                testers::run_crashmonkey(kernel, fx, c.scale, c.seed);
                break;
            case Sim::Ltp:
                testers::run_ltp(kernel, fx, c.scale, c.seed);
                break;
            case Sim::Noise:
                throw std::logic_error("run_sim: noise");
        }
        sink.finish();
    }
    return os.str();
}

/// Two build processes working on /build: opens, reads, writes, seeks,
/// stats, chmods and truncates, none of them under the mount point.
std::string run_noise(const Component& c) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    std::ostringstream os;
    {
        trace::BinarySink sink(os);
        syscall::Kernel kernel(fs, &sink);
        syscall::Process procs[2] = {
            kernel.make_process(1, vfs::Credentials::root()),
            kernel.make_process(2, vfs::Credentials::root())};
        std::uint64_t n = 0;
        procs[0].sys_mkdir("/build", 0755);
        ++n;
        for (int d = 0; d < 8; ++d) {
            const std::string dir = "/build/d" + std::to_string(d);
            procs[0].sys_mkdir(dir.c_str(), 0755);
            ++n;
        }
        testers::Rng rng(c.seed);
        while (n < c.noise_events) {
            auto& p = procs[rng.below(2)];
            const std::string path = "/build/d" + std::to_string(rng.below(8)) +
                                     "/f" + std::to_string(rng.below(48)) +
                                     ".o";
            switch (rng.below(6)) {
                case 0: {
                    const auto fd = static_cast<int>(p.sys_open(
                        path.c_str(),
                        abi::O_CREAT | abi::O_WRONLY | abi::O_TRUNC, 0644));
                    ++n;
                    if (fd < 0) break;
                    for (auto k = rng.range(1, 4); k > 0; --k, ++n)
                        p.sys_write(fd, syscall::WriteSrc::pattern(
                                            std::uint64_t{1} << rng.below(16),
                                            std::byte{0x2e}));
                    p.sys_close(fd);
                    ++n;
                    break;
                }
                case 1: {
                    const auto fd = static_cast<int>(
                        p.sys_open(path.c_str(), abi::O_RDONLY));
                    ++n;
                    if (fd < 0) break;
                    p.sys_lseek(fd, 0, abi::SEEK_END_);
                    p.sys_lseek(fd, 0, abi::SEEK_SET_);
                    p.sys_read(fd, syscall::ReadDst::discard(
                                       std::uint64_t{1} << rng.below(14)));
                    p.sys_close(fd);
                    n += 4;
                    break;
                }
                case 2:
                    p.sys_stat(path.c_str());
                    ++n;
                    break;
                case 3:
                    p.sys_chmod(path.c_str(), rng.chance(1, 2) ? 0644 : 0755);
                    ++n;
                    break;
                case 4:
                    p.sys_truncate(path.c_str(),
                                   static_cast<std::int64_t>(rng.below(1 << 16)));
                    ++n;
                    break;
                default:
                    p.sys_mkdir((path + ".dir").c_str(), 0755);
                    ++n;
                    break;
            }
        }
        sink.finish();
    }
    return os.str();
}

std::string run_component(const Component& c) {
    return c.sim == Sim::Noise ? run_noise(c) : run_sim(c);
}

/// Interleaves decoded simulator runs into one IOCT trace: pids are
/// renumbered in order of first appearance (100, 101, ...), the next
/// event is drawn from a part chosen with probability proportional to
/// its remaining events, and each part's own order (hence every pid's
/// order) is kept.  Sequence numbers are reassigned in output order.
std::string interleave(const std::vector<std::string>& parts,
                       const std::vector<bool>& is_noise, std::uint64_t seed,
                       GenFile& file) {
    std::vector<trace::IoctScan> scans;
    scans.reserve(parts.size());
    std::vector<std::size_t> next(parts.size(), 0);
    std::uint64_t total = 0;
    for (const auto& p : parts) {
        scans.push_back(trace::scan_ioct(p));
        if (!scans.back().header_ok || scans.back().dropped)
            throw std::runtime_error("generator: simulator trace is damaged");
        total += scans.back().events.size();
    }
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> pid_maps(
        parts.size());
    std::uint32_t next_pid = 100;
    const auto renumber = [&](std::size_t k, std::uint32_t pid) {
        auto [it, fresh] = pid_maps[k].try_emplace(pid, next_pid);
        if (fresh) ++next_pid;
        return it->second;
    };

    testers::Rng rng(seed);
    std::ostringstream os;
    trace::BinarySink sink(os);
    trace::TraceEvent ev;
    std::uint64_t seq = 0;
    file.events = total;
    for (std::uint64_t left = total; left > 0; --left) {
        auto r = rng.below(left);
        std::size_t k = 0;
        for (;; ++k) {
            const auto remaining = scans[k].events.size() - next[k];
            if (r < remaining) break;
            r -= remaining;
        }
        const trace::EventRef& ref = scans[k].events[next[k]++];
        const std::string_view payload(parts[k].data() + ref.offset,
                                       ref.length);
        if (!trace::decode_event(payload, scans[k].strings, ev))
            throw std::runtime_error("generator: undecodable event");
        ev.pid = renumber(k, ev.pid);
        ev.tid = renumber(k, ev.tid);
        ev.seq = seq++;
        sink.emit(ev);
        if (is_noise[k]) ++file.noise_events;
    }
    sink.finish();
    file.pids = next_pid - 100;
    return os.str();
}

/// A CrashMonkey/LTP-sized shard: one or two tester runs plus build
/// processes contributing about as many out-of-scope events.  Shard
/// sets are stratified: shard `stratum` of `strata` takes the matching
/// quantile of a log-uniform tester scale in [0.02, max_scale] (sizes
/// spread over decades, like a fleet of tiny bounded workloads), so
/// every seed draws the same mix of sizes and testers and only the
/// content and the order change.
Job small_shard(const std::string& kind, const std::string& path,
                std::uint64_t seed, std::size_t stratum, std::size_t strata,
                double max_scale) {
    Job job;
    job.file.kind = kind;
    job.file.path = path;
    job.seed = mix(seed, 1);
    const double u = (static_cast<double>(stratum) + 0.5) /
                     static_cast<double>(strata);
    const double scale = 0.02 * std::pow(max_scale / 0.02, u);
    const std::size_t runs = 1 + stratum % 2;
    for (std::size_t i = 0; i < runs; ++i) {
        Component c;
        c.sim = (stratum / 2 + i) % 2 ? Sim::Ltp : Sim::Crashmonkey;
        c.scale = scale / static_cast<double>(runs);
        c.seed = mix(seed, 10 + i);
        job.parts.push_back(c);
    }
    Component noise;
    noise.seed = mix(seed, 99);
    // ~30K events per unit of tester scale (measured for both testers).
    noise.noise_events =
        static_cast<std::uint64_t>(std::max(64.0, scale * 30000.0));
    job.parts.push_back(noise);
    return job;
}

/// A seeded permutation of [0, n): which stratum each shard gets.
std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = i;
    testers::Rng rng(seed);
    for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
    return v;
}

Job xfstests_file(const std::string& kind, const std::string& path,
                  std::uint64_t seed, unsigned runs, double scale,
                  bool noise) {
    Job job;
    job.file.kind = kind;
    job.file.path = path;
    job.seed = mix(seed, 1);
    for (unsigned i = 0; i < runs; ++i)
        job.parts.push_back({Sim::Xfstests, scale, mix(seed, 10 + i), 0});
    if (noise) {
        Component c;
        c.seed = mix(seed, 99);
        // ~15.3M events per unit of xfstests scale.
        c.noise_events =
            static_cast<std::uint64_t>(runs * scale * 15.3e6);
        job.parts.push_back(c);
    }
    return job;
}

std::string numbered(const char* prefix, std::size_t i, const char* ext) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%04zu%s", prefix, i, ext);
    return buf;
}

std::vector<Job> plan(const std::string& workload, std::uint64_t seed,
                      double size) {
    const auto count = [&](double n) {
        return static_cast<std::size_t>(std::max(1.0, std::round(n * size)));
    };
    std::vector<Job> jobs;
    if (workload == "xfstests-serial") {
        // Four xfstests runs at scale 0.02 (~307K events each).
        jobs.push_back(xfstests_file("trace", "trace/trace.ioct",
                                     mix(seed, 1), 4, 0.02 * size, false));
        // A median-sized small shard, so the traced run can time a
        // small push on this workload too.
        jobs.push_back(small_shard("probe", "probe/probe.ioct", mix(seed, 2),
                                   0, 1, 1.0));
    } else if (workload == "fleet-dir") {
        const auto n_small = count(300);
        const auto n_big = count(2);
        // The xfstests shards land at seeded positions among the small
        // ones, so name order does not put all the big work last.
        const auto order = shuffled(n_small + n_big, mix(seed, 3));
        for (std::size_t i = 0; i < order.size(); ++i) {
            const auto path = numbered("shards/shard-", i, ".ioct");
            jobs.push_back(order[i] >= n_small
                               ? xfstests_file("shard", path,
                                               mix(seed, 100 + i), 1,
                                               0.01 * size, true)
                               : small_shard("shard", path, mix(seed, 100 + i),
                                             order[i], n_small, 1.0));
        }
    } else if (workload == "serve-mixed") {
        const auto n_small = count(64);
        const auto order = shuffled(n_small, mix(seed, 3));
        for (std::size_t i = 0; i < n_small; ++i)
            jobs.push_back(small_shard("small",
                                       numbered("small/small-", i, ".ioct"),
                                       mix(seed, 100 + i), order[i], n_small,
                                       0.5));
        for (std::size_t i = 0; i < 2; ++i)
            jobs.push_back(xfstests_file("large",
                                         numbered("large/large-", i, ".ioct"),
                                         mix(seed, 10000 + i), 1,
                                         0.02 * size, false));
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    return jobs;
}

}  // namespace

std::vector<GenFile> generate(const std::string& workload, std::uint64_t seed,
                              const std::string& out_dir, double size,
                              unsigned threads) {
    namespace fs = std::filesystem;
    auto jobs = plan(workload, seed, size);

    // Phase 1: every simulator run, in parallel.
    struct PartRef {
        std::size_t job, part;
    };
    std::vector<PartRef> refs;
    std::vector<std::vector<std::string>> parts(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        parts[j].resize(jobs[j].parts.size());
        for (std::size_t p = 0; p < jobs[j].parts.size(); ++p)
            refs.push_back({j, p});
    }
    exec::ThreadPool pool(std::max(1u, threads));
    exec::parallel_for(pool, refs.size(), [&](std::size_t i) {
        const auto [j, p] = refs[i];
        parts[j][p] = run_component(jobs[j].parts[p]);
    });

    // Phase 2: interleave and write each file.
    for (const auto& job : jobs)
        fs::create_directories((fs::path(out_dir) / job.file.path).parent_path());
    exec::parallel_for(pool, jobs.size(), [&](std::size_t j) {
        Job& job = jobs[j];
        std::vector<bool> is_noise;
        for (const auto& c : job.parts) is_noise.push_back(c.sim == Sim::Noise);
        const std::string bytes =
            interleave(parts[j], is_noise, job.seed, job.file);
        parts[j].clear();
        job.file.bytes = bytes.size();
        const fs::path path = fs::path(out_dir) / job.file.path;
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        if (!out) throw std::runtime_error("cannot write " + path.string());
    });

    std::vector<GenFile> files;
    for (auto& job : jobs) files.push_back(job.file);

    // A header-only trace: what the batch workloads' setup time runs on.
    GenFile empty;
    empty.kind = "empty";
    empty.path = "empty.ioct";
    const std::string header = trace::ioct_header();
    empty.bytes = header.size();
    {
        std::ofstream out(fs::path(out_dir) / empty.path, std::ios::binary);
        out << header;
    }
    files.push_back(empty);

    std::ofstream manifest(fs::path(out_dir) / "manifest.tsv");
    manifest << "kind\tpath\tevents\tbytes\tpids\tnoise_events\n";
    for (const auto& f : files)
        manifest << f.kind << '\t' << f.path << '\t' << f.events << '\t'
                 << f.bytes << '\t' << f.pids << '\t' << f.noise_events
                 << '\n';
    if (!manifest) throw std::runtime_error("cannot write manifest");
    return files;
}

}  // namespace perfbench
