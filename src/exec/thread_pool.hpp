// Minimal fixed-size thread pool used by the parallel analysis pipeline.
//
// Deliberately small: a FIFO of std::function jobs and N worker
// threads; parallel_for() is the completion barrier.  Pools are cheap
// enough to create per parallel operation (thread spawn is microseconds
// next to parsing a multi-megabyte trace), which keeps thread ownership
// obvious and avoids global executor state.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iocov::exec {

class ThreadPool {
  public:
    /// Spawns `n_threads` workers (at least one).
    explicit ThreadPool(unsigned n_threads = default_thread_count());
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues a job; runs on some worker in FIFO order.
    void submit(std::function<void()> job);

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /// hardware_concurrency(), floored at 1 (the standard allows 0).
    static unsigned default_thread_count();

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable work_cv_;   // workers wait for jobs / stop
    bool stop_ = false;
};

/// Runs fn(0), ..., fn(n-1) on the pool and blocks until all complete.
/// If any invocation throws, the first exception is rethrown here after
/// the remaining iterations finish (no job is cancelled mid-flight).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Weighted work-stealing variant for unevenly sized items (e.g. trace
/// files scheduled by byte count).  Items are dealt longest-processing-
/// time-first onto one deque per worker lane; each lane drains its own
/// deque from the front and, when empty, steals from the back of the
/// most-loaded lane, so one huge file cannot serialize the tail of the
/// run.  Every item is attempted exactly once; the first exception is
/// rethrown after all items finish.  Items are coarse (whole files), so
/// a single mutex over the deques is plenty — this is scheduling
/// policy, not a lock-free queue exercise.
void parallel_for_stealing(ThreadPool& pool,
                           const std::vector<std::uint64_t>& weights,
                           const std::function<void(std::size_t)>& fn);

}  // namespace iocov::exec
