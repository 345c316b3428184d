// fcqss — exec/executor.hpp
// A fixed-size thread pool (std::jthread workers pulling from a bounded
// job_queue) with the one primitive batch synthesis needs: run fn(i) for
// every index in [0, count) and wait for all of them.  Jobs are expected to
// handle their own failures (callers isolate per-item errors); any
// exception that escapes a job anyway is captured and rethrown to the
// caller of for_each_index after the batch drains, so worker threads never
// terminate the process.
#ifndef FCQSS_EXEC_EXECUTOR_HPP
#define FCQSS_EXEC_EXECUTOR_HPP

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/job_queue.hpp"

namespace fcqss::exec {

/// Resolves a user-facing thread-count option: 0 picks the hardware
/// concurrency (at least 1), anything else is taken as given.
[[nodiscard]] std::size_t resolve_thread_count(std::size_t threads) noexcept;

class executor {
public:
    /// Spawns `jobs` workers (0 picks std::thread::hardware_concurrency).
    explicit executor(std::size_t jobs);

    /// Closes the queue and joins the workers (jthread joins on destruction).
    ~executor();

    executor(const executor&) = delete;
    executor& operator=(const executor&) = delete;

    [[nodiscard]] std::size_t jobs() const noexcept { return workers_.size(); }

    /// Runs fn(0) .. fn(count - 1) on the pool and blocks until every call
    /// has finished.  Rethrows the first escaped job exception, if any.
    /// Not reentrant: one batch at a time per executor.
    void for_each_index(std::size_t count, const std::function<void(std::size_t)>& fn);

private:
    void worker_loop(std::size_t index);

    job_queue<std::function<void()>> queue_;
    std::mutex done_mutex_;
    std::condition_variable done_;
    std::size_t pending_ = 0;
    std::exception_ptr first_failure_;
    std::vector<std::jthread> workers_;
};

} // namespace fcqss::exec

#endif // FCQSS_EXEC_EXECUTOR_HPP
