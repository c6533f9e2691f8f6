// Fixed-size work-stealing thread pool.
//
// The pool owns N worker threads, each with its own deque. submit()
// distributes tasks round-robin over the deques; a worker pops its own
// deque LIFO (back) for cache locality and, when empty, steals FIFO
// (front) from the others so long chains of slow tasks spread out.
// wait() blocks the caller until every submitted task has finished and
// rethrows the first exception any task raised, so VC2M_CHECK failures
// inside pooled work surface at the call site exactly as they would in
// a serial loop.
//
// The pool makes no ordering promises: callers that need deterministic
// results must make each task a pure function of pre-computed inputs
// writing to its own output slot (see core::run_schedulability_experiment
// and docs/parallelism.md for the contract this enables).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vc2m::util {

/// Snapshot of the pool's per-worker execution telemetry. Counters are
/// monotone over the pool's lifetime (never reset by wait()); sample at
/// two quiescent points and subtract to attribute work to a region.
struct PoolTelemetry {
  struct Worker {
    std::uint64_t executed = 0;  ///< tasks this worker ran to completion
    std::uint64_t steals = 0;    ///< tasks it took from another deque
    std::int64_t idle_ns = 0;    ///< wall time spent parked on the work cv
    std::size_t max_queue = 0;   ///< high-water mark of its own deque
  };
  std::vector<Worker> workers;

  std::uint64_t total_executed() const {
    std::uint64_t n = 0;
    for (const auto& w : workers) n += w.executed;
    return n;
  }
  std::uint64_t total_steals() const {
    std::uint64_t n = 0;
    for (const auto& w : workers) n += w.steals;
    return n;
  }
  std::int64_t total_idle_ns() const {
    std::int64_t n = 0;
    for (const auto& w : workers) n += w.idle_ns;
    return n;
  }
  std::size_t max_queue_depth() const {
    std::size_t n = 0;
    for (const auto& w : workers) n = std::max(n, w.max_queue);
    return n;
  }
};

class ThreadPool {
 public:
  /// Spawn `workers` threads; 0 means hardware_workers().
  explicit ThreadPool(unsigned workers = 0);

  /// Joins the workers. Tasks still queued are drained first; destroying
  /// a pool while another thread is submitting or waiting is undefined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (fixed for the pool's lifetime).
  unsigned workers() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue one task. Tasks may submit further tasks; they must not call
  /// wait() (the pool does not run queued work on a blocked caller).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. If any task threw,
  /// rethrows the first such exception (later ones are dropped) and clears
  /// it, leaving the pool reusable.
  void wait();

  /// max(1, std::thread::hardware_concurrency()).
  static unsigned hardware_workers();

  /// Per-worker execution counters (see PoolTelemetry). The counters are
  /// updated with relaxed atomics, so a snapshot taken while tasks are
  /// running is approximate; snapshot after wait() for exact numbers.
  PoolTelemetry telemetry() const;

  /// Tasks submitted but not yet finished (the value wait() drains to 0).
  std::size_t pending() const;

 private:
  struct WorkerState {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
    // Telemetry: written by the owning worker (executed/steals/idle_ns)
    // or the submitter (max_queue), read by telemetry(). Relaxed is fine —
    // these are statistics, not synchronization.
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::int64_t> idle_ns{0};
    std::atomic<std::size_t> max_queue{0};
  };

  bool try_pop(std::size_t self, std::function<void()>& out);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> threads_;

  // pool_mu_ guards everything below. queued_ counts tasks pushed minus
  // tasks popped (transiently negative while a push's bookkeeping races a
  // steal); in_flight_ counts submitted minus finished.
  mutable std::mutex pool_mu_;  ///< mutable so pending() can stay const
  std::condition_variable work_cv_;  ///< workers sleep here when idle
  std::condition_variable idle_cv_;  ///< wait() sleeps here
  std::ptrdiff_t queued_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t next_ = 0;  ///< round-robin submit cursor
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace vc2m::util
