#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "util/error.h"

namespace vc2m::util {

unsigned ThreadPool::hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) workers = hardware_workers();
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.push_back(std::make_unique<WorkerState>());
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  VC2M_CHECK(task != nullptr);
  std::size_t victim;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    VC2M_CHECK_MSG(!stop_, "submit() on a pool being destroyed");
    ++in_flight_;
    victim = next_++ % workers_.size();
  }
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lk(workers_[victim]->mu);
    workers_[victim]->tasks.push_back(std::move(task));
    depth = workers_[victim]->tasks.size();
  }
  std::size_t seen = workers_[victim]->max_queue.load(std::memory_order_relaxed);
  while (depth > seen &&
         !workers_[victim]->max_queue.compare_exchange_weak(
             seen, depth, std::memory_order_relaxed)) {
  }
  // The push must land before queued_ counts it, so a worker woken by the
  // notify below always finds the task when it scans the deques.
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    ++queued_;
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  {
    WorkerState& own = *workers_[self];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    WorkerState& victim = *workers_[(self + k) % workers_.size()];
    std::lock_guard<std::mutex> lk(victim.mu);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      workers_[self]->steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(self, task)) {
      {
        std::lock_guard<std::mutex> lk(pool_mu_);
        --queued_;
      }
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lk(pool_mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      task = nullptr;  // release captures before declaring the task done
      workers_[self]->executed.fetch_add(1, std::memory_order_relaxed);
      bool idle;
      {
        std::lock_guard<std::mutex> lk(pool_mu_);
        idle = --in_flight_ == 0;
      }
      if (idle) idle_cv_.notify_all();
    } else {
      const auto park_start = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lk(pool_mu_);
      work_cv_.wait(lk, [&] { return stop_ || queued_ > 0; });
      workers_[self]->idle_ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - park_start)
              .count(),
          std::memory_order_relaxed);
      if (stop_ && queued_ <= 0) return;
    }
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lk(pool_mu_);
  idle_cv_.wait(lk, [&] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(err);
  }
}

PoolTelemetry ThreadPool::telemetry() const {
  PoolTelemetry t;
  t.workers.reserve(workers_.size());
  for (const auto& w : workers_) {
    PoolTelemetry::Worker out;
    out.executed = w->executed.load(std::memory_order_relaxed);
    out.steals = w->steals.load(std::memory_order_relaxed);
    out.idle_ns = w->idle_ns.load(std::memory_order_relaxed);
    out.max_queue = w->max_queue.load(std::memory_order_relaxed);
    t.workers.push_back(out);
  }
  return t;
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lk(pool_mu_);
  return in_flight_;
}

}  // namespace vc2m::util
