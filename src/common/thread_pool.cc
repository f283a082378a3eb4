#include "common/thread_pool.h"

#include <algorithm>
#include <iostream>

#include "common/metrics.h"

namespace codes {

namespace {

/// Pool metrics, registered once. Static references: registration
/// survives MetricsRegistry::Reset(), so these stay valid forever.
struct PoolMetrics {
  Gauge& queue_depth =
      MetricsRegistry::Global().GetGauge("pool.queue_depth");
  Histogram& task_wait_us =
      MetricsRegistry::Global().GetHistogram("pool.task_wait_us");
  Counter& submitted =
      MetricsRegistry::Global().GetCounter("pool.tasks_submitted");
  Counter& completed =
      MetricsRegistry::Global().GetCounter("pool.tasks_completed");
  Counter& exceptions =
      MetricsRegistry::Global().GetCounter("pool.task_exceptions");
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = new PoolMetrics();  // never freed
  return *metrics;
}

}  // namespace

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  int n = ResolveThreadCount(num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  if (first_exception_ != nullptr) {
    // Never harvested by a Wait(); a destructor cannot rethrow.
    try {
      std::rethrow_exception(first_exception_);
    } catch (const std::exception& e) {
      std::cerr << "ThreadPool: task exception dropped at destruction: "
                << e.what() << "\n";
    } catch (...) {
      std::cerr << "ThreadPool: task exception dropped at destruction\n";
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  bool timed = MetricsRegistry::Enabled();
  QueuedTask queued{std::move(task),
                    timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{}};
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(queued));
    ++in_flight_;
  }
  Metrics().submitted.Increment();
  Metrics().queue_depth.Add(1);
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr pending;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    pending = std::move(first_exception_);
    first_exception_ = nullptr;
  }
  if (pending != nullptr) std::rethrow_exception(pending);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ set and no work left: workers drain the queue before
        // exiting, so the destructor doubles as Wait().
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    Metrics().queue_depth.Add(-1);
    if (task.enqueued != std::chrono::steady_clock::time_point{} &&
        MetricsRegistry::Enabled()) {
      Metrics().task_wait_us.Observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - task.enqueued)
              .count());
    }
    try {
      task.fn();
    } catch (...) {
      // A throwing task must not kill the worker or wedge Wait(): capture
      // the first exception for the next Wait() to rethrow, count the
      // rest, and keep serving the queue.
      Metrics().exceptions.Increment();
      std::unique_lock<std::mutex> lock(mu_);
      if (first_exception_ == nullptr) {
        first_exception_ = std::current_exception();
      }
    }
    Metrics().completed.Increment();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  size_t shards = std::min(n, static_cast<size_t>(size()));
  if (shards <= 1) {
    body(0, n);  // inline: identical to a serial loop, no handoff
    return;
  }
  size_t chunk = n / shards;
  size_t remainder = n % shards;
  size_t begin = 0;
  for (size_t s = 0; s < shards; ++s) {
    size_t end = begin + chunk + (s < remainder ? 1 : 0);
    Submit([&body, begin, end] { body(begin, end); });
    begin = end;
  }
  Wait();
}

}  // namespace codes
