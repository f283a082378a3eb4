#ifndef CODES_COMMON_THREAD_POOL_H_
#define CODES_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace codes {

/// A fixed-size thread pool with one shared FIFO task queue (no work
/// stealing: every worker pops from the same queue under one mutex, which
/// is plenty for the coarse-grained shards this library runs).
///
/// The pool exists to parallelize embarrassingly parallel evaluation work
/// (eval/parallel_eval.h) while keeping results deterministic: callers
/// write each task's output to a pre-assigned slot, so the merge order
/// never depends on thread interleaving.
///
/// Contract:
///  * A task that throws does NOT take down or wedge its worker: the
///    first escaping exception is captured and rethrown from the next
///    Wait() (or ParallelFor(), which waits); later ones are counted and
///    dropped. After the rethrow the pool is clean and reusable. An
///    exception still pending at destruction is reported to stderr and
///    swallowed (destructors must not throw).
///  * Submit/Wait may be called from any thread, but Wait() only waits for
///    tasks submitted before it is entered.
///  * The destructor drains the queue (it behaves like Wait() + join).
///
/// Observability: the pool feeds the global MetricsRegistry —
/// `pool.queue_depth` (gauge), `pool.task_wait_us` (histogram of
/// enqueue-to-start latency), `pool.tasks_submitted` /
/// `pool.tasks_completed` / `pool.task_exceptions` (counters).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (values <= 0 are resolved via
  /// ResolveThreadCount). A 1-thread pool still spawns its worker; use
  /// ParallelFor for an inline serial fast path.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Blocks until every previously submitted task has finished. If any
  /// task threw since the last Wait, rethrows the first captured
  /// exception (after the queue has drained, so the pool stays
  /// consistent).
  void Wait();

  /// Splits [0, n) into `size()` contiguous shards and runs
  /// `body(begin, end)` for each; blocks until all shards finish. With one
  /// worker (or n <= 1) the body runs inline on the calling thread, so a
  /// single-threaded ParallelFor is bit-for-bit a plain serial loop.
  /// Propagates the first exception a shard threw, like Wait().
  void ParallelFor(size_t n,
                   const std::function<void(size_t, size_t)>& body);

  /// Maps a `num_threads` knob to an actual worker count: values >= 1 pass
  /// through; 0 and negatives mean "one per hardware thread" (at least 1).
  static int ResolveThreadCount(int requested);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    /// Valid only when metrics were enabled at submit time (a
    /// time_point-epoch sentinel otherwise); feeds pool.task_wait_us.
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task ready / stop
  std::condition_variable idle_cv_;  // signals waiters: pool drained
  size_t in_flight_ = 0;             // queued + currently running tasks
  bool stop_ = false;
  /// First exception to escape a task since the last harvest (guarded by
  /// mu_); Wait() moves it out and rethrows.
  std::exception_ptr first_exception_;
};

}  // namespace codes

#endif  // CODES_COMMON_THREAD_POOL_H_
