// A fixed pool of persistent worker threads. Workers are spawned once and
// parked on a condition variable between jobs, so issuing a batch costs a
// wake-up instead of thread creation — the per-query thread spawn of the
// original ParallelDfsEnumerator is exactly what this amortizes away.
// Lives in core/ (not engine/) because ParallelDfsEnumerator fans out
// through it (DESIGN.md §8); the engines run on their query queue
// (engine/query_queue.h) instead.
#ifndef PATHENUM_CORE_THREAD_POOL_H_
#define PATHENUM_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace pathenum {

/// Parallel-region thread pool: RunOnAllWorkers(job) executes job(worker_id)
/// once on every worker concurrently and blocks until all invocations
/// return. Work distribution (queues, cursors, stealing) lives in the
/// caller's job closure, which keeps this class scheduling-agnostic.
class ThreadPool {
 public:
  /// Upper bound on `num_threads`; requests beyond it are configuration
  /// errors (PATHENUM_CHECK), not capacity planning.
  static constexpr uint32_t kMaxWorkers = 4096;

  /// `num_threads` 0 picks std::thread::hardware_concurrency(). Throws
  /// std::logic_error above kMaxWorkers.
  explicit ThreadPool(uint32_t num_threads = 0);

  /// Joins all workers. Outstanding RunOnAllWorkers calls must have
  /// returned.
  ~ThreadPool();

  /// Deterministic teardown, idempotent: a job generation posted before
  /// (or racing) the shutdown still runs to completion — its RunOnWorkers
  /// caller unblocks normally — and the workers exit only once no
  /// generation is pending. After Shutdown, RunOnWorkers must not be
  /// called again. The destructor calls this.
  void Shutdown();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(threads_.size());
  }

  /// Parallel regions issued through RunOnWorkers/RunOnAllWorkers.
  uint64_t jobs_run() const { return jobs_run_.Value(); }

  /// Runs `job(worker_id)` on every worker and waits for completion. If any
  /// invocation throws, the first exception is rethrown here (the remaining
  /// workers still finish). Not reentrant: must not be called from inside a
  /// job, and only one caller thread may use the pool at a time.
  void RunOnAllWorkers(const std::function<void(uint32_t)>& job);

  /// Like RunOnAllWorkers, but only workers with id < `active` execute the
  /// job; the rest wake, skip it, and park again. ParallelDfsEnumerator
  /// uses this to run no more workers than a query has branches.
  void RunOnWorkers(uint32_t active, const std::function<void(uint32_t)>& job);

 private:
  void WorkerLoop(uint32_t worker_id);

  std::vector<std::thread> threads_;
  obs::ShardedCounter jobs_run_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(uint32_t)>* job_ = nullptr;  // valid while active
  uint32_t job_limit_ = 0;   // workers with id >= limit skip the job
  uint64_t generation_ = 0;  // bumped per job; workers latch the last seen
  uint32_t active_ = 0;      // workers still inside the current job
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace pathenum

#endif  // PATHENUM_CORE_THREAD_POOL_H_
