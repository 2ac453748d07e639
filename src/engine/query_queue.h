// The one query queue both engines run on (DESIGN.md §5, §7, §8): a FIFO of
// submissions served by N persistent worker threads, each owning one
// reusable QueryContext. A worker claims the oldest submission, rebinds its
// context to the submission's snapshot and runs it — one query on one
// worker, or a split query led by the claiming worker while idle workers
// help drain the branches it publishes — then completes the submission's
// ticket and span together. QueryEngine::RunBatch enqueues a batch and
// waits on its tickets; AsyncEngine enqueues each admitted submission and
// hands the ticket to its caller. Admission policy (bounds, shedding, the
// oracle) stays with the front end, which runs it under the queue lock.
#ifndef PATHENUM_ENGINE_QUERY_QUEUE_H_
#define PATHENUM_ENGINE_QUERY_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "engine/query_context.h"
#include "graph/view.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pathenum {

class SplitPhase;

/// Completion handle for one queued query. Cheap to copy; all copies
/// share the completion state.
class QueryTicket {
 public:
  QueryTicket() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the query finished (or was rejected); returns its stats.
  /// A rejected/failed query returns default stats — check ok()/error().
  const QueryStats& Wait() const;

  /// Non-blocking completion probe.
  bool Done() const;

  /// After Wait: empty on success, else the rejection/failure message.
  const std::string& error() const;
  bool ok() const { return error().empty(); }

  /// The query's terminal state (DESIGN.md §10). kOk until Done(); after
  /// completion: kOk / kTruncated / kDeadlineExceeded / kCancelled for runs
  /// that delivered a (possibly empty) well-formed result, kRejected /
  /// kError when nothing ran / the run failed.
  QueryState state() const;

  /// Requests cooperative cancellation of this query: a queued submission
  /// completes as kCancelled without running; a running one winds down at
  /// its next cancellation checkpoint, keeping everything delivered so far.
  /// Idempotent; safe from any thread. When the submission carried a
  /// caller-provided cancel token, this fires that token (cancelling
  /// whatever else shares it).
  void Cancel() const;

  /// The snapshot version this query observes (assigned at admission).
  uint64_t snapshot_version() const;

  /// The query's lifecycle span record (DESIGN.md §12): stage durations
  /// from admission to completion. Meaningful after Done(); zeroed under
  /// PATHENUM_OBS=0.
  obs::QuerySpanData span() const;

 private:
  friend class QueryQueue;
  friend class AsyncEngine;

  struct State {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    bool done = false;
    QueryStats stats;
    std::string error;
    QueryState query_state = QueryState::kOk;
    CancelToken cancel;  // what Cancel() fires; null unless wired
    uint64_t snapshot_version = 0;
    obs::QuerySpanData span_data;  // copied from the finished span
  };

  explicit QueryTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class QueryQueue {
 public:
  /// One queued query. The front end fills it and begins its span at
  /// admission; the queue completes both.
  struct Submission {
    Query query;
    PathSink* sink = nullptr;
    /// A cancel token here is checked at claim time: a submission whose
    /// token fired while queued completes as kCancelled without running.
    EnumOptions opts;
    /// Run through the split executor (DESIGN.md §8), this query's
    /// claiming worker leading.
    bool split = false;
    IndexCache* cache = nullptr;  // shared by the engine's workers, or null
    std::shared_ptr<const GraphView> snapshot;  // what the query observes
    obs::QuerySpan span;
    std::shared_ptr<QueryTicket::State> state =
        std::make_shared<QueryTicket::State>();
  };

  /// Upper bound on `num_workers`; requests beyond it are configuration
  /// errors (PATHENUM_CHECK), not capacity planning.
  static constexpr uint32_t kMaxWorkers = 4096;

  /// Starts `num_workers` worker threads (0 picks hardware_concurrency()),
  /// each with a context on `view` until its first claim rebinds it. Throws
  /// std::logic_error above kMaxWorkers.
  QueryQueue(const GraphView& view, uint32_t num_workers);
  /// Shutdown(): drains the queue, then joins the workers.
  ~QueryQueue();

  QueryQueue(const QueryQueue&) = delete;
  QueryQueue& operator=(const QueryQueue&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(contexts_.size());
  }

  // Admission under the queue lock, so a front end's policy sees the queue
  // and its own state atomically (AsyncEngine::Admit): take the lock,
  // check, shed or wait, then PushLocked.
  std::unique_lock<std::mutex> Lock() const {
    return std::unique_lock<std::mutex>(mutex_);
  }
  bool ShutDownLocked() const { return shutdown_; }
  size_t DepthLocked() const { return queue_.size(); }
  /// Completes the oldest queued submission as kCancelled (the
  /// kCancelOldest shed); the queue must be non-empty.
  void ShedOldestLocked();
  /// Blocks on `lock` until fewer than `capacity` submissions are queued;
  /// false when the queue shut down meanwhile.
  bool WaitForRoomLocked(std::unique_lock<std::mutex>& lock, size_t capacity);
  /// Backlog-derived retry hint for a refused submission.
  double RetryAfterLockedMs() const;
  /// Enqueues `task` and wakes one worker.
  QueryTicket PushLocked(Submission task);

  /// Blocks until every already-queued submission has completed.
  void Drain();

  /// Stops the workers. The queue drains first, unless `cancel_pending`,
  /// which completes every queued submission as kCancelled without running
  /// it; in-flight queries always finish. Idempotent.
  void Shutdown(bool cancel_pending = false);

  /// A split query's recruitment (RunSplitQuery): publishes `phase` so idle
  /// workers help between queue pops, drains it on worker `leader` too,
  /// then retires it and waits out the registered helpers.
  void RecruitIdleWorkers(uint32_t leader, SplitPhase& phase);

  /// Worker `worker`'s context. Single-owner: only that worker — or a split
  /// phase it is draining — touches it while the queue runs.
  QueryContext& context(uint32_t worker) { return *contexts_[worker]; }

  /// Reusable scratch over all contexts; reading it races a running query.
  size_t ScratchBytes() const;

  /// Finishes `span` (when given) with `query_state`, records the outcome
  /// and the span in `state`, and wakes the waiters.
  static void Complete(QueryTicket::State& state, const QueryStats& stats,
                       std::string error, QueryState query_state,
                       obs::QuerySpan* span = nullptr);

  /// Claimed submissions (run, failed, or cancelled at claim), counted
  /// before their tickets complete.
  const obs::ShardedCounter& executed() const { return executed_; }
  /// Queued submissions whose cancel fired before a worker claimed them.
  const obs::ShardedCounter& cancelled_before_run() const {
    return cancelled_before_run_;
  }
  /// Submissions shed by ShedOldestLocked.
  const obs::ShardedCounter& sheds() const { return sheds_; }

 private:
  /// A split phase published to idle workers and the helpers currently
  /// inside it; lives on the leader's stack, registered in split_phases_,
  /// and `helpers` is guarded by mutex_.
  struct PublishedPhase {
    SplitPhase* phase;
    uint32_t helpers = 0;
  };

  void WorkerLoop(uint32_t worker);
  /// The claim step: runs `task` on `worker` and completes it.
  void Execute(uint32_t worker, Submission& task);
  /// A published split phase with unclaimed units, or null; mutex_ held.
  PublishedPhase* OpenSplitPhaseLocked() const;

  std::vector<std::unique_ptr<QueryContext>> contexts_;  // one per worker

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;  // work queued or a phase published
  std::condition_variable not_full_;   // a worker claimed a submission
  std::condition_variable idle_;       // nothing queued or in flight
  std::condition_variable split_helpers_done_;  // a helper left a phase
  std::deque<Submission> queue_;
  std::vector<PublishedPhase*> split_phases_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  /// EWMA of per-query wall time, feeding the retry-after hint.
  double avg_exec_ms_ = 0.0;

  obs::ShardedCounter executed_;
  obs::ShardedCounter cancelled_before_run_;
  obs::ShardedCounter sheds_;

  std::mutex join_mutex_;  // serializes the worker join
  std::vector<std::thread> workers_;
};

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_QUERY_QUEUE_H_
