// Asynchronous streaming front-end over the live-graph subsystem
// (DESIGN.md §7): Submit(query, sink) -> QueryTicket enqueues work onto the
// persistent ThreadPool and returns immediately; paths stream into the
// caller's PathSink from a worker thread as they are found (the standard
// sink contract — return false to stop early). SubmitUpdate(delta) applies
// an update epoch: it prepares the next snapshot, incrementally invalidates
// the shared cache for the new version (IndexCache::BeginEpoch with the
// epoch's UpdateImpact), and only then publishes — so every query observes
// exactly the snapshot that was current when it was submitted, updates
// never corrupt in-flight enumerations, and unaffected hot keys keep their
// cached indexes across updates. A cache miss is one solo index build on
// the worker that claims the ticket.
//
// Threading contract: Submit/TrySubmit and SubmitUpdate may be called from
// any thread (updates serialize internally). A plain query's sink is
// invoked from exactly one worker thread for the duration of that query; a
// split query's sink (SubmitOptions::split_branches) may be invoked from
// several workers but calls are serialized through the shared BranchSink
// with its per-ticket stop latch (DESIGN.md §8), so plain sinks stay safe.
// Split tickets run through the split executor QueryEngine shares
// (engine/split_executor.h); this engine's part is recruiting idle workers
// to help the claiming worker drain each published phase.
// Paths stream as delta-encoded blocks (DESIGN.md §9): a sink overriding
// OnBlock consumes whole blocks — one serialized delivery per ~256 paths
// on a split ticket — while OnPath-only sinks transparently receive the
// decoded per-path sequence.
// The ticket's Wait() synchronizes with the query's completion. Shutdown
// drains the admission queue before stopping the workers; the destructor
// shuts down.
#ifndef PATHENUM_LIVE_ASYNC_ENGINE_H_
#define PATHENUM_LIVE_ASYNC_ENGINE_H_

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
#include "core/thread_pool.h"
#include "live/live_oracle.h"
#include "live/snapshot.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pathenum {

class SplitPhase;

struct AsyncEngineOptions {
  /// What happens when a submission finds the admission queue full.
  enum class ShedPolicy : uint8_t {
    /// Newest loses: Submit blocks until space frees; TrySubmit returns an
    /// invalid ticket (counted in queue_rejects) with a retry-after hint.
    kRejectNewest,
    /// Oldest loses: the oldest *queued* (never an in-flight) submission
    /// is completed as QueryState::kCancelled and the new one is admitted
    /// immediately — Submit never blocks under this policy. Right for
    /// freshness-sensitive traffic where a stale queued query has already
    /// missed its purpose.
    kCancelOldest,
  };

  /// Worker threads. 0 picks hardware_concurrency().
  uint32_t num_workers = 0;
  /// Bounded admission: Submit blocks (TrySubmit fails) when this many
  /// queries are already queued.
  size_t max_queue = 1024;
  /// Overload behavior at the admission boundary.
  ShedPolicy shed_policy = ShedPolicy::kRejectNewest;
  /// Shared cross-query cache (incrementally invalidated across updates).
  bool enable_cache = true;
  IndexCacheOptions cache;
  /// Snapshot lifecycle knobs (compaction budget, impact radius).
  SnapshotOptions snapshot;
  /// Standing live distance oracle (DESIGN.md §13): when on, the engine
  /// keeps a LiveDistanceOracle in lockstep with the snapshot stream and
  /// rejects oracle-certified-unsatisfiable submissions at admission — the
  /// ticket completes as QueryState::kUnsatisfiable without ever queueing.
  bool enable_oracle = false;
  LiveOracleOptions oracle;
};

/// Per-submission knobs.
struct SubmitOptions {
  /// Applied to the query's enumeration.
  EnumOptions query;

  /// Heavy-ticket mode (DESIGN.md §8): the claiming worker builds the
  /// index on the submission's snapshot, then fans the first-level DFS
  /// branches out as units that *idle* workers cooperatively drain between
  /// queue pops — one straggler query no longer serializes behind the
  /// update stream, and every branch unit observes exactly the ticket's
  /// snapshot (the units run on the immutable per-query index). Limit and
  /// truncation semantics are identical to the serial path via the shared
  /// BranchGate's per-ticket stop latch. Forces IDX-DFS.
  bool split_branches = false;
};

/// Completion handle for one submitted query. Cheap to copy; all copies
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

  /// The snapshot version this query observes (assigned at Submit).
  uint64_t snapshot_version() const;

  /// The query's lifecycle span record (DESIGN.md §12): stage durations
  /// from admission to completion. Meaningful after Done(); zeroed under
  /// PATHENUM_OBS=0.
  obs::QuerySpanData span() const;

 private:
  friend class AsyncEngine;

  struct State {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    bool done = false;
    QueryStats stats;
    std::string error;
    QueryState query_state = QueryState::kOk;
    CancelToken cancel;  // always cancellable; set at Submit
    uint64_t snapshot_version = 0;
    obs::QuerySpanData span_data;  // copied from the finished span
  };

  explicit QueryTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class AsyncEngine {
 public:
  /// Takes ownership of `base` as the version-0 snapshot.
  explicit AsyncEngine(Graph base, const AsyncEngineOptions& opts = {});
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Enqueues `q` against the current snapshot; `sink` receives the paths
  /// from a worker thread and must outlive the query (use the ticket).
  /// Blocks while the admission queue is full; returns an errored ticket
  /// after Shutdown.
  QueryTicket Submit(const Query& q, PathSink& sink,
                     const EnumOptions& opts = {});
  QueryTicket Submit(const Query& q, PathSink& sink,
                     const SubmitOptions& opts);

  /// Non-blocking Submit. Under kRejectNewest a full queue (or a shut-down
  /// engine) yields an invalid ticket, counts a reject, and — when
  /// `retry_after_ms` is non-null — writes a backlog-derived hint for when
  /// to retry. Under kCancelOldest a full queue sheds the oldest queued
  /// ticket instead and this submission is admitted.
  ///
  /// Submit and TrySubmit share one admission order: shutdown first, then
  /// the oracle (enable_oracle; a certified-unsatisfiable submission
  /// completes as kUnsatisfiable without a queue slot), then the queue-full
  /// policy.
  QueryTicket TrySubmit(const Query& q, PathSink& sink,
                        const EnumOptions& opts = {});
  QueryTicket TrySubmit(const Query& q, PathSink& sink,
                        const SubmitOptions& opts,
                        double* retry_after_ms = nullptr);

  /// Applies one update epoch and returns the new snapshot version.
  /// Queries submitted before this call observe the old snapshot; queries
  /// submitted after it observe the new one (or a newer). The delta must be
  /// valid (endpoints inside the base vertex space) — Apply throws
  /// otherwise; untrusted update streams go through TrySubmitUpdate.
  uint64_t SubmitUpdate(const GraphDelta& delta);

  /// Status-returning SubmitUpdate for untrusted deltas: validates the
  /// endpoints up front (kInvalidArgument, nothing applied) and refuses
  /// after Shutdown (kUnavailable). On success writes the new snapshot
  /// version to `new_version` (if non-null).
  Status TrySubmitUpdate(const GraphDelta& delta,
                         uint64_t* new_version = nullptr);

  /// The snapshot new submissions would observe right now.
  std::shared_ptr<const GraphView> Snapshot() const {
    return snapshots_.Current();
  }

  uint64_t version() const { return snapshots_.version(); }
  uint32_t num_workers() const { return pool_.num_workers(); }

  /// Blocks until every already-submitted query has completed.
  void Drain();

  /// Stops the workers. By default the queue drains first (every queued
  /// ticket runs to completion); with `cancel_pending` the queued tickets
  /// are instead completed immediately as kCancelled without running —
  /// bounded-time teardown under load. In-flight queries always finish
  /// (cancel them through their tickets for a faster exit). Further
  /// Submits return errored tickets. Idempotent.
  void Shutdown(bool cancel_pending = false);

  struct Stats {
    uint64_t submitted = 0;
    uint64_t executed = 0;
    uint64_t updates = 0;
    uint64_t compactions = 0;
    uint64_t queue_rejects = 0;   // TrySubmit refusals (kRejectNewest)
    uint64_t sheds = 0;           // queued tickets shed by kCancelOldest
    /// Tickets whose cancel fired while still queued: completed as
    /// kCancelled at claim time without running.
    uint64_t cancelled_before_run = 0;
    /// Submissions the live oracle certified unsatisfiable at admission:
    /// completed as kUnsatisfiable without queueing (enable_oracle only).
    uint64_t oracle_rejects = 0;
    uint64_t version = 0;
    size_t queue_depth = 0;       // queued, not yet claimed
    IndexCacheStats cache;        // zeros when the cache is disabled
    /// Always zero: fused prebuilds are retired (DESIGN.md §11). Kept only
    /// because the serving benchmark (servebench/) still reads them.
    uint64_t batched_builds = 0;
    uint64_t batched_edges_scanned = 0;
    uint64_t batched_solo_edges = 0;
  };
  Stats stats() const;

  /// The shared cache, or null when disabled.
  IndexCache* cache() { return cache_.get(); }

  /// The standing live oracle, or null unless enable_oracle. Exposed for
  /// stats inspection and for tests to WaitForRelabel.
  LiveDistanceOracle* oracle() { return oracle_.get(); }

 private:
  struct Submission {
    Query query;
    PathSink* sink = nullptr;
    EnumOptions opts;
    bool split = false;
    std::shared_ptr<const GraphView> snapshot;
    std::shared_ptr<QueryTicket::State> state;
    /// Lifecycle span: begun at admission (queue_wait runs until a worker
    /// claims the task) and finished on every completion path — run,
    /// shed, pre-run cancel, or shutdown orphan.
    obs::QuerySpan span;
  };

  /// A split phase published to idle workers (RecruitIdleWorkers) and the
  /// helpers currently inside it; lives on the leader's stack, registered
  /// in split_phases_, and `helpers` is guarded by queue_mutex_.
  struct PublishedPhase {
    SplitPhase* phase;
    uint32_t helpers = 0;
  };

  /// The one admission path behind Submit (`blocking`) and TrySubmit; see
  /// TrySubmit for the order of its checks.
  QueryTicket Admit(const Query& q, PathSink& sink, const SubmitOptions& opts,
                    bool blocking, double* retry_after_ms);

  void WorkerLoop(uint32_t worker);
  void Execute(uint32_t worker, Submission& task);

  /// A split ticket's recruitment (RunSplitQuery): publishes `phase` so
  /// idle workers help between queue pops, drains it on worker `leader`
  /// too, then retires it and waits out the registered helpers.
  void RecruitIdleWorkers(uint32_t leader, SplitPhase& phase);
  /// A published split phase with unclaimed units, or null; queue_mutex_
  /// must be held.
  PublishedPhase* OpenSplitPhaseLocked() const;

  /// Finishes `span` with `query_state` (recording metrics / trace), copies
  /// its record into the ticket state, and signals the waiters.
  static void Complete(QueryTicket::State& state, const QueryStats& stats,
                       std::string error, QueryState query_state,
                       obs::QuerySpan* span = nullptr);

  /// Finishes an admission-time oracle rejection: terminal kUnsatisfiable
  /// span + ticket completion. Called outside queue_mutex_.
  static void CompleteUnsatisfiable(Submission& task);

  /// Completes the oldest queued submission as kCancelled (the
  /// kCancelOldest shed); queue_mutex_ must be held and queue_ non-empty.
  void ShedOldestLocked();

  /// Backlog-derived retry hint for a rejected TrySubmit; queue_mutex_
  /// must be held.
  double RetryAfterLockedMs() const;

  AsyncEngineOptions opts_;
  SnapshotManager snapshots_;
  /// Standing oracle, advanced inside SnapshotManager::Prepare/Publish via
  /// AttachOracle; null unless enable_oracle. The manager only dereferences
  /// its borrowed pointer from Prepare/Publish, which cannot be in flight
  /// once ~AsyncEngine has shut the engine down.
  std::unique_ptr<LiveDistanceOracle> oracle_;
  std::unique_ptr<IndexCache> cache_;  // null unless enable_cache
  ThreadPool pool_;
  std::vector<std::unique_ptr<QueryContext>> contexts_;  // one per worker

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::condition_variable idle_;
  std::deque<Submission> queue_;
  /// Split phases idle workers may help with (guarded by queue_mutex_; the
  /// phases' own state is synchronized by their atomics/mutex).
  std::vector<PublishedPhase*> split_phases_;
  std::condition_variable split_helpers_done_;  // a helper left a phase
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  /// Lifecycle counters, registered as pathenum_async_* metrics. The first
  /// four are only ever written under queue_mutex_; ShardedCounter storage
  /// keeps them registry-readable without the lock.
  obs::ShardedCounter submitted_;
  obs::ShardedCounter executed_;
  obs::ShardedCounter queue_rejects_;
  obs::ShardedCounter sheds_;
  /// EWMA of per-query wall time, feeding the retry-after hint.
  double avg_exec_ms_ = 0.0;
  obs::ShardedCounter cancelled_before_run_;
  /// Admission-time oracle rejections (written under queue_mutex_).
  obs::ShardedCounter oracle_rejects_;

  std::mutex update_mutex_;  // serializes Prepare..BeginEpoch..Publish
  std::mutex shutdown_mutex_;  // serializes the runner join

  std::thread runner_;  // drives pool_.RunOnAllWorkers(WorkerLoop)
};

}  // namespace pathenum

#endif  // PATHENUM_LIVE_ASYNC_ENGINE_H_
