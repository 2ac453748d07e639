// Asynchronous streaming front-end over the live-graph subsystem (DESIGN.md
// §7): Submit(query, sink) -> QueryTicket enqueues the query on the engine's
// QueryQueue (engine/query_queue.h, the queue QueryEngine also runs on) and
// returns immediately; paths stream into the caller's PathSink from a worker
// thread as they are found (the standard sink contract — return false to stop
// early). SubmitUpdate(delta) applies an update epoch: it prepares the next
// snapshot, incrementally invalidates the shared cache for the new version
// (IndexCache::BeginEpoch with the epoch's UpdateImpact), and only then
// publishes — so every query observes exactly the snapshot that was current
// when it was submitted, updates never corrupt in-flight enumerations, and
// unaffected hot keys keep their cached indexes across updates. A cache miss is
// one solo index build on the worker that claims the ticket. This engine's own
// part is admission policy: the queue bound and shed policy, the oracle gate,
// snapshot capture and cancel wiring.
//
// Threading contract: Submit/TrySubmit and SubmitUpdate may be called from
// any thread (updates serialize internally). A plain query's sink is
// invoked from exactly one worker thread for the duration of that query; a
// split query's sink (SubmitOptions::split_branches) may be invoked from
// several workers, but its participants' BranchSink adapters serialize the
// calls under one gate with a per-ticket stop latch (DESIGN.md §8), so
// plain sinks stay safe. Paths stream as delta-encoded blocks (DESIGN.md
// §9): a sink overriding OnBlock consumes whole blocks — on a split ticket
// one serialized delivery per block of at most 256 paths, each first-level
// branch's blocks in serial order, different branches' interleaved — while
// OnPath-only sinks transparently receive the decoded per-path sequence. A
// participant that finds another inside the sink defers its block into a
// bounded per-worker buffer, so a slow sink parks a worker only when that
// buffer is full.
// The ticket's Wait() synchronizes with the query's completion. Shutdown
// drains the admission queue before stopping the workers; the destructor
// shuts down.
#ifndef PATHENUM_LIVE_ASYNC_ENGINE_H_
#define PATHENUM_LIVE_ASYNC_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "engine/query_queue.h"
#include "live/live_oracle.h"
#include "live/snapshot.h"
#include "obs/metrics.h"

namespace pathenum {

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
  /// index on the submission's snapshot and plans it like the serial path;
  /// an IDX-DFS plan then fans its first-level branches out to *idle*
  /// workers that cooperatively drain them between queue pops — one
  /// straggler query no longer serializes behind the update stream, and
  /// every branch observes exactly the ticket's snapshot (the branches run
  /// on the immutable per-query index) — while an IDX-JOIN plan runs on
  /// the claiming worker. Limit and truncation semantics are identical to
  /// the serial path via the shared BranchGate's per-ticket stop latch.
  bool split_branches = false;
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
  uint32_t num_workers() const { return queue_.num_workers(); }

  /// Blocks until every already-submitted query has completed.
  void Drain() { queue_.Drain(); }

  /// Stops the workers. By default the queue drains first (every queued
  /// ticket runs to completion); with `cancel_pending` the queued tickets
  /// are instead completed immediately as kCancelled without running —
  /// bounded-time teardown under load. In-flight queries always finish
  /// (cancel them through their tickets for a faster exit). Further
  /// Submits return errored tickets. Idempotent.
  void Shutdown(bool cancel_pending = false) {
    queue_.Shutdown(cancel_pending);
  }

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
  /// The one admission path behind Submit (`blocking`) and TrySubmit; see
  /// TrySubmit for the order of its checks.
  QueryTicket Admit(const Query& q, PathSink& sink, const SubmitOptions& opts,
                    bool blocking, double* retry_after_ms);

  AsyncEngineOptions opts_;
  SnapshotManager snapshots_;
  /// Standing oracle, advanced inside SnapshotManager::Prepare/Publish via
  /// AttachOracle; null unless enable_oracle. The manager only dereferences
  /// its borrowed pointer from Prepare/Publish, which cannot be in flight
  /// once ~AsyncEngine has shut the engine down.
  std::unique_ptr<LiveDistanceOracle> oracle_;
  std::unique_ptr<IndexCache> cache_;  // null unless enable_cache
  /// Admission counters, registered as pathenum_async_* metrics beside the
  /// queue's executed / sheds / cancelled_before_run; written under the
  /// queue lock, and ShardedCounter storage keeps them registry-readable
  /// without it.
  obs::ShardedCounter submitted_;
  obs::ShardedCounter queue_rejects_;
  obs::ShardedCounter oracle_rejects_;

  std::mutex update_mutex_;  // serializes Prepare..BeginEpoch..Publish
  QueryQueue queue_;  // last: its workers stop before the cache goes
};

}  // namespace pathenum

#endif  // PATHENUM_LIVE_ASYNC_ENGINE_H_
