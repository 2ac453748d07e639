#include "live/async_engine.h"

#include <utility>

namespace pathenum {

AsyncEngine::AsyncEngine(Graph base, const AsyncEngineOptions& opts)
    : opts_(opts),
      snapshots_(std::move(base), opts.snapshot),
      cache_(opts.enable_cache ? std::make_unique<IndexCache>(opts.cache)
                               : nullptr),
      queue_(*snapshots_.Current(), opts.num_workers) {
  if (opts_.max_queue == 0) opts_.max_queue = 1;
  if (opts_.enable_oracle) {
    // The oracle labels the version-0 base and then rides every update
    // epoch inside SnapshotManager::Prepare/Publish, so its claims stay in
    // lockstep with whatever snapshot a submission captures.
    oracle_ = std::make_unique<LiveDistanceOracle>(
        snapshots_.Current()->base(), opts_.oracle);
    snapshots_.AttachOracle(oracle_.get());
  }

#if PATHENUM_OBS
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string label =
      "engine=\"" + std::to_string(reg.NextInstanceId()) + "\"";
  const auto counter = [&](const char* name, const obs::ShardedCounter& c) {
    reg.RegisterCounter(this, name, label, &c);
  };
  counter("pathenum_async_submitted_total", submitted_);
  counter("pathenum_async_executed_total", queue_.executed());
  counter("pathenum_async_queue_rejects_total", queue_rejects_);
  counter("pathenum_async_sheds_total", queue_.sheds());
  counter("pathenum_async_cancelled_before_run_total",
          queue_.cancelled_before_run());
  counter("pathenum_async_oracle_rejects_total", oracle_rejects_);
  reg.RegisterGauge(this, "pathenum_async_queue_depth", label, [this] {
    const std::unique_lock<std::mutex> lock = queue_.Lock();
    return static_cast<uint64_t>(queue_.DepthLocked());
  });
  reg.RegisterGauge(this, "pathenum_async_snapshot_version", label,
                    [this] { return snapshots_.version(); });
  reg.RegisterGauge(this, "pathenum_async_workers", label, [this] {
    return static_cast<uint64_t>(queue_.num_workers());
  });
#endif
}

AsyncEngine::~AsyncEngine() {
  Shutdown();
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

QueryTicket AsyncEngine::Submit(const Query& q, PathSink& sink,
                                const EnumOptions& opts) {
  return Submit(q, sink, SubmitOptions{.query = opts});
}

QueryTicket AsyncEngine::TrySubmit(const Query& q, PathSink& sink,
                                   const EnumOptions& opts) {
  return TrySubmit(q, sink, SubmitOptions{.query = opts});
}

namespace {

/// Wires a ticket's cancel token into its submission: the caller's token is
/// shared when one was provided (ticket.Cancel() fires it), otherwise the
/// ticket gets a private token the enumeration observes through opts.
void WireCancel(CancelToken& ticket_cancel, EnumOptions& opts) {
  if (opts.cancel.can_cancel()) {
    ticket_cancel = opts.cancel;
  } else {
    ticket_cancel = CancelToken::Cancellable();
    opts.cancel = ticket_cancel;
  }
}

}  // namespace

QueryTicket AsyncEngine::Submit(const Query& q, PathSink& sink,
                                const SubmitOptions& opts) {
  return Admit(q, sink, opts, /*blocking=*/true, nullptr);
}

QueryTicket AsyncEngine::TrySubmit(const Query& q, PathSink& sink,
                                   const SubmitOptions& opts,
                                   double* retry_after_ms) {
  return Admit(q, sink, opts, /*blocking=*/false, retry_after_ms);
}

QueryTicket AsyncEngine::Admit(const Query& q, PathSink& sink,
                               const SubmitOptions& opts, bool blocking,
                               double* retry_after_ms) {
  QueryQueue::Submission task;
  task.span.Begin(q.source, q.target, q.hops);
  task.query = q;
  task.sink = &sink;
  task.opts = opts.query;
  task.split = opts.split_branches;
  task.cache = cache_.get();
  const std::shared_ptr<QueryTicket::State> state = task.state;
  WireCancel(state->cancel, task.opts);
  std::unique_lock<std::mutex> lock = queue_.Lock();
  if (queue_.ShutDownLocked()) {
    if (!blocking) {
      queue_rejects_.Inc();
      return QueryTicket();
    }
    QueryQueue::Complete(*state, QueryStats{}, "engine is shut down",
                         QueryState::kRejected);
    return QueryTicket(state);
  }
  // The snapshot (and its oracle epoch) is captured while holding the
  // queue lock so ticket version order is consistent with admission
  // order; SubmitUpdate publishes outside this lock, so a submission
  // observes either the old or the new snapshot — never a half-published
  // one, and never an oracle epoch from a different version.
  SnapshotManager::Published pub = snapshots_.CurrentPublished();
  // The oracle verdict comes before any shed, wait or reject: a
  // certified-unsatisfiable submission never needs a queue slot, so it
  // can neither evict queued work under kCancelOldest nor wait for (or
  // be refused) space under kRejectNewest.
  if (pub.oracle.Rejects(q.source, q.target, q.hops)) {
    state->snapshot_version = pub.snapshot->version();
    submitted_.Inc();
    oracle_rejects_.Inc();
    lock.unlock();
    // Completed outside the queue lock with the full observability
    // contract: zero-width queue_wait / index_acquire stages, a terminal
    // kUnsatisfiable span, and the oracle_rejected counter flag
    // (TerminalState round-trips it for batch-shaped consumers).
    task.span.Mark(obs::SpanStage::kQueueWait);
    task.span.Mark(obs::SpanStage::kIndexAcquire);
    QueryStats stats;
    stats.counters.oracle_rejected = true;
    QueryQueue::Complete(*state, stats, "", QueryState::kUnsatisfiable,
                         &task.span);
    return QueryTicket(state);
  }
  if (queue_.DepthLocked() >= opts_.max_queue) {
    if (opts_.shed_policy == AsyncEngineOptions::ShedPolicy::kCancelOldest) {
      queue_.ShedOldestLocked();  // make room; this submission is admitted
    } else if (!blocking) {
      queue_rejects_.Inc();
      if (retry_after_ms != nullptr) {
        *retry_after_ms = queue_.RetryAfterLockedMs();
      }
      return QueryTicket();
    } else {
      if (!queue_.WaitForRoomLocked(lock, opts_.max_queue)) {
        QueryQueue::Complete(*state, QueryStats{}, "engine is shut down",
                             QueryState::kRejected);
        return QueryTicket(state);
      }
      pub = snapshots_.CurrentPublished();  // current at enqueue time
    }
  }
  task.snapshot = std::move(pub.snapshot);
  submitted_.Inc();
  return queue_.PushLocked(std::move(task));
}

uint64_t AsyncEngine::SubmitUpdate(const GraphDelta& delta) {
  // One epoch at a time: prepare the next snapshot, advance the cache to
  // its version (evicting exactly the affected keys) and only then publish.
  // A query admitted mid-epoch therefore either observes the old snapshot
  // (its cache interactions stay valid for the old version) or the fully
  // invalidated new one — never a snapshot the cache has not caught up to.
  const std::lock_guard<std::mutex> lock(update_mutex_);
  const SnapshotManager::Epoch epoch = snapshots_.Prepare(delta);
  if (cache_ != nullptr) {
    const UpdateImpact& impact = epoch.impact;
    cache_->BeginEpoch(epoch.snapshot->version(),
                       [&impact](VertexId s, VertexId t, uint32_t k) {
                         return impact.AffectsQuery(s, t, k);
                       });
  }
  snapshots_.Publish(epoch);
  return epoch.snapshot->version();
}

Status AsyncEngine::TrySubmitUpdate(const GraphDelta& delta,
                                    uint64_t* new_version) {
  {
    const std::unique_lock<std::mutex> lock = queue_.Lock();
    if (queue_.ShutDownLocked()) {
      return Status::Unavailable("engine is shut down");
    }
  }
  // Validate against the base vertex space before anything is applied: a
  // malformed wire delta is rejected whole, the snapshot stream unharmed.
  const Status st = CheckDelta(delta, snapshots_.Current()->num_vertices());
  if (!st.ok()) return st;
  const uint64_t v = SubmitUpdate(delta);
  if (new_version != nullptr) *new_version = v;
  return Status::Ok();
}

AsyncEngine::Stats AsyncEngine::stats() const {
  Stats s;
  {
    const std::unique_lock<std::mutex> lock = queue_.Lock();
    s.submitted = submitted_.Value();
    s.executed = queue_.executed().Value();
    s.queue_rejects = queue_rejects_.Value();
    s.sheds = queue_.sheds().Value();
    s.oracle_rejects = oracle_rejects_.Value();
    s.queue_depth = queue_.DepthLocked();
  }
  s.cancelled_before_run = queue_.cancelled_before_run().Value();
  const SnapshotManager::Stats snap = snapshots_.stats();
  s.updates = snap.updates;
  s.compactions = snap.compactions;
  s.version = snapshots_.version();
  if (cache_ != nullptr) s.cache = cache_->Stats();
  return s;
}

}  // namespace pathenum
