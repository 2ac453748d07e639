#include "engine/query_engine.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "engine/split_executor.h"
#include "util/timer.h"

namespace pathenum {

namespace {

/// Per-worker task deques with stealing: a worker drains its own deque from
/// the front and, when empty, steals from the back of the others. Tasks
/// are dealt round-robin, so under even load every worker mostly touches
/// its own deque; skew (one worker stuck on a heavy query) drains through
/// steals without any coordination beyond the per-deque mutex.
class WorkStealingQueues {
 public:
  WorkStealingQueues(uint32_t workers, size_t num_tasks,
                     obs::ShardedCounter& steals)
      : queues_(workers), steals_(steals) {
    for (size_t t = 0; t < num_tasks; ++t) {
      queues_[t % workers].tasks.push_back(t);
    }
  }

  /// Claims a task for `worker`; returns false when the batch is drained.
  bool Pop(uint32_t worker, size_t& out) {
    Queue& own = queues_[worker];
    {
      const std::lock_guard<std::mutex> lock(own.mutex);
      if (!own.tasks.empty()) {
        out = own.tasks.front();
        own.tasks.pop_front();
        return true;
      }
    }
    const uint32_t n = static_cast<uint32_t>(queues_.size());
    for (uint32_t i = 1; i < n; ++i) {
      Queue& victim = queues_[(worker + i) % n];
      const std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.tasks.empty()) {
        out = victim.tasks.back();
        victim.tasks.pop_back();
        steals_.Inc();
        return true;
      }
    }
    return false;
  }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<size_t> tasks;
  };
  std::vector<Queue> queues_;
  obs::ShardedCounter& steals_;
};

/// Delivers one run's paths to every sink of a deduplicated query group.
/// Each sink may stop independently (and is then never called again, per
/// the PathSink contract); the enumeration continues while any sink wants
/// more. Per-sink delivery counts and stop flags let the engine report
/// each duplicate's stats exactly as a standalone run would have.
class FanoutSink : public PathSink {
 public:
  explicit FanoutSink(std::vector<PathSink*> sinks)
      : sinks_(std::move(sinks)),
        active_(sinks_.size(), 1),
        delivered_(sinks_.size(), 0) {}

  bool OnPath(std::span<const VertexId> path) override {
    bool any = false;
    for (size_t i = 0; i < sinks_.size(); ++i) {
      if (!active_[i]) continue;
      ++delivered_[i];
      if (sinks_[i]->OnPath(path)) {
        any = true;
      } else {
        active_[i] = 0;
      }
    }
    return any;
  }

  /// Block delivery: each still-active duplicate consumes the block
  /// through its own OnBlock (order per sink preserved). The fanned-out
  /// run continues while any sink wants more, so the outer consumed count
  /// is the maximum share any sink took — exactly where per-path emission
  /// would have stopped (the path on which the last active sink refused).
  BlockResult OnBlock(const PathBlockView& block) override {
    uint64_t consumed = 0;
    bool any = false;
    for (size_t i = 0; i < sinks_.size(); ++i) {
      if (!active_[i]) continue;
      const BlockResult r = sinks_[i]->OnBlock(block);
      delivered_[i] += r.consumed;
      consumed = std::max(consumed, r.consumed);
      if (r.stop || r.consumed < block.count) {
        active_[i] = 0;
      } else {
        any = true;
      }
    }
    return {consumed, !any};
  }

  /// Paths handed to sink `i` (counts the delivery it declined on).
  uint64_t delivered(size_t i) const { return delivered_[i]; }
  bool stopped(size_t i) const { return active_[i] == 0; }

 private:
  std::vector<PathSink*> sinks_;
  std::vector<uint8_t> active_;
  std::vector<uint64_t> delivered_;
};

/// One unit of batch work: a representative query plus the indices of its
/// in-batch duplicates, with a scheduling priority (cache hits first).
struct TaskGroup {
  size_t rep = 0;
  std::vector<size_t> extra;
  uint32_t priority = 2;  // 0 result-cache hit, 1 index-cache hit, 2 miss
};

}  // namespace

QueryEngine::QueryEngine(const GraphView& view, const EngineOptions& opts)
    : view_(view), pool_(opts.num_workers) {
  contexts_.reserve(pool_.num_workers());
  for (uint32_t w = 0; w < pool_.num_workers(); ++w) {
    contexts_.push_back(std::make_unique<QueryContext>(view_));
  }
  if (opts.enable_cache) {
    cache_ = std::make_unique<IndexCache>(opts.cache);
  }

  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string label =
      "engine=\"" + std::to_string(reg.NextInstanceId()) + "\"";
  reg.RegisterCounter(this, "pathenum_engine_batches_total", label,
                      &batches_run_);
  reg.RegisterCounter(this, "pathenum_engine_split_queries_total", label,
                      &split_queries_run_);
  reg.RegisterCounter(this, "pathenum_engine_steals_total", label, &steals_);
  reg.RegisterCounter(this, "pathenum_engine_oracle_rejects_total", label,
                      &oracle_rejects_);
  reg.RegisterGauge(this, "pathenum_engine_workers", label,
                    [this] { return static_cast<double>(pool_.num_workers()); });
  // Context-derived gauges: reading races RebindGraph exactly like Stats()
  // does — both are caller-serialized operator surfaces.
  reg.RegisterGauge(this, "pathenum_engine_scratch_bytes", label, [this] {
    size_t bytes = 0;
    for (const auto& ctx : contexts_) bytes += ctx->ScratchBytes();
    return static_cast<double>(bytes);
  });
  reg.RegisterGauge(this, "pathenum_engine_queries_run", label, [this] {
    uint64_t n = split_queries_run_.Value();
    for (const auto& ctx : contexts_) n += ctx->queries_run();
    return static_cast<double>(n);
  });
}

QueryEngine::~QueryEngine() {
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

void QueryEngine::InvalidateCaches() {
  // Align the cache's version with the bound view so publications resume
  // immediately after the clear.
  if (cache_ != nullptr) cache_->Clear(view_.version());
}

void QueryEngine::RebindGraph(const Graph& g) {
  view_ = GraphView(g);
  // A live oracle stays attached: its epochs are keyed on snapshot version
  // AND base identity, so against an unrelated graph it simply never
  // matches (no claims) until the engine returns to the oracle's stream.
  // Contexts hold graph references (BFS fields sized to |V|); rebuild them.
  contexts_.clear();
  for (uint32_t w = 0; w < pool_.num_workers(); ++w) {
    contexts_.push_back(std::make_unique<QueryContext>(view_));
  }
  InvalidateCaches();
}

uint32_t QueryEngine::ClampedWorkers(size_t tasks) const {
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = pool_.num_workers();  // unknown: trust the pool size
  uint64_t cap = std::min<uint64_t>(pool_.num_workers(), hw);
  cap = std::min<uint64_t>(cap, std::max<size_t>(tasks, 1));
  return static_cast<uint32_t>(std::max<uint64_t>(cap, 1));
}

BatchResult QueryEngine::RunBatch(const GraphView& view,
                                  std::span<const Query> queries,
                                  std::span<PathSink* const> sinks,
                                  const BatchOptions& opts) {
  if (!view.SameSnapshotAs(view_)) {
    // A base-graph change without a version advance is a swap to an
    // unrelated graph (a forward move within one snapshot lineage — e.g.
    // a compaction epoch — always advances the version): the cached
    // entries describe the old graph, so drop them all. Forward moves are
    // governed by the version guards in RunBatch proper. Identity is the
    // base's uid, never its address — a recycled allocation must not pass
    // for the graph the entries were built on.
    if (cache_ != nullptr && view.base().uid() != view_.base().uid() &&
        view.version() <= view_.version()) {
      cache_->Clear(view.version());
    }
    view_ = view;
    for (const auto& ctx : contexts_) ctx->Rebind(view_);
  }
  return RunBatch(queries, sinks, opts);
}

BatchResult QueryEngine::RunBatch(std::span<const Query> queries,
                                  std::span<PathSink* const> sinks,
                                  const BatchOptions& opts) {
  PATHENUM_CHECK_MSG(queries.size() == sinks.size(),
                     "one sink per query required");
  BatchResult result;
  result.stats.resize(queries.size());
  result.errors.resize(queries.size());
  result.states.resize(queries.size(), QueryState::kOk);
  batches_run_.Inc();
  IndexCache* cache =
      (opts.use_cache && cache_ != nullptr) ? cache_.get() : nullptr;
  if (cache != nullptr && view_.version() > cache->version()) {
    // The snapshot advanced past the cache without an epoch invalidation
    // (IndexCache::BeginEpoch) — an epoch-unaware caller. Degrade to a
    // versioned full clear rather than risk replaying entries the skipped
    // update(s) may have staled.
    cache->Clear(view_.version());
  }
  const IndexCacheStats before =
      cache != nullptr ? cache->Stats() : IndexCacheStats{};
  Timer wall;

  // Admission pre-pass, shared by both modes and run before grouping and
  // scheduling. Queries are untrusted input: an invalid one is
  // rejected with a message and never reaches the enumerator. A query the
  // live oracle certifies unsatisfiable gets the complete empty result with
  // no per-query work. The epoch is pinned for exactly the bound snapshot:
  // the ValidFor gate (exact version + base uid) turns every mismatch into
  // "no claims", so a racing publish can never cause a wrong rejection.
  // Each query stopped here finishes its own zero-width span, like an async
  // ticket shed at admission. In split mode every admitted query's span
  // begins here too, so its wait behind earlier split queries of the batch
  // is its queue_wait stage (stealing mode begins one span per group
  // before the workers start).
  LiveDistanceOracle::EpochRef epoch =
      live_oracle_ != nullptr ? live_oracle_->ForVersion(view_.version())
                              : LiveDistanceOracle::EpochRef();
  if (!epoch.ValidFor(view_)) epoch = LiveDistanceOracle::EpochRef();
  std::vector<size_t> admitted;
  admitted.reserve(queries.size());
  std::vector<obs::QuerySpan> split_spans(
      opts.split_branches ? queries.size() : 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const Status st = CheckQuery(view_, q);
    if (st.ok() && !epoch.Rejects(q.source, q.target, q.hops)) {
      admitted.push_back(i);
      if (opts.split_branches) split_spans[i].Begin(q.source, q.target, q.hops);
      continue;
    }
    obs::QuerySpan span;
    span.Begin(q.source, q.target, q.hops);
    span.Mark(obs::SpanStage::kQueueWait);
    if (!st.ok()) {
      result.errors[i] = std::string(st.message());
      result.states[i] = QueryState::kRejected;
    } else {
      result.stats[i].counters.oracle_rejected = true;
      result.states[i] = QueryState::kUnsatisfiable;
      oracle_rejects_.Inc();
      span.Mark(obs::SpanStage::kIndexAcquire);
    }
    span.Finish(result.states[i]);
  }

  if (opts.split_branches) {
    // Intra-query mode: the pool gangs up on one query at a time. Context 0
    // leads (acquires the index, owns the join tables) and, like every
    // other active worker, drains units of each phase.
    const uint32_t active = ClampedWorkers(pool_.num_workers());
    result.workers = active;
    const RecruitParticipants recruit = [&](SplitPhase& phase) {
      pool_.RunOnWorkers(active,
                         [&](uint32_t w) { phase.Drain(*contexts_[w], w); });
    };
    for (const size_t i : admitted) {
      obs::QuerySpan& span = split_spans[i];
      span.Mark(obs::SpanStage::kQueueWait);
      try {
        result.stats[i] = RunSplitQuery(*contexts_[0], queries[i], *sinks[i],
                                        opts.query, cache, active, recruit,
                                        span);
        result.states[i] = result.stats[i].counters.TerminalState();
        split_queries_run_.Inc();
      } catch (const std::exception& e) {
        result.errors[i] = e.what();
        result.states[i] = FailedRunState(e);
      }
      span.Finish(result.states[i]);
    }
  } else {
    RunStealing(queries, sinks, admitted, opts, cache, result);
  }
  result.wall_ms = wall.ElapsedMs();
  if (cache != nullptr) result.cache = cache->Stats() - before;
  return result;
}

void QueryEngine::RunStealing(std::span<const Query> queries,
                              std::span<PathSink* const> sinks,
                              std::span<const size_t> admitted,
                              const BatchOptions& opts, IndexCache* cache,
                              BatchResult& result) {
  // Collapse identical (s, t, k) queries into one task group each; the
  // representative runs once and fans its paths out to every duplicate.
  std::vector<TaskGroup> groups;
  groups.reserve(admitted.size());
  if (opts.dedup_identical) {
    std::unordered_map<CacheKey, size_t, CacheKeyHash> seen;
    seen.reserve(admitted.size());
    for (const size_t i : admitted) {
      const Query& q = queries[i];
      const CacheKey key{q.source, q.target, q.hops, 0};
      const auto [it, inserted] = seen.emplace(key, groups.size());
      if (inserted) {
        groups.push_back({i, {}, 2});
      } else {
        groups[it->second].extra.push_back(i);
      }
    }
  } else {
    for (const size_t i : admitted) groups.push_back({i, {}, 2});
  }

  // Cache-aware scheduling: replayable results first, then cached
  // indexes, then misses — hits clear the queue fast, and each miss builds
  // solo on the worker that claims it.
  if (cache != nullptr) {
    for (TaskGroup& g : groups) {
      const Query& q = queries[g.rep];
      const CacheKey rkey{q.source, q.target, q.hops,
                          ResultOptionsFingerprint(opts.query)};
      if (cache->options().max_result_bytes > 0 &&
          cache->HasResult(rkey, view_.version())) {
        g.priority = 0;
        continue;
      }
      const CacheKey ikey{
          q.source, q.target, q.hops,
          IndexOptionsFingerprint(
              PathEnumerator::BuildOptionsFor(q, opts.query))};
      if (cache->PeekIndex(ikey, view_.version()) != nullptr) g.priority = 1;
    }
    std::stable_sort(groups.begin(), groups.end(),
                     [](const TaskGroup& a, const TaskGroup& b) {
                       return a.priority < b.priority;
                     });
  }

  // Clamp active workers to the actual parallelism available: surplus pool
  // threads park instead of oversubscribing the host.
  const uint32_t active = ClampedWorkers(groups.size());
  result.workers = active;
  // One span per group (duplicates share their representative's run):
  // admitted here, queue_wait measures batch start → worker claim.
  std::vector<obs::QuerySpan> spans(groups.size());
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const Query& q = queries[groups[gi].rep];
    spans[gi].Begin(q.source, q.target, q.hops);
  }
  WorkStealingQueues queues(active, groups.size(), steals_);
  pool_.RunOnWorkers(active, [&](uint32_t worker) {
    QueryContext& ctx = *contexts_[worker];
    size_t task;
    while (queues.Pop(worker, task)) {
      const TaskGroup& group = groups[task];
      const size_t rep = group.rep;
      obs::QuerySpan& span = spans[task];
      span.Mark(obs::SpanStage::kQueueWait);
      // Per-query fault isolation: a failed query reports its error/state
      // and the worker moves on; the context re-arms every limit per run.
      try {
        if (group.extra.empty()) {
          result.stats[rep] = ctx.RunCached(queries[rep], *sinks[rep],
                                            opts.query, cache, &span);
          result.states[rep] = result.stats[rep].counters.TerminalState();
          span.Finish(result.states[rep]);
        } else {
          std::vector<PathSink*> fan_sinks;
          fan_sinks.reserve(group.extra.size() + 1);
          fan_sinks.push_back(sinks[rep]);
          for (const size_t dup : group.extra) fan_sinks.push_back(sinks[dup]);
          FanoutSink fan(std::move(fan_sinks));
          const QueryStats stats =
              ctx.RunCached(queries[rep], fan, opts.query, cache, &span);
          ctx.NoteFanout(group.extra.size());
          // Each duplicate reports the shared run's stats, adjusted to what
          // its own sink observed: a sink that stopped early looks exactly
          // like a standalone sink-stopped run.
          for (size_t m = 0; m < group.extra.size() + 1; ++m) {
            const size_t qi = m == 0 ? rep : group.extra[m - 1];
            QueryStats mine = stats;
            mine.counters.num_results = fan.delivered(m);
            if (fan.stopped(m)) {
              mine.counters.stopped_by_sink = true;
              mine.counters.hit_result_limit = false;
            }
            result.stats[qi] = mine;
            result.states[qi] = mine.counters.TerminalState();
          }
          // Distributing the shared run to the duplicates' stats is the
          // batch path's merge stage.
          span.Mark(obs::SpanStage::kMerge);
          span.Finish(result.states[rep]);
        }
      } catch (const std::exception& e) {
        const QueryState failed = FailedRunState(e);
        result.errors[rep] = e.what();
        result.states[rep] = failed;
        for (const size_t dup : group.extra) {
          result.errors[dup] = e.what();
          result.states[dup] = failed;
        }
        span.Finish(failed);
      }
    }
  });
}

BatchResult QueryEngine::CountBatch(std::span<const Query> queries,
                                    const BatchOptions& opts) {
  std::vector<CountingSink> counting(queries.size());
  std::vector<PathSink*> sinks(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) sinks[i] = &counting[i];
  return RunBatch(queries, sinks, opts);
}

QueryEngine::EngineStats QueryEngine::Stats() const {
  EngineStats s;
  for (const auto& ctx : contexts_) {
    s.scratch_bytes += ctx->ScratchBytes();
    s.queries_run += ctx->queries_run();
  }
  s.queries_run += split_queries_run_.Value();
  s.batches_run = batches_run_.Value();
  s.steals = steals_.Value();
  s.oracle_rejects = oracle_rejects_.Value();
  return s;
}

}  // namespace pathenum
