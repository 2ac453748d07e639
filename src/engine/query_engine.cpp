#include "engine/query_engine.h"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "util/timer.h"

namespace pathenum {

namespace {

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

/// One unit of batch work: the indices of identical queries (the first
/// one represents them) with a queueing priority (cache hits first) and the
/// span begun at the representative's admission.
struct TaskGroup {
  std::vector<size_t> members;
  uint32_t priority = 2;  // 0 result-cache hit, 1 index-cache hit, 2 miss
  obs::QuerySpan span;
};

/// min(requested, hardware cores): the most workers a batch can keep busy
/// without oversubscribing the host. 0 (the hardware count) and an unknown
/// hardware count pass through.
uint32_t EngineWorkers(uint32_t requested) {
  const uint32_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? requested : std::min(requested, hw);
}

}  // namespace

QueryEngine::QueryEngine(const GraphView& view, const EngineOptions& opts)
    : view_(view),
      cache_(opts.enable_cache ? std::make_unique<IndexCache>(opts.cache)
                               : nullptr),
      queue_(view_, EngineWorkers(opts.num_workers)) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string label =
      "engine=\"" + std::to_string(reg.NextInstanceId()) + "\"";
  reg.RegisterCounter(this, "pathenum_engine_batches_total", label,
                      &batches_run_);
  reg.RegisterCounter(this, "pathenum_engine_oracle_rejects_total", label,
                      &oracle_rejects_);
  reg.RegisterGauge(this, "pathenum_engine_workers", label,
                    [this] { return static_cast<double>(num_workers()); });
  // Context-derived gauge: reading races a running batch exactly like
  // Stats() does — both are caller-serialized operator surfaces.
  reg.RegisterGauge(this, "pathenum_engine_scratch_bytes", label, [this] {
    return static_cast<double>(queue_.ScratchBytes());
  });
  reg.RegisterGauge(this, "pathenum_engine_queries_run", label, [this] {
    return static_cast<double>(queries_run_.Value());
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
  InvalidateCaches();
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
  // queueing. Queries are untrusted input: an invalid one is
  // rejected with a message and never reaches the enumerator. A query the
  // live oracle certifies unsatisfiable gets the complete empty result with
  // no per-query work. The epoch is pinned for exactly the bound snapshot:
  // the ValidFor gate (exact version + base uid) turns every mismatch into
  // "no claims", so a racing publish can never cause a wrong rejection.
  // Each query stopped here finishes its own zero-width span, like an async
  // ticket shed at admission. An admitted query's span begins here, so its
  // wait behind earlier queries of the batch is its queue_wait stage. With
  // dedup_identical, identical (s, t, k) queries collapse into one group:
  // the representative runs once (one span) and fans its paths out to
  // every duplicate.
  LiveDistanceOracle::EpochRef epoch =
      live_oracle_ != nullptr ? live_oracle_->ForVersion(view_.version())
                              : LiveDistanceOracle::EpochRef();
  if (!epoch.ValidFor(view_)) epoch = LiveDistanceOracle::EpochRef();
  std::vector<TaskGroup> groups;
  groups.reserve(queries.size());
  std::unordered_map<CacheKey, size_t, CacheKeyHash> group_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const Status st = CheckQuery(view_, q);
    if (st.ok() && !epoch.Rejects(q.source, q.target, q.hops)) {
      if (opts.dedup_identical) {
        const CacheKey key{q.source, q.target, q.hops, 0};
        const auto [it, inserted] = group_of.emplace(key, groups.size());
        if (!inserted) {
          groups[it->second].members.push_back(i);
          continue;
        }
      }
      TaskGroup& group = groups.emplace_back();
      group.members.push_back(i);
      group.span.Begin(q.source, q.target, q.hops);
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

  // Cache-aware queueing: replayable results first, then cached indexes,
  // then misses — hits clear the queue fast, and each miss builds solo on
  // the worker that claims it.
  if (cache != nullptr) {
    for (TaskGroup& g : groups) {
      const Query& q = queries[g.members[0]];
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

  // One submission per group on the bound snapshot; a group with
  // duplicates runs into a FanoutSink over all of its members' sinks.
  result.workers = static_cast<uint32_t>(
      std::min<size_t>(num_workers(), groups.size()));
  const auto snapshot = std::make_shared<const GraphView>(view_);
  std::vector<std::unique_ptr<FanoutSink>> fans(groups.size());
  std::vector<QueryTicket> tickets;
  {
    const std::unique_lock<std::mutex> lock = queue_.Lock();
    for (size_t g = 0; g < groups.size(); ++g) {
      const std::vector<size_t>& members = groups[g].members;
      QueryQueue::Submission task;
      task.query = queries[members[0]];
      task.sink = sinks[members[0]];
      if (members.size() > 1) {
        std::vector<PathSink*> fan_sinks;
        for (const size_t qi : members) fan_sinks.push_back(sinks[qi]);
        fans[g] = std::make_unique<FanoutSink>(std::move(fan_sinks));
        task.sink = fans[g].get();
      }
      task.opts = opts.query;
      task.split = opts.split_branches;
      task.cache = cache;
      task.snapshot = snapshot;
      task.span = groups[g].span;
      tickets.push_back(queue_.PushLocked(std::move(task)));
    }
  }

  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<size_t>& members = groups[g].members;
    const QueryStats& stats = tickets[g].Wait();
    const std::string& error = tickets[g].error();
    const QueryState state = tickets[g].state();
    for (size_t m = 0; m < members.size(); ++m) {
      const size_t qi = members[m];
      result.errors[qi] = error;
      result.states[qi] = state;
      if (!error.empty()) continue;
      result.stats[qi] = stats;
      if (fans[g] != nullptr) {
        // Each duplicate reports the shared run's stats, adjusted to what
        // its own sink observed: a sink that stopped early looks exactly
        // like a standalone sink-stopped run.
        EnumCounters& mine = result.stats[qi].counters;
        mine.num_results = fans[g]->delivered(m);
        if (fans[g]->stopped(m)) {
          mine.stopped_by_sink = true;
          mine.hit_result_limit = false;
        }
        result.states[qi] = mine.TerminalState();
      }
    }
    if (error.empty()) queries_run_.Inc(members.size());
  }
  result.wall_ms = wall.ElapsedMs();
  if (cache != nullptr) result.cache = cache->Stats() - before;
  return result;
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
  s.scratch_bytes = queue_.ScratchBytes();
  s.queries_run = queries_run_.Value();
  s.batches_run = batches_run_.Value();
  s.oracle_rejects = oracle_rejects_.Value();
  return s;
}

}  // namespace pathenum
