#include "shard/router.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "engine/query_context.h"
#include "graph/union_view.h"
#include "util/timer.h"

namespace pathenum {

uint64_t ShardRouter::CrossShardEdges(const LightweightIndex& index) const {
  uint64_t cross = 0;
  for (uint32_t slot = 0; slot < index.num_vertices(); ++slot) {
    if (slot == index.target_slot()) continue;  // its one entry is padding
    const uint32_t owner = shard_map_[index.VertexAt(slot)];
    for (const uint32_t w : index.OutSlotsWithin(slot, index.hops())) {
      cross += shard_map_[index.VertexAt(w)] != owner;
    }
  }
  return cross;
}

ShardRouter::ShardRouter(const Graph& g, const RouterOptions& opts) {
  // Process-wide partition generation: distinct for every router ever
  // built, so metric labels never collide across repartitions.
  static std::atomic<uint64_t> g_generation{0};
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;

  GraphPartition part = GraphPartitioner::Partition(g, opts.partition);
  shard_map_ = part.shard_map();
  const uint32_t n_shards = part.num_shards();
  shards_.reserve(n_shards);
  for (uint32_t s = 0; s < n_shards; ++s) {
    shards_.push_back(std::make_unique<ShardEngine>(
        s, generation_, part.TakeShardGraph(s), opts.shard));
  }
  cut_edges_ = part.cut_edges().size();

  auto& reg = obs::MetricRegistry::Global();
  metric_label_ = "router=\"" + std::to_string(reg.NextInstanceId()) +
                  "\",gen=\"" + std::to_string(generation_) + "\"";
  reg.RegisterCounter(this, "pathenum_router_queries_total", metric_label_,
                      &queries_);
  reg.RegisterCounter(this, "pathenum_router_delegated_total", metric_label_,
                      &delegated_);
  reg.RegisterCounter(this, "pathenum_router_stitched_total", metric_label_,
                      &stitched_);
  reg.RegisterCounter(this, "pathenum_router_unsatisfiable_total",
                      metric_label_, &unsat_);
  reg.RegisterCounter(this, "pathenum_router_rejected_total", metric_label_,
                      &rejected_);
  reg.RegisterCounter(this, "pathenum_router_failed_total", metric_label_,
                      &failed_);
  reg.RegisterCounter(this, "pathenum_router_updates_total", metric_label_,
                      &updates_);
  reg.RegisterGauge(this, "pathenum_router_cut_edges", metric_label_,
                    [this] { return static_cast<double>(cut_size()); });
  plan_ms_hist_ = reg.GetHistogram("pathenum_router_plan_ms", metric_label_);
}

ShardRouter::~ShardRouter() {
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

size_t ShardRouter::cut_size() const {
  std::lock_guard<std::mutex> lk(state_mutex_);
  return cut_edges_;
}

ShardRouter::Stats ShardRouter::stats() const {
  Stats s;
  s.queries = queries_.Value();
  s.delegated = delegated_.Value();
  s.stitched = stitched_.Value();
  s.unsatisfiable = unsat_.Value();
  s.rejected = rejected_.Value();
  s.failed = failed_.Value();
  s.updates = updates_.Value();
  return s;
}

ShardRouter::Pinned ShardRouter::Pin() const {
  std::lock_guard<std::mutex> lk(state_mutex_);
  Pinned p;
  p.views.reserve(shards_.size());
  for (const auto& s : shards_) p.views.push_back(s->CurrentView());
  return p;
}

Status ShardRouter::SubmitUpdate(const GraphDelta& delta) {
  const Status chk = CheckDelta(delta, num_vertices());
  if (!chk.ok()) return chk;

  // The live cut moves only on the delta's distinct cross-shard pairs, by
  // whether the owner shard holds each before and after the epoch.
  std::vector<std::pair<VertexId, VertexId>> cross;
  for (const auto* ops : {&delta.insertions, &delta.deletions}) {
    for (const auto& [u, v] : *ops) {
      if (ShardOf(u) != ShardOf(v)) cross.emplace_back(u, v);
    }
  }
  std::sort(cross.begin(), cross.end());
  cross.erase(std::unique(cross.begin(), cross.end()), cross.end());
  const auto cut_present = [&] {
    size_t present = 0;
    for (const auto& [u, v] : cross) {
      present += shards_[ShardOf(u)]->CurrentView()->HasEdge(u, v);
    }
    return present;
  };

  std::lock_guard<std::mutex> lk(state_mutex_);
  const size_t before = cut_present();
  std::vector<GraphDelta> per_shard(shards_.size());
  for (const auto& [u, v] : delta.insertions) per_shard[ShardOf(u)].Insert(u, v);
  for (const auto& [u, v] : delta.deletions) per_shard[ShardOf(u)].Delete(u, v);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    const Status st = shards_[s]->SubmitLocalDelta(per_shard[s]);
    if (!st.ok()) return st;  // unreachable after CheckDelta
  }
  cut_edges_ = cut_edges_ - before + cut_present();
  updates_.Inc();
  return Status::Ok();
}

RouterResult ShardRouter::Run(const Query& q, PathSink& sink,
                              const EnumOptions& opts) {
  queries_.Inc();
  RouterResult r;
  {
    const Status chk = CheckQuery(*shards_[0]->CurrentView(), q);
    if (!chk.ok()) {
      rejected_.Inc();
      r.state = QueryState::kRejected;
      r.error = chk.message();
      return r;
    }
  }

  // The span covers the index build as index_acquire. A delegated query
  // is reported by its shard engine's own span, so this one is left
  // unfinished.
  obs::QuerySpan span;
  span.Begin(q.source, q.target, q.hops);
  const Timer total;
  const Pinned pin = Pin();
  const Timer plan_timer;
  LightweightIndex index;
  try {
    index = builder_.Build(UnionView(pin.views, shard_map_), q,
                           PathEnumerator::BuildOptionsFor(q, opts));
  } catch (const std::exception& e) {
    // A failed build fails only this query, as a failed build in a shard
    // engine does: the state and message, not an exception.
    failed_.Inc();
    r.state = FailedRunState(e);
    r.error = e.what();
    span.Mark(obs::SpanStage::kIndexAcquire);
    span.Finish(r.state);
    r.stats.total_ms = total.ElapsedMs();
    return r;
  }
  const bool interrupted = index.build_stats().interrupted;
  const uint64_t cross = interrupted ? 0 : CrossShardEdges(index);
  plan_ms_hist_->Observe(plan_timer.ElapsedMs());
  span.Mark(obs::SpanStage::kIndexAcquire);
  const double dispatch_ms = total.ElapsedMs();

  if (!interrupted && index.num_vertices() == 0) {
    // X is empty exactly when dist(s, t) > k: the complete (empty) result
    // set, no shard ever touched.
    unsat_.Inc();
    r.state = QueryState::kUnsatisfiable;
    r.stats.counters.oracle_rejected = true;
    span.Finish(r.state);
  } else if (!interrupted && cross == 0) {
    // Every feasible path lies wholly in owner(s)'s tail-owned subgraph:
    // delegate to that shard's engine.
    r = RunDelegated(q, sink, opts, pin, ShardOf(q.source));
  } else {
    r = RunStitched(index, sink, opts, pin, span);
    r.feasible_cut_edges = cross;
  }
  if (!r.delegated) {
    r.stats.bfs_ms = index.build_stats().bfs_ms;
    r.stats.index_ms = index.build_stats().total_ms;
    r.stats.index_vertices = index.num_vertices();
    r.stats.index_edges = index.num_edges();
    r.stats.index_bytes = index.MemoryBytes();
  }
  r.stats.total_ms = total.ElapsedMs();
  r.stats.response_ms += dispatch_ms;
  return r;
}

RouterResult ShardRouter::RunDelegated(const Query& q, PathSink& sink,
                                       const EnumOptions& opts,
                                       const Pinned& pin, uint32_t shard) {
  delegated_.Inc();
  shards_[shard]->RecordLocalQuery();
  BatchOptions batch;
  batch.query = opts;
  const Query queries[1] = {q};
  PathSink* sinks[1] = {&sink};
  BatchResult br =
      shards_[shard]->engine().RunBatch(*pin.views[shard], queries, sinks,
                                        batch);
  RouterResult r;
  r.delegated = true;
  r.delegate_shard = shard;
  r.stats = std::move(br.stats[0]);
  r.state = br.states[0];
  r.error = std::move(br.errors[0]);
  return r;
}

RouterResult ShardRouter::RunStitched(const LightweightIndex& index,
                                      PathSink& sink, const EnumOptions& opts,
                                      const Pinned& pin,
                                      obs::QuerySpan& span) {
  stitched_.Inc();
  RouterResult r;
  try {
    if (index.build_stats().interrupted) {
      // A trip, not a verdict: the interrupted build's empty index proves
      // nothing about the query.
      FinalizeInterruptedBuild(r.stats, index, 0.0);
    } else {
      enumerator_.Rebind(*pin.views[0]);
      r.stats = enumerator_.RunWithIndex(index, sink, opts);
      span.SetPlan(r.stats);
    }
    r.state = r.stats.counters.TerminalState();
  } catch (const std::exception& e) {
    // A throwing sink fails the query the way a delegated query's failure
    // does in its shard engine: the state and message, not an exception.
    r.stats = QueryStats{};
    r.state = FailedRunState(e);
    r.error = e.what();
  }
  span.Mark(obs::SpanStage::kEnumerate);
  span.Finish(r.state);
  return r;
}

}  // namespace pathenum
