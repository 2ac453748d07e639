#include "shard/router.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <span>
#include <utility>

#include "core/control.h"
#include "engine/query_context.h"
#include "util/timer.h"

namespace pathenum {

namespace {

/// Edges between control polls (cancel/deadline/work budget) of a stitched
/// search, so a trip stops it within a bounded amount of work.
constexpr uint32_t kPollIntervalEdges = 4096;

/// One stitched query: an IDX-DFS from [s] over the union graph on the
/// calling thread. Each endpoint's out-edges are read in its owner shard's
/// pinned view, and a partial path of d edges extends to y only when
/// d + 1 + dist(y, t) <= k on the plan's exact distances (DESIGN.md §14).
class StitchedSearch {
 public:
  StitchedSearch(const Query& q, const EnumOptions& opts,
                 std::span<const std::shared_ptr<const GraphView>> views,
                 const uint32_t* shard_map, const TwoSidedField& plan,
                 PathSink& sink)
      : q_(q),
        views_(views),
        shard_map_(shard_map),
        plan_(plan),
        control_{Deadline::AfterMs(opts.time_limit_ms), opts.cancel,
                 opts.work_budget_edges} {
    emitter_.Arm(&sink, &counters_, &timer_, opts.result_limit,
                 opts.response_target);
  }

  /// Searches from [s] and, as DfsEnumerator::FinishRun does, delivers
  /// the paths still pending when the search ends.
  EnumCounters Run() {
    path_[0] = q_.source;
    counters_.partials = 1;  // M = (s)
    if (!Tripped()) Expand(1);
    emitter_.Flush();
    return counters_;
  }

  uint64_t continuations() const { return continuations_; }
  double elapsed_ms() const { return timer_.ElapsedMs(); }

 private:
  /// Polls the query's control; a trip sets its counter flag and stops.
  bool Tripped() {
    switch (control_.Check(counters_.edges_accessed)) {
      case QueryControl::Trip::kNone:
        return false;
      case QueryControl::Trip::kCancelled:
        counters_.cancelled = true;
        break;
      case QueryControl::Trip::kDeadline:
        counters_.timed_out = true;
        break;
      case QueryControl::Trip::kWorkBudget:
        counters_.work_exceeded = true;
        break;
    }
    stop_ = true;
    return true;
  }

  /// Extends path_[0, len) by every feasible out-neighbour of its endpoint.
  void Expand(uint32_t len) {
    const VertexId x = path_[len - 1];
    const uint32_t owner = shard_map_[x];
    for (const VertexId y : views_[owner]->OutNeighbors(x)) {
      ++counters_.edges_accessed;
      if (++since_poll_ == kPollIntervalEdges) {
        since_poll_ = 0;
        if (Tripped()) return;
      }
      // Outside X, y's distance to t is unset (reading above any hop bound)
      // or exact, and fails this bound either way: dist(s, y) <= len.
      if (len + plan_.ToTarget(y) > q_.hops) continue;
      path_[len] = y;
      if (y == q_.target) {
        // A simple s-t path contains t exactly once, at its end: emit,
        // never recurse through t.
        ++counters_.partials;
        if (!Emit(len + 1)) return;
        continue;
      }
      if (std::find(path_, path_ + len, y) != path_ + len) continue;
      ++counters_.partials;
      if (shard_map_[y] != owner) ++continuations_;
      Expand(len + 1);
      if (stop_) return;
    }
  }

  /// Appends path_[0, len) to the pending block; false (and stop) once the
  /// sink refused or the result limit is reached, with Flush's flag set.
  bool Emit(uint32_t len) {
    PathBlock& block = emitter_.block();
    if (!block.HasRoomFor(len) && !emitter_.Flush()) {
      stop_ = true;  // this path is dropped, as a per-path sink would
      return false;
    }
    block.Append(std::span<const VertexId>(path_, len));
    if (emitter_.AtResultLimit()) {
      emitter_.Flush();
      stop_ = true;
      return false;
    }
    return true;
  }

  const Query q_;
  const std::span<const std::shared_ptr<const GraphView>> views_;
  const uint32_t* const shard_map_;
  const TwoSidedField& plan_;  // exact distances to t on X
  const QueryControl control_;
  Timer timer_;
  EnumCounters counters_;
  BlockEmitter emitter_;
  uint32_t since_poll_ = 0;
  bool stop_ = false;
  uint64_t continuations_ = 0;
  VertexId path_[kMaxHops + 1] = {};  // the partial path, <= k + 1 long
};

}  // namespace

bool ShardRouter::ComputePlan(const Pinned& pin, const Query& q) {
  // Out-adjacency of x is complete in its owning shard and empty
  // everywhere else; in-adjacency of x in shard p is exactly the in-edges
  // whose tail p owns, so the per-shard scans union disjointly into the
  // global in-neighbourhood (see shard/partition.h).
  const auto out_edges = [&](VertexId x, const auto& visit) {
    const auto nbrs = pin.views[shard_map_[x]]->OutNeighbors(x);
    for (const VertexId y : nbrs) visit(y);
    return nbrs.size();
  };
  const auto in_edges = [&](VertexId x, const auto& visit) {
    size_t scanned = 0;
    for (const auto& view : pin.views) {
      const auto nbrs = view->InNeighbors(x);
      for (const VertexId y : nbrs) visit(y);
      scanned += nbrs.size();
    }
    return scanned;
  };
  TwoSidedField::Options fo;
  fo.source = q.source;
  fo.target = q.target;
  fo.hops = q.hops;
  fo.block_endpoints = false;
  plan_.ComputeWith(num_vertices(), fo, out_edges, in_edges);
  // s is in X exactly when dist(s, t) <= k.
  return plan_.ToTarget(q.source) <= q.hops;
}

uint64_t ShardRouter::FeasibleCutEdges(const Pinned& pin, uint32_t k) const {
  // Both ends of a feasible cut edge lie in X, and each reached list holds
  // all of X.
  const auto& from_s = plan_.ReachedFromSource();
  const auto& to_t = plan_.ReachedToTarget();
  uint64_t feasible = 0;
  for (const VertexId u : from_s.size() <= to_t.size() ? from_s : to_t) {
    const uint32_t ds = plan_.FromSource(u);
    if (ds + plan_.ToTarget(u) > k) continue;  // u is not in X
    const uint32_t owner = shard_map_[u];
    for (const VertexId w : pin.views[owner]->OutNeighbors(u)) {
      if (shard_map_[w] != owner && ds + 1 + plan_.ToTarget(w) <= k) {
        ++feasible;
      }
    }
  }
  return feasible;
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
  reg.RegisterCounter(this, "pathenum_router_updates_total", metric_label_,
                      &updates_);
  reg.RegisterCounter(this, "pathenum_router_continuations_sent_total",
                      metric_label_, &continuations_sent_);
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
  s.updates = updates_.Value();
  s.continuations_sent = continuations_sent_.Value();
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

  // The span covers the plan as index_acquire: it computes the stitched
  // query's index set X. A delegated query is reported by its shard
  // engine's own span, so this one is left unfinished.
  obs::QuerySpan span;
  span.Begin(q.source, q.target, q.hops);
  const Timer total;
  const Pinned pin = Pin();
  const Timer plan_timer;
  const bool satisfiable = ComputePlan(pin, q);
  const uint64_t feasible = satisfiable ? FeasibleCutEdges(pin, q.hops) : 0;
  plan_ms_hist_->Observe(plan_timer.ElapsedMs());
  span.Mark(obs::SpanStage::kIndexAcquire);
  const double dispatch_ms = total.ElapsedMs();

  if (!satisfiable) {
    // Exact global distance certifies dist(s, t) > k: the complete (empty)
    // result set, no shard ever touched.
    unsat_.Inc();
    r.state = QueryState::kUnsatisfiable;
    r.stats.counters.oracle_rejected = true;
    r.stats.total_ms = dispatch_ms;
    r.stats.response_ms = dispatch_ms;
    span.Finish(r.state);
    return r;
  }

  if (feasible == 0) {
    // No cut edge fits inside the hop budget, so every feasible path lies
    // wholly in owner(s)'s tail-owned subgraph (a cross-shard path must
    // traverse a feasible cut edge): delegate to that shard's engine.
    r = RunDelegated(q, sink, opts, pin, ShardOf(q.source));
    r.stats.total_ms = total.ElapsedMs();
    r.stats.response_ms += dispatch_ms;
    return r;
  }

  r = RunStitched(q, sink, opts, pin, span);
  r.feasible_cut_edges = feasible;
  r.stats.total_ms = total.ElapsedMs();
  r.stats.response_ms = r.stats.counters.response_ms >= 0.0
                            ? dispatch_ms + r.stats.counters.response_ms
                            : r.stats.total_ms;
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

RouterResult ShardRouter::RunStitched(const Query& q, PathSink& sink,
                                      const EnumOptions& opts,
                                      const Pinned& pin,
                                      obs::QuerySpan& span) {
  stitched_.Inc();
  RouterResult r;
  try {
    StitchedSearch search(q, opts, pin.views, shard_map_.data(), plan_, sink);
    r.stats.counters = search.Run();
    r.stats.enumerate_ms = search.elapsed_ms();
    r.state = r.stats.counters.TerminalState();
    continuations_sent_.Inc(search.continuations());
  } catch (const std::exception& e) {
    // A throwing sink fails the query the way a delegated query's failure
    // does in its shard engine: the state and message, not an exception.
    r.stats = QueryStats{};
    r.state = FailedRunState(e);
    r.error = e.what();
  }
  r.stats.method = Method::kDfs;
  span.Mark(obs::SpanStage::kEnumerate);
  span.Finish(r.state);
  return r;
}

}  // namespace pathenum
