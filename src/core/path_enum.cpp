#include "core/path_enum.h"

#include <algorithm>

#include "util/stats.h"
#include "util/timer.h"

namespace pathenum {

void FinalizeStats(QueryStats& stats, const EnumCounters& counters,
                   double enumerate_ms, double total_ms) {
  stats.counters = counters;
  stats.enumerate_ms = enumerate_ms;
  stats.total_ms = total_ms;
  // Response time = time from query start to the response_target-th result;
  // if the target was never reached the whole query time is reported.
  const double preprocessing = total_ms - enumerate_ms;
  stats.response_ms = counters.response_ms >= 0.0
                          ? preprocessing + counters.response_ms
                          : total_ms;
}

void FinalizeInterruptedBuild(QueryStats& stats,
                              const LightweightIndex& index, double total_ms) {
  EnumCounters counters;
  if (index.build_stats().interrupted_by_cancel) {
    counters.cancelled = true;
  } else {
    counters.timed_out = true;
  }
  FinalizeStats(stats, counters, 0.0, total_ms);
}

IndexBuilder::Options PathEnumerator::BuildOptionsFor(const Query& /*q*/,
                                                      const EnumOptions& opts) {
  IndexBuilder::Options build_opts;
  build_opts.collect_level_stats = opts.method == Method::kAuto;
  // Only the constraint extensions read edge ids; dropping the slab's
  // largest array keeps the unconstrained build lean (DESIGN.md §9).
  build_opts.build_edge_ids = false;
  // Thread the query's control into the build: each phase gets the query's
  // wall-clock budget from its own start (DESIGN.md §10), and the cancel
  // token covers the build exactly like the enumeration.
  build_opts.cancel = opts.cancel.flag();
  build_opts.deadline = Deadline::AfterMs(opts.time_limit_ms);
  return build_opts;
}

QueryStats PathEnumerator::Run(const Query& q, PathSink& sink,
                               const EnumOptions& opts) {
  ValidateQuery(view_, q);
  arena_.Reset();  // previous query's arena tables die here
  QueryStats stats;
  Timer total;
  LightweightIndex index = BuildIndex(q, BuildOptionsFor(q, opts));
  stats.bfs_ms = index.build_stats().bfs_ms;
  stats.index_ms = index.build_stats().total_ms;
  if (index.build_stats().interrupted) {
    FinalizeInterruptedBuild(stats, index, total.ElapsedMs());
    return stats;
  }
  ExecuteOnIndex(index, stats, sink, opts, total);
  return stats;
}

QueryStats PathEnumerator::RunWithIndex(const LightweightIndex& index,
                                        PathSink& sink,
                                        const EnumOptions& opts) {
  const Query& q = index.query();
  ValidateQuery(view_, q);
  const IndexBuilder::Options need = BuildOptionsFor(q, opts);
  PATHENUM_CHECK_MSG(!need.collect_level_stats || index.has_level_stats(),
                     "cached index lacks level stats required by kAuto");
  arena_.Reset();
  QueryStats stats;
  Timer total;
  ExecuteOnIndex(index, stats, sink, opts, total);
  return stats;
}

PathEnumerator::ExecutionPlan PathEnumerator::PlanExecution(
    const LightweightIndex& index, const EnumOptions& opts,
    QueryStats& stats) {
  const Query& q = index.query();
  ExecutionPlan plan;
  Method chosen = opts.method;
  if (q.hops < 2) chosen = Method::kDfs;  // no proper cut exists

  if (chosen == Method::kAuto) {
    // Step 2 of Fig. 2: the O(k) preliminary estimate decides whether the
    // full optimizer is worth running at all.
    stats.preliminary_estimate = EstimateSearchSpace(index);
    if (opts.use_preliminary_estimator &&
        stats.preliminary_estimate <= opts.tau) {
      chosen = Method::kDfs;
    } else {
      Timer opt_timer;
      const JoinPlan join_plan = OptimizeJoinOrder(index);
      stats.optimize_ms = opt_timer.ElapsedMs();
      stats.t_dfs_cost = join_plan.t_dfs;
      stats.t_join_cost = join_plan.t_join;
      if (join_plan.PreferJoin()) {
        chosen = Method::kJoin;
        plan.cut = join_plan.cut;
      } else {
        chosen = Method::kDfs;
      }
    }
  } else if (chosen == Method::kJoin) {
    // Forced IDX-JOIN still needs Alg. 5 for the cut position.
    Timer opt_timer;
    const JoinPlan join_plan = OptimizeJoinOrder(index);
    stats.optimize_ms = opt_timer.ElapsedMs();
    stats.t_dfs_cost = join_plan.t_dfs;
    stats.t_join_cost = join_plan.t_join;
    plan.cut =
        join_plan.cut == 0 ? std::max<uint32_t>(1, q.hops / 2) : join_plan.cut;
  }
  plan.method = chosen;
  return plan;
}

void PathEnumerator::ExecuteOnIndex(const LightweightIndex& index,
                                    QueryStats& stats, PathSink& sink,
                                    const EnumOptions& opts, Timer& total) {
  stats.index_vertices = index.num_vertices();
  stats.index_edges = index.num_edges();
  stats.index_bytes = index.MemoryBytes();

  const ExecutionPlan plan = PlanExecution(index, opts, stats);
  stats.method = plan.method;
  stats.cut_position = plan.cut;

  Timer enum_timer;
  EnumCounters counters;
  if (plan.method == Method::kJoin) {
    counters = join_.Run(index, plan.cut, sink, opts);
  } else {
    counters = dfs_.Run(index, sink, opts);
  }
  FinalizeStats(stats, counters, enum_timer.ElapsedMs(), total.ElapsedMs());
}

QueryStats PathEnumerator::RunConstrained(const Query& q,
                                          const PathConstraints& constraints,
                                          PathSink& sink,
                                          const EnumOptions& opts) {
  ValidateQuery(view_, q);
  // Constraints read edge weights/labels through stable edge ids, which an
  // overlay view cannot provide — constrained traffic needs a compacted
  // snapshot (see graph/view.h).
  PATHENUM_CHECK_MSG(!view_.has_overlay(),
                     "constrained queries require an overlay-free snapshot");
  arena_.Reset();
  QueryStats stats;
  Timer total;
  // Constrained queries default to the DFS enumerator (the cost model does
  // not see constraint selectivity); a forced kJoin runs the Appendix-E
  // join-side extension, which requires `init` to be an identity of
  // `combine`.
  const bool use_join = opts.method == Method::kJoin && q.hops >= 2;

  IndexBuilder::Options build_opts;
  build_opts.filter = constraints.edge_filter;
  build_opts.collect_level_stats = false;
  build_opts.build_edge_ids = true;  // the constrained enumerators read them
  build_opts.cancel = opts.cancel.flag();
  build_opts.deadline = Deadline::AfterMs(opts.time_limit_ms);
  // Overlay-free is asserted above, so this is always Build<Graph>.
  LightweightIndex index = BuildIndex(q, build_opts);
  stats.bfs_ms = index.build_stats().bfs_ms;
  stats.index_ms = index.build_stats().total_ms;
  if (index.build_stats().interrupted) {
    FinalizeInterruptedBuild(stats, index, total.ElapsedMs());
    return stats;
  }
  stats.index_vertices = index.num_vertices();
  stats.index_edges = index.num_edges();
  stats.index_bytes = index.MemoryBytes();
  stats.method = use_join ? Method::kJoin : Method::kDfs;

  Timer enum_timer;
  EnumCounters counters;
  if (use_join) {
    Timer opt_timer;
    const JoinPlan plan = OptimizeJoinOrder(index);
    stats.optimize_ms = opt_timer.ElapsedMs();
    stats.t_dfs_cost = plan.t_dfs;
    stats.t_join_cost = plan.t_join;
    stats.cut_position =
        plan.cut == 0 ? std::max<uint32_t>(1, q.hops / 2) : plan.cut;
    enum_timer.Reset();
    ConstrainedJoinEnumerator join(view_.base(), index, constraints);
    counters = join.Run(stats.cut_position, sink, opts);
  } else if (constraints.HasSearchState()) {
    ConstrainedDfsEnumerator dfs(view_.base(), index, constraints);
    counters = dfs.Run(sink, opts);
  } else {
    // Predicate-only: plain DFS on the filtered index, pooled scratch.
    counters = dfs_.Run(index, sink, opts);
  }
  FinalizeStats(stats, counters, enum_timer.ElapsedMs(), total.ElapsedMs());
  return stats;
}

double CalibrateTau(const Graph& g, const std::vector<Query>& sample_queries,
                    double max_tau) {
  PathEnumerator enumerator(g);
  std::vector<double> optimize_times;
  std::vector<double> rates;  // results per millisecond
  for (const Query& q : sample_queries) {
    IndexBuilder builder;
    IndexBuilder::Options opts;
    LightweightIndex index = builder.Build(g, q, opts);

    Timer opt_timer;
    const JoinPlan plan = OptimizeJoinOrder(index);
    (void)plan;
    optimize_times.push_back(opt_timer.ElapsedMs());

    CountingSink sink;
    EnumOptions run_opts;
    run_opts.result_limit = 100000;
    run_opts.time_limit_ms = 1000.0;
    DfsEnumerator dfs(index);
    Timer run_timer;
    const EnumCounters counters = dfs.Run(sink, run_opts);
    const double ms = std::max(run_timer.ElapsedMs(), 1e-3);
    if (counters.num_results > 0) {
      rates.push_back(static_cast<double>(counters.num_results) / ms);
    }
  }
  if (optimize_times.empty() || rates.empty()) return 1e5;
  const double median_opt = PercentileInPlace(optimize_times, 50.0);
  const double median_rate = PercentileInPlace(rates, 50.0);
  // Smallest power of ten whose enumeration time exceeds the optimization
  // time for the typical query (§6.2's procedure).
  for (double tau = 10.0; tau <= max_tau; tau *= 10.0) {
    if (tau / median_rate > median_opt) return tau;
  }
  return max_tau;
}

}  // namespace pathenum
