// The PathEnum driver — the full pipeline of paper Figure 2:
//   1. build the light-weight index for q(s, t, k);
//   2. preliminary cardinality estimate T̂ (Eq. 5);
//   3. if T̂ <= τ, run IDX-DFS directly;
//   4. otherwise run the full-fledged optimizer (Alg. 5) and execute the
//      cheaper of IDX-DFS and IDX-JOIN.
// Keep one PathEnumerator per graph/session: it owns the reusable BFS
// buffers, so repeated queries avoid O(|V|) re-initialisation.
#ifndef PATHENUM_CORE_PATH_ENUM_H_
#define PATHENUM_CORE_PATH_ENUM_H_

#include <vector>

#include "core/constraints.h"
#include "core/dfs_enumerator.h"
#include "core/estimator.h"
#include "core/index.h"
#include "core/join_enumerator.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/view.h"
#include "util/memory.h"

namespace pathenum {

/// Facade over index construction, the optimizer and both enumerators.
///
/// Owns every piece of per-query scratch (BFS fields, enumerator stacks and
/// mark arrays, join tuple tables, the bump arena for per-query-sized
/// tables), so repeated queries through one instance reach a zero-allocation
/// steady state. One instance serves one thread; the engine keeps one per
/// worker (see src/engine/).
class PathEnumerator {
 public:
  /// Accepts a plain `Graph` (implicit borrowing view, version 0) or a live
  /// `GraphView` snapshot. Unsatisfiable-query rejection (dist(s,t) > k) is
  /// the engines' admission gate over a LiveDistanceOracle (DESIGN.md §13),
  /// not the enumerator's: every query run here executes the exact pipeline.
  explicit PathEnumerator(const GraphView& view) : view_(view) {
    join_.SetArena(&arena_);
  }

  /// Points the enumerator at a different snapshot. Cheap: the epoch-stamped
  /// scratch survives (buffers resize lazily if |V| changed).
  void Rebind(const GraphView& view) { view_ = view; }

  /// Runs q and streams every hop-constrained s-t path into `sink`.
  /// `opts.method` selects IDX-DFS / IDX-JOIN / cost-based auto.
  QueryStats Run(const Query& q, PathSink& sink, const EnumOptions& opts = {});

  /// The index-construction options Run would use for `q` under `opts` —
  /// exposed so the engine's cross-query cache keys (DESIGN.md §6) match
  /// exactly what Run builds.
  static IndexBuilder::Options BuildOptionsFor(const Query& q,
                                               const EnumOptions& opts);

  /// The method/cut decision of the Figure-2 pipeline for an already-built
  /// index. The single planning path shared by Run/RunWithIndex and the
  /// engine's intra-query split mode (DESIGN.md §8) — split and serial
  /// executions of one query must agree on the method, or the split/serial
  /// differential guarantees break. Fills the estimator/optimizer fields
  /// of `stats`. The index must satisfy BuildOptionsFor(query, opts).
  struct ExecutionPlan {
    Method method = Method::kDfs;
    uint32_t cut = 0;  // i* (join only)
  };
  static ExecutionPlan PlanExecution(const LightweightIndex& index,
                                     const EnumOptions& opts,
                                     QueryStats& stats);

  /// Enumerates `index` with `plan` (from PlanExecution) into `sink` on
  /// this enumerator's scratch, resetting the arena that the join's tables
  /// come from. The enumeration step of Run/RunWithIndex; the split
  /// executor (DESIGN.md §8) runs IDX-JOIN plans through it on the leader.
  EnumCounters Enumerate(const LightweightIndex& index,
                         const ExecutionPlan& plan, PathSink& sink,
                         const EnumOptions& opts);

  /// Runs the post-construction pipeline (estimate, optimize, enumerate) on
  /// an externally provided index for `index.query()`, skipping the build —
  /// the engine's index cache executes hits through this. `index` must have
  /// been built over graph() with options at least as complete as
  /// BuildOptionsFor(index.query(), opts); it may be shared read-only with
  /// other threads. `stats.bfs_ms`/`index_ms` are 0 (nothing was built).
  QueryStats RunWithIndex(const LightweightIndex& index, PathSink& sink,
                          const EnumOptions& opts = {});

  /// Runs q under the Appendix-E constraint extensions. Constrained queries
  /// always use the (constrained) DFS enumerator; the edge predicate is
  /// pushed down into index construction.
  QueryStats RunConstrained(const Query& q, const PathConstraints& constraints,
                            PathSink& sink, const EnumOptions& opts = {});

  /// The base graph of the bound snapshot (identical to the full topology
  /// only when the view is overlay-free).
  const Graph& graph() const { return view_.base(); }

  /// The bound snapshot.
  const GraphView& view() const { return view_; }

  /// Builds and returns just the index (tooling/benchmark hook). Overlay-
  /// free views dispatch to the Build<Graph> instantiation so the static
  /// hot path keeps its branch-free adjacency loops (overlay views pay one
  /// touched-bit test per access, and a hash lookup only for a vertex an
  /// update touched).
  LightweightIndex BuildIndex(const Query& q,
                              const IndexBuilder::Options& opts = {}) {
    return view_.has_overlay() ? builder_.Build(view_, q, opts)
                               : builder_.Build(view_.base(), q, opts);
  }

  /// Bytes of reusable scratch currently held (enumerator marks/buffers plus
  /// the arena's capacity). Stable across repeated identical queries — the
  /// engine's no-allocation-in-steady-state tests assert exactly this.
  size_t ScratchBytes() const {
    return dfs_.ScratchBytes() + join_.ScratchBytes() + arena_.capacity_bytes();
  }

  const BumpArena& arena() const { return arena_; }

 private:
  // Intra-query splitting (DESIGN.md §8) runs branch units on dfs_ per
  // worker through QueryContext::split_dfs.
  friend class QueryContext;

  /// Shared tail of Run/RunWithIndex: method choice and enumeration.
  void ExecuteOnIndex(const LightweightIndex& index, QueryStats& stats,
                      PathSink& sink, const EnumOptions& opts, Timer& total);

  GraphView view_;
  IndexBuilder builder_;
  DfsEnumerator dfs_;
  JoinEnumerator join_;
  BumpArena arena_;
};

/// Folds enumeration counters and phase timings into a query report; the
/// response time runs from query start to the response_target-th result,
/// or is the whole query time if the target was never reached.
void FinalizeStats(QueryStats& stats, const EnumCounters& counters,
                   double enumerate_ms, double total_ms);

/// FinalizeStats for a query whose index build was control-tripped
/// (`index.build_stats().interrupted`): no enumeration ran, zero results,
/// the matching cancelled / timed_out flag. Every front end reports a
/// tripped build through this.
void FinalizeInterruptedBuild(QueryStats& stats, const LightweightIndex& index,
                              double total_ms);

/// Calibrates the preliminary-estimator threshold τ for a graph following
/// §6.2: grow τ through powers of ten until the time IDX-DFS needs to find
/// τ results exceeds the median join-order-optimization time of the sample
/// queries. Returns the chosen τ.
double CalibrateTau(const Graph& g, const std::vector<Query>& sample_queries,
                    double max_tau = 1e8);

}  // namespace pathenum

#endif  // PATHENUM_CORE_PATH_ENUM_H_
