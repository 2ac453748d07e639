// Enumeration options and the query-time statistics every algorithm reports.
#ifndef PATHENUM_CORE_OPTIONS_H_
#define PATHENUM_CORE_OPTIONS_H_

#include <cstdint>
#include <limits>
#include <string_view>

#include "core/control.h"

namespace pathenum {

/// Which enumeration strategy the PathEnum driver uses.
enum class Method {
  kAuto,  // cost-based selection (the full PathEnum pipeline, Fig. 2)
  kDfs,   // force IDX-DFS (paper Alg. 4)
  kJoin,  // force IDX-JOIN (paper Alg. 5 + 6)
};

inline std::string_view MethodName(Method m) {
  switch (m) {
    case Method::kAuto: return "Auto";
    case Method::kDfs: return "IDX-DFS";
    case Method::kJoin: return "IDX-JOIN";
  }
  return "?";
}

/// Per-query knobs shared by PathEnum and every baseline.
struct EnumOptions {
  /// Stop after this many results (the paper never limits; benches may).
  uint64_t result_limit = std::numeric_limits<uint64_t>::max();

  /// Wall-clock budget in milliseconds; infinity means unlimited. The
  /// paper's harness uses 120000 ms.
  double time_limit_ms = std::numeric_limits<double>::infinity();

  /// The paper's "response time" is the elapsed time until this many
  /// results have been found (1000 in §7.1).
  uint64_t response_target = 1000;

  /// Cap on materialized intermediate tuples (join-based methods). When a
  /// half-query's materialization would exceed it, the run stops and
  /// reports out_of_memory — the paper's BC-JOIN hits exactly this on ep
  /// at k = 8.
  size_t partial_memory_limit_bytes = size_t{1} << 30;  // 1 GiB

  /// Cooperative cancellation (core/control.h). The default token is null
  /// and can never fire. Enumerators poll it at block-emission and
  /// cursor-refill granularity; the index builder at the points
  /// IndexBuildOptions::cancel names.
  CancelToken cancel;

  /// Cap on neighbor entries examined (edges_accessed) — a deterministic,
  /// clock-free work budget. Exceeding it truncates the run
  /// (counters.work_exceeded, QueryState::kTruncated).
  uint64_t work_budget_edges = std::numeric_limits<uint64_t>::max();

  /// Preliminary-estimator threshold τ (paper §6.2; 1e5 in their setup).
  /// kAuto runs the full-fledged estimator only when the preliminary
  /// estimate exceeds it, so a negative τ always runs it (the ablation).
  double tau = 1e5;

  /// Strategy selection; kAuto runs the full two-phase optimizer.
  Method method = Method::kAuto;
};

/// Low-level counters produced by a single enumeration run.
struct EnumCounters {
  uint64_t num_results = 0;
  /// Neighbor entries examined during the search — the paper's "#Edges".
  uint64_t edges_accessed = 0;
  /// Partial results generated — search-tree nodes / materialized tuples.
  uint64_t partials = 0;
  /// Partial results that do not appear in any emitted path ("#Invalid").
  uint64_t invalid_partials = 0;
  /// Milliseconds (relative to enumeration start) when the
  /// `response_target`-th result appeared; negative if never reached.
  double response_ms = -1.0;
  /// Peak bytes of materialized intermediate tuples (join methods only).
  size_t peak_partial_bytes = 0;
  /// Blocks a split query's participants deferred because another one was
  /// delivering into the sink (DESIGN.md §8); 0 for a serial run.
  uint64_t deferred_blocks = 0;
  bool timed_out = false;
  bool hit_result_limit = false;
  bool stopped_by_sink = false;
  bool out_of_memory = false;  // partial_memory_limit_bytes exceeded
  bool cancelled = false;      // EnumOptions::cancel tripped
  bool work_exceeded = false;  // EnumOptions::work_budget_edges exceeded
  /// An oracle certified dist(s,t) > k: the run never started and the
  /// (empty) result set is complete. Exclusive with every flag above.
  bool oracle_rejected = false;

  bool completed() const {
    return !timed_out && !hit_result_limit && !stopped_by_sink &&
           !out_of_memory && !cancelled && !work_exceeded;
  }

  /// The terminal state this run reports (DESIGN.md §10). Precedence when
  /// several flags are set (a cancel can race a deadline): cancelled >
  /// timed_out > the truncation flags. kRejected/kError never originate
  /// here — they are assigned by the front-ends for runs that never
  /// started or died in a sink.
  QueryState TerminalState() const {
    if (oracle_rejected) return QueryState::kUnsatisfiable;
    if (cancelled) return QueryState::kCancelled;
    if (timed_out) return QueryState::kDeadlineExceeded;
    if (hit_result_limit || stopped_by_sink || out_of_memory ||
        work_exceeded) {
      return QueryState::kTruncated;
    }
    return QueryState::kOk;
  }
};

/// Full per-query report (paper metrics: query time, throughput, response
/// time, plus the breakdowns of Figs. 7/12/17).
struct QueryStats {
  double bfs_ms = 0.0;        // the two BFS inside index construction
  double index_ms = 0.0;      // total index construction (includes bfs_ms)
  double optimize_ms = 0.0;   // Alg. 5 join-order optimization
  double enumerate_ms = 0.0;  // the chosen enumerator
  double total_ms = 0.0;      // end-to-end query time
  double response_ms = 0.0;   // time to the first `response_target` results

  double preliminary_estimate = 0.0;  // Eq. 5's T̂ (0 when skipped)
  double t_dfs_cost = 0.0;            // Eq. 1 size T_DFS (when optimized)
  double t_join_cost = 0.0;           // Eq. 1 size T_JOIN (when optimized)
  Method method = Method::kDfs;       // what actually ran
  uint32_t cut_position = 0;          // i* (join only)

  uint64_t index_vertices = 0;
  uint64_t index_edges = 0;
  size_t index_bytes = 0;

  /// Set by the engine's cross-query cache (DESIGN.md §6): the per-query
  /// index was reused from a previous query / the whole result set was
  /// replayed without enumerating.
  bool index_cache_hit = false;
  bool result_cache_hit = false;

  EnumCounters counters;

  /// Results per second over the whole query (paper's throughput metric;
  /// counts results found even when the query was cut off).
  double ThroughputPerSec() const {
    return total_ms > 0.0
               ? static_cast<double>(counters.num_results) / (total_ms / 1e3)
               : 0.0;
  }
};

}  // namespace pathenum

#endif  // PATHENUM_CORE_OPTIONS_H_
