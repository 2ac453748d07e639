// Multi-threaded IDX-DFS. The search tree under s fans out into the
// independent subtrees rooted at each first-level extension I_t(s, k-1);
// a worker pool claims subtrees dynamically (atomic cursor) and runs the
// sequential enumerator inside each. An extension of the paper's system:
// the per-query index is immutable after construction, so the enumeration
// parallelizes without any synchronization beyond result accounting.
//
// Since the pool migration (DESIGN.md §8) the enumerator spawns no threads
// of its own: branch units run on a ThreadPool — an external one shared
// with the caller, or a private pool spawned once per enumerator and
// reused across Run calls — and deliveries flow through the unified
// BranchGate/BranchSink fan-out adapter of core/sink.h.
#ifndef PATHENUM_CORE_PARALLEL_DFS_H_
#define PATHENUM_CORE_PARALLEL_DFS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <span>

#include "core/index.h"
#include "core/options.h"
#include "core/sink.h"
#include "core/thread_pool.h"
#include "util/timer.h"

namespace pathenum {

class DfsEnumerator;

namespace internal {

// Accounting helpers shared by every fan-out driver (the pooled
// ParallelDfsEnumerator below and the engines' split executor,
// engine/split_executor.h). Unit-level limit bookkeeping is subtle enough
// that it must live in exactly one place.

/// Options for one unit of a fanned-out enumeration: result limit and
/// response target are delegated to the shared sink; the time budget is
/// re-derived from the query's one absolute deadline
/// (Deadline::RemainingMs), so every unit — whenever and on whichever
/// worker it starts — observes the same end instant.
EnumOptions BranchOptions(const EnumOptions& opts, const Deadline& deadline);

/// Folds one finished unit's counters into a participant's running total.
/// Returns false when the participant should stop claiming units (sink
/// stop, timeout, memory/work budget or cancel).
bool AccumulateBranch(EnumCounters& total, const EnumCounters& branch);

/// Merges per-participant totals into `out` and applies the shared
/// accounting: `root_partials`/`root_edges` charge the fan-out driver's own
/// work once (the DFS drivers pass the root partial (s) and the per-branch
/// edge scan; the split join passes zeros — its units carry all of its
/// work), and `delivered` results against `opts.result_limit` decide
/// hit_result_limit vs stopped_by_sink. `delivered` must come from the
/// fan-out's BranchGate, which structurally caps it at the limit — never
/// limit + 1, even when a unit hits the limit exactly at a merge barrier.
void FinishFanout(EnumCounters& out, std::span<const EnumCounters> workers,
                  uint64_t root_partials, uint64_t root_edges,
                  uint64_t delivered, double response_ms,
                  const EnumOptions& opts);

/// The one unit-claiming loop every fan-out driver runs per participant
/// (DESIGN.md §8): claims units [0, num_units) off the shared `cursor`,
/// runs each through `run_unit(u)` -> EnumCounters, and accumulates their
/// counters until the units are drained or this participant's accumulated
/// counters say stop. A participant stopping early trips `stop_claims` (if
/// given) so the other participants stop claiming new units too — the
/// query-wide limit makes their remaining work moot. DFS first-level
/// branches (RunBranchUnit), the split join's half units and its probe
/// chunks all drain through it.
template <typename RunUnit>
EnumCounters DrainUnits(std::atomic<uint32_t>& cursor, size_t num_units,
                        std::atomic<bool>* stop_claims, RunUnit&& run_unit) {
  EnumCounters total;
  while (stop_claims == nullptr ||
         !stop_claims->load(std::memory_order_relaxed)) {
    const uint32_t u = cursor.fetch_add(1, std::memory_order_relaxed);
    if (u >= num_units) break;
    if (!AccumulateBranch(total, run_unit(u))) {
      if (stop_claims != nullptr) {
        stop_claims->store(true, std::memory_order_relaxed);
      }
      break;
    }
  }
  return total;
}

/// One first-level DFS branch unit: runs `branch` through `dfs` into `sink`
/// (a BranchSink, normally) under the unit options of BranchOptions, with
/// the shared root partial deducted (FinishFanout charges it once).
EnumCounters RunBranchUnit(DfsEnumerator& dfs, const LightweightIndex& index,
                           uint32_t branch, PathSink& sink,
                           const EnumOptions& opts, const Deadline& deadline);

}  // namespace internal

/// Outcome of a parallel enumeration.
struct ParallelEnumResult {
  /// Merged counters across all workers (times are wall-clock).
  EnumCounters counters;
  double wall_ms = 0.0;
  uint32_t threads_used = 0;
};

/// Parallel index-based DFS enumerator.
///
/// Sinks are created per worker through `sink_factory`, so user code needs
/// no locking: each worker owns its sink exclusively (BranchSink's
/// kPerWorker mode), and cross-thread limits (result_limit,
/// response_target) are enforced by the shared BranchGate. Results are
/// exact: the union of the per-sink path sets equals the sequential result
/// set.
class ParallelDfsEnumerator {
 public:
  /// Private-pool form: spawns a pool of `num_threads` workers once (0
  /// picks std::thread::hardware_concurrency()) and reuses it across Run
  /// calls.
  explicit ParallelDfsEnumerator(const LightweightIndex& index,
                                 uint32_t num_threads = 0);

  /// Shared-pool form: fans out over `pool` (not owned; must outlive the
  /// enumerator, and the caller owns its one-job-at-a-time contract).
  ParallelDfsEnumerator(const LightweightIndex& index, ThreadPool& pool);

  /// Runs the enumeration. `sink_factory` is invoked once per worker (from
  /// that worker's thread); the returned sinks receive disjoint subsets of
  /// the result set.
  ParallelEnumResult Run(
      const std::function<std::unique_ptr<PathSink>()>& sink_factory,
      const EnumOptions& opts = {});

  /// Convenience: counts all paths with per-thread counting sinks.
  ParallelEnumResult CountAll(const EnumOptions& opts = {});

 private:
  const LightweightIndex& index_;
  std::unique_ptr<ThreadPool> owned_pool_;  // null in the shared-pool form
  ThreadPool* pool_;
};

}  // namespace pathenum

#endif  // PATHENUM_CORE_PARALLEL_DFS_H_
