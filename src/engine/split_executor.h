// The split executor every split query runs through (DESIGN.md §8): one
// query's work — IDX-DFS first-level branches, or the split IDX-JOIN's left
// half, right-half starts and probe chunks — is cut into
// dependence-disjoint units that every participating worker claims off one
// cursor. RunSplitQuery acquires the index, plans, fans out phase by phase,
// merges, and marks the span's stages. The query's claiming worker on the
// one query queue (engine/query_queue.h) leads, and the queue publishes each
// phase to its idle workers, for both engines.
#ifndef PATHENUM_ENGINE_SPLIT_EXECUTOR_H_
#define PATHENUM_ENGINE_SPLIT_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "engine/query_context.h"
#include "obs/span.h"

namespace pathenum {

class QueryQueue;

/// One fan-out phase of a split query: `num_units` units claimed off one
/// atomic cursor by every participant the queue recruits. Participants
/// enter through Drain; the phase ends when every Drain call has returned
/// (the leader's barrier).
class SplitPhase {
 public:
  /// Runs unit `unit` on `ctx`'s scratch for `participant` (see Drain).
  using UnitFn = std::function<EnumCounters(QueryContext& ctx,
                                            uint32_t participant,
                                            uint32_t unit)>;

  SplitPhase(uint32_t num_units, uint32_t max_participants, BranchGate& gate,
             UnitFn run_unit)
      : num_units_(num_units),
        max_participants_(max_participants),
        gate_(gate),
        run_unit_(std::move(run_unit)) {}

  /// True while unclaimed units remain and nothing stopped the phase — the
  /// queue's predicate for recruiting an idle worker.
  bool HasUnclaimedUnits() const {
    return !stop_.load(std::memory_order_relaxed) &&
           cursor_.load(std::memory_order_relaxed) < num_units_;
  }

  /// One participant's share: claims and runs units on `ctx` until the
  /// phase is drained or stopped, then folds its counters into the phase
  /// total. `participant` is the queue's id for the worker owning `ctx`
  /// (< max_participants, one Drain per id and phase), so a participant
  /// reuses the same per-participant buffers query after query. Never
  /// throws: a failure stops the units and the query's gate, and the
  /// first one is rethrown by the leader after the barrier.
  void Drain(QueryContext& ctx, uint32_t participant);

  /// After the barrier: rethrows the first participant failure, else
  /// returns the participants' merged counters.
  EnumCounters Result();

 private:
  const uint32_t num_units_;
  const uint32_t max_participants_;
  BranchGate& gate_;
  const UnitFn run_unit_;
  std::atomic<uint32_t> cursor_{0};
  std::atomic<bool> stop_{false};
  std::mutex mutex_;  // guards the fields below
  EnumCounters total_;
  std::exception_ptr failure_;
};

/// Runs `q` split across `queue`'s workers: worker `leader` (the one that
/// claimed the query) acquires the index on its context (through `cache`
/// when given, sharing entries with the serial path), plans with
/// PathEnumerator::PlanExecution, owns the split join's tables and drains
/// every phase, and idle workers help (QueryQueue::RecruitIdleWorkers).
/// The span gets the split flag and its index_acquire / enumerate / merge
/// marks (the caller begins and finishes it). Delivery into `sink` is
/// serialized. Throws what ValidateQuery throws, and rethrows a failed
/// participant's first exception after the barrier.
QueryStats RunSplitQuery(QueryQueue& queue, uint32_t leader, const Query& q,
                         PathSink& sink, const EnumOptions& opts,
                         IndexCache* cache, obs::QuerySpan& span);

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_SPLIT_EXECUTOR_H_
