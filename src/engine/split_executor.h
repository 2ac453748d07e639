// The split executor every split query runs through (DESIGN.md §8): an
// IDX-DFS plan is cut into its first-level branches, dependence-disjoint
// units that every participating worker claims off one cursor; an IDX-JOIN
// plan runs the serial join on the leader. RunSplitQuery acquires the
// index, plans, fans out, merges, and marks the span's stages. The query's
// claiming worker on the one query queue (engine/query_queue.h) leads, and
// the queue publishes the fan-out to its idle workers, for both engines.
#ifndef PATHENUM_ENGINE_SPLIT_EXECUTOR_H_
#define PATHENUM_ENGINE_SPLIT_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>

#include "core/index.h"
#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "engine/query_context.h"
#include "obs/span.h"
#include "util/timer.h"

namespace pathenum {

class QueryQueue;

/// One split query's IDX-DFS fan-out: one unit per first-level branch of
/// the index, claimed off one atomic cursor by every participant the queue
/// recruits, each running on its own context's DFS scratch and delivering
/// through its own BranchSink over the query's one gate and the caller's
/// sink. A participant whose block finds another inside the sink defers it
/// into its context's buffer and keeps enumerating; each participant's
/// blocks, and so each branch's paths, reach the sink in the order it
/// produced them. Participants enter through Drain, which flushes what they
/// deferred before it returns; the fan-out ends when every Drain call has
/// returned (the leader's barrier).
class SplitPhase {
 public:
  /// Fans out the branches of `index` (whose source slot must be valid)
  /// into `sink` under `opts`; `timer` is the enumeration stopwatch the
  /// response time is measured against. Both must outlive the phase.
  SplitPhase(const LightweightIndex& index, PathSink& sink,
             const EnumOptions& opts, const Timer& timer);

  /// True while unclaimed branches remain and nothing stopped the phase —
  /// the queue's predicate for recruiting an idle worker.
  bool HasUnclaimedUnits() const {
    return !stop_.load(std::memory_order_relaxed) &&
           cursor_.load(std::memory_order_relaxed) < branches_.size();
  }

  /// One participant's share: claims and runs branches on `ctx`, through
  /// an adapter deferring into `ctx`'s buffer, until the phase is drained
  /// or stopped; then delivers what it deferred and folds its counters into
  /// the phase total. Never throws: a failure stops the branches and the
  /// gate, and the first one is rethrown by Result after the barrier.
  void Drain(QueryContext& ctx);

  /// After the barrier: rethrows the first participant failure, else
  /// returns the merged counters of the whole enumeration — the shared root
  /// charged once, results, truncation flags and the deferred-block count
  /// rebuilt from the gate.
  EnumCounters Result();

 private:
  const LightweightIndex& index_;
  const std::span<const uint32_t> branches_;
  const EnumOptions& opts_;
  const Deadline deadline_;  // the query's one end instant
  PathSink& sink_;  // the caller's
  BranchGate gate_;
  std::atomic<uint32_t> cursor_{0};
  std::atomic<bool> stop_{false};
  // Edges the finished branches examined, against the query's
  // EnumOptions::work_budget_edges.
  std::atomic<uint64_t> spent_edges_{0};
  std::mutex mutex_;  // guards the fields below
  EnumCounters total_;
  std::exception_ptr failure_;
};

/// Runs `q` split across `queue`'s workers: worker `leader` (the one that
/// claimed the query) acquires the index on its context (through `cache`
/// when given, sharing entries with the serial path) and plans with
/// PathEnumerator::PlanExecution. An IDX-DFS plan fans its branches out,
/// the leader draining them and idle workers helping
/// (QueryQueue::RecruitIdleWorkers); an IDX-JOIN plan runs the serial join
/// on the leader through PathEnumerator::Enumerate. The span gets the split
/// flag and its index_acquire / enumerate / merge marks (the caller begins
/// and finishes it). Delivery into `sink` is serialized, each first-level
/// branch's paths in their serial order. Throws what ValidateQuery throws,
/// and rethrows a failed participant's first exception after the barrier.
QueryStats RunSplitQuery(QueryQueue& queue, uint32_t leader, const Query& q,
                         PathSink& sink, const EnumOptions& opts,
                         IndexCache* cache, obs::QuerySpan& span);

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_SPLIT_EXECUTOR_H_
