#include "engine/split_executor.h"

#include <limits>
#include <memory>

#include "core/dfs_enumerator.h"
#include "engine/query_queue.h"

namespace pathenum {

namespace {

/// Options for one branch unit: the result limit and the response target
/// are delegated to the shared gate; the time budget is re-derived from the
/// query's one absolute deadline, so every unit — whenever and on whichever
/// worker it starts — observes the same end instant; the work budget is
/// what the query's budget has left, `work_left`.
EnumOptions BranchOptions(const EnumOptions& opts, const Deadline& deadline,
                          uint64_t work_left) {
  EnumOptions branch_opts = opts;
  branch_opts.result_limit = std::numeric_limits<uint64_t>::max();
  branch_opts.response_target = 0;
  branch_opts.time_limit_ms = deadline.RemainingMs();
  branch_opts.work_budget_edges = work_left;
  return branch_opts;
}

/// Folds one finished unit's counters into a running total. Returns false
/// when the participant should stop claiming branches (sink stop, timeout,
/// memory/work budget or cancel).
bool AccumulateBranch(EnumCounters& total, const EnumCounters& branch) {
  total.num_results += branch.num_results;
  total.edges_accessed += branch.edges_accessed;
  total.partials += branch.partials;
  total.invalid_partials += branch.invalid_partials;
  total.timed_out |= branch.timed_out;
  total.stopped_by_sink |= branch.stopped_by_sink;
  total.out_of_memory |= branch.out_of_memory;
  total.cancelled |= branch.cancelled;
  total.work_exceeded |= branch.work_exceeded;
  return !branch.stopped_by_sink && !branch.timed_out &&
         !branch.out_of_memory && !branch.cancelled && !branch.work_exceeded;
}

}  // namespace

SplitPhase::SplitPhase(const LightweightIndex& index, PathSink& sink,
                       const EnumOptions& opts, const Timer& timer)
    : index_(index),
      branches_(index.OutSlotsWithin(index.source_slot(), index.hops() - 1)),
      opts_(opts),
      deadline_(Deadline::AfterMs(opts.time_limit_ms)),
      sink_(sink),
      gate_(opts.result_limit, opts.response_target, timer,
            {.deadline = deadline_, .cancel = opts.cancel}) {}

void SplitPhase::Drain(QueryContext& ctx) {
  try {
    BranchSink sink(gate_, sink_, ctx.split_deferred());
    DfsEnumerator& dfs = ctx.split_dfs();
    EnumCounters mine;
    while (!stop_.load(std::memory_order_relaxed)) {
      const uint32_t b = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (b >= branches_.size()) break;
      // A branch polls the query's cancel, deadline and work budget only
      // every few thousand search steps, from a fresh countdown, so a query
      // of many small branches would never poll them: poll once per claim
      // too. The work budget is the query's: a claim gets what the
      // finished branches left of it.
      EnumCounters c;
      const uint64_t spent = spent_edges_.load(std::memory_order_relaxed);
      c.cancelled = opts_.cancel.cancelled();
      c.timed_out = deadline_.Expired();
      c.work_exceeded = spent >= opts_.work_budget_edges;
      if (!c.cancelled && !c.timed_out && !c.work_exceeded) {
        // The immediate target arrival and the duplicate check for s are
        // the root frame's job in the sequential code; RunBranch handles
        // them.
        c = dfs.RunBranch(
            index_, branches_[b], sink,
            BranchOptions(opts_, deadline_, opts_.work_budget_edges - spent));
        spent_edges_.fetch_add(c.edges_accessed, std::memory_order_relaxed);
        // RunBranch charges both partials of its chain, (s) and
        // (s, branch); the root (s) is shared by every branch and Result
        // charges it once.
        c.partials -= 1;
      }
      if (!AccumulateBranch(mine, c)) {
        // The query-wide limit, deadline or cancel makes the remaining
        // branches moot: stop every participant's claiming.
        stop_.store(true, std::memory_order_relaxed);
        break;
      }
    }
    // Before the barrier: what this participant deferred holds granted
    // reservations, so delivered() reaches its final count only once every
    // participant has flushed.
    sink.Flush();
    const std::lock_guard<std::mutex> lock(mutex_);
    AccumulateBranch(total_, mine);
  } catch (...) {
    // A failing participant (a throwing sink, typically) fails the whole
    // query: stop the claiming loops and the gate so no other participant
    // delivers into the broken sink.
    stop_.store(true, std::memory_order_relaxed);
    gate_.Stop();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failure_ == nullptr) failure_ = std::current_exception();
  }
}

EnumCounters SplitPhase::Result() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (failure_ != nullptr) std::rethrow_exception(failure_);
  EnumCounters out = total_;
  // The fan-out's own work, charged once: the root partial (s) and the
  // scan of its branch list.
  out.partials += 1;
  out.edges_accessed += branches_.size();
  // Paths actually handed to the caller's sink; the gate caps the count at
  // the limit, so a branch hitting the limit right at the barrier never
  // reads as limit + 1.
  out.num_results = gate_.delivered();
  // A branch reads as stopped by its sink whenever its adapter signalled
  // stop: at the limit, at the latch, or when a trip dropped its deferred
  // blocks. The gate tells them apart. The sink's refusal may also first
  // show at a participant's final flush, which no branch counter records;
  // a latch tripped by a failure rethrew above.
  out.hit_result_limit = out.num_results >= opts_.result_limit;
  out.stopped_by_sink = !out.hit_result_limit && gate_.stopped();
  switch (gate_.dropped_by()) {
    case QueryControl::Trip::kCancelled: out.cancelled = true; break;
    case QueryControl::Trip::kDeadline: out.timed_out = true; break;
    default: break;
  }
  out.response_ms = gate_.response_ms();
  out.deferred_blocks = gate_.deferred_blocks();
  return out;
}

QueryStats RunSplitQuery(QueryQueue& queue, uint32_t leader, const Query& q,
                         PathSink& sink, const EnumOptions& opts,
                         IndexCache* cache, obs::QuerySpan& span) {
  QueryContext& ctx = queue.context(leader);
  ValidateQuery(ctx.enumerator().view(), q);
  span.SetSplit();
  QueryStats stats;
  Timer total;

  // Split execution builds with the same BuildOptionsFor-derived
  // fingerprint and plans with the same PlanExecution pipeline as the
  // serial path, so a split query shares cache entries with — and picks the
  // same method as — its serial equivalent. It shares the index cache but
  // not the result cache (its sink interleaving is nondeterministic, so
  // replay order would be, too). The index is immutable from here on: every
  // unit, whichever worker runs it and however many snapshots publish
  // meanwhile, observes exactly the leader's snapshot.
  const std::shared_ptr<const LightweightIndex> index = ctx.AcquireIndex(
      q, PathEnumerator::BuildOptionsFor(q, opts), cache, stats);
  span.SetIndexOutcome(stats.index_cache_hit, false);
  span.Mark(obs::SpanStage::kIndexAcquire);
  if (index->build_stats().interrupted) {
    // Deadline/cancel tripped the build: no fan-out (the build stub has no
    // usable slots anyway).
    FinalizeInterruptedBuild(stats, *index, total.ElapsedMs());
    return stats;
  }

  const PathEnumerator::ExecutionPlan plan =
      PathEnumerator::PlanExecution(*index, opts, stats);
  stats.method = plan.method;
  stats.cut_position = plan.cut;

  Timer enum_timer;
  EnumCounters counters;
  if (plan.method == Method::kJoin) {
    // An IDX-JOIN plan (forced, or kAuto past kJoinTupleCost) runs the
    // serial join on the leader, through the enumeration step RunWithIndex
    // runs: the same cut, emission order and answers as the serial path
    // (DESIGN.md §8).
    counters = ctx.enumerator().Enumerate(*index, plan, sink, opts);
    span.Mark(obs::SpanStage::kEnumerate);
  } else if (index->source_slot() != kInvalidSlot) {
    SplitPhase phase(*index, sink, opts, enum_timer);
    queue.RecruitIdleWorkers(leader, phase);
    span.Mark(obs::SpanStage::kEnumerate);
    counters = phase.Result();
    span.Mark(obs::SpanStage::kMerge);
  }
  FinalizeStats(stats, counters, enum_timer.ElapsedMs(), total.ElapsedMs());
  span.SetPlan(stats);
  return stats;
}

}  // namespace pathenum
