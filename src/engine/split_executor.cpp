#include "engine/split_executor.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/parallel_dfs.h"
#include "engine/query_queue.h"
#include "util/timer.h"

namespace pathenum {

void SplitPhase::Drain(QueryContext& ctx, uint32_t participant) {
  try {
    PATHENUM_CHECK_MSG(participant < max_participants_,
                       "split participant id out of range");
    const EnumCounters mine =
        internal::DrainUnits(cursor_, num_units_, &stop_, [&](uint32_t u) {
          return run_unit_(ctx, participant, u);
        });
    const std::lock_guard<std::mutex> lock(mutex_);
    internal::AccumulateBranch(total_, mine);
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
  return total_;
}

namespace {

/// A materialization unit tripped a control or budget limit.
bool Tripped(const EnumCounters& c) {
  return c.timed_out || c.out_of_memory || c.cancelled || c.work_exceeded;
}

/// One split query's fan-out state, shared by all of its phases: the gate
/// and the serialized adapter over the caller's sink, the one absolute
/// deadline every unit derives its budget from, and the queue whose idle
/// workers help the leader.
struct Fanout {
  const LightweightIndex& index;
  const EnumOptions& opts;
  const Deadline deadline;
  BranchGate& gate;
  BranchSink& sink;
  QueryQueue& queue;
  const uint32_t leader;
  obs::QuerySpan& span;

  EnumCounters RunPhase(size_t num_units, SplitPhase::UnitFn run_unit) const {
    SplitPhase phase(static_cast<uint32_t>(num_units), queue.num_workers(),
                     gate, std::move(run_unit));
    queue.RecruitIdleWorkers(leader, phase);
    return phase.Result();
  }

  EnumOptions UnitOptions() const {
    return internal::BranchOptions(opts, deadline);
  }

  /// IDX-DFS: one unit per first-level branch.
  void Dfs(EnumCounters& out) const;

  /// The split IDX-JOIN: the left half and every right-half start of the
  /// cut level set run as independent materialization units, meet at a
  /// merge barrier where the key/group tables are assembled in `t`, and
  /// the probe fans out over left-tuple chunks into the serialized sink.
  void Join(uint32_t cut, SplitJoinScratch& t, EnumCounters& out) const;
};

void Fanout::Dfs(EnumCounters& out) const {
  const auto branches =
      index.OutSlotsWithin(index.source_slot(), index.hops() - 1);
  const EnumCounters units = RunPhase(
      branches.size(), [&](QueryContext& ctx, uint32_t, uint32_t b) {
        return internal::RunBranchUnit(ctx.split_dfs(), index, branches[b],
                                       sink, opts, deadline);
      });
  span.Mark(obs::SpanStage::kEnumerate);
  internal::FinishFanout(out, {&units, 1}, /*root_partials=*/1,
                         /*root_edges=*/branches.size(), gate.delivered(),
                         gate.response_ms(), opts);
  span.Mark(obs::SpanStage::kMerge);
}

void Fanout::Join(uint32_t cut, SplitJoinScratch& t,
                  EnumCounters& out) const {
  const uint32_t k = index.hops();
  const uint32_t left_width = cut + 1;
  const uint32_t right_width = k - cut + 1;

  // The dependence-disjoint unit decomposition: the left half (one unit)
  // and each right-half start (one unit per vertex of the cut level set
  // C_cut) are mutually independent — level membership needs nothing from
  // the left half, and C_cut is a superset of the join keys, so the extra
  // starts only cost work that the key filter below discards. All units
  // meet at the merge barrier before the probe.
  t.starts.clear();
  index.ForEachSlotInLevel(cut,
                           [&](uint32_t slot) { t.starts.push_back(slot); });
  t.left.clear();
  if (t.right.size() < queue.num_workers()) {
    t.right.resize(queue.num_workers());
  }
  for (std::vector<uint32_t>& buf : t.right) buf.clear();
  t.ranges.assign(t.starts.size(), {0, 0});
  t.range_owner.assign(t.starts.size(), 0);
  // The serial join caps each half at half the memory budget; the split
  // right half meters one shared budget across its per-participant
  // buffers. Because C_cut is a superset of the keys, a tight budget can
  // trip here on speculative tuples the serial path never materializes —
  // the documented cost of the dependence-disjoint decomposition
  // (DESIGN.md §8). The key filter bounds it: once the left half has
  // finished, its published key set lets later right units skip non-key
  // starts.
  std::atomic<size_t> right_used{0};
  const size_t half_cap =
      opts.partial_memory_limit_bytes / (2 * sizeof(uint32_t));
  t.is_key.assign(index.num_vertices(), 0);
  std::atomic<bool> keys_ready{false};

  // Unit 0 is the left half, unit 1 + i the right half from starts[i].
  const EnumCounters halves = RunPhase(
      1 + t.starts.size(),
      [&](QueryContext& ctx, uint32_t participant, uint32_t u) {
        JoinEnumerator& join = ctx.split_join();
        if (u == 0) {
          const EnumCounters c =
              join.MaterializeUnit(index, index.source_slot(), /*base=*/0,
                                   left_width, t.left, UnitOptions());
          if (!Tripped(c)) {
            for (size_t off = cut; off < t.left.size(); off += left_width) {
              t.is_key[t.left[off]] = 1;
            }
            keys_ready.store(true, std::memory_order_release);
          }
          return c;
        }
        const uint32_t start = t.starts[u - 1];
        if (keys_ready.load(std::memory_order_acquire) && !t.is_key[start]) {
          return EnumCounters{};  // provably not a join key: skip the unit
        }
        std::vector<uint32_t>& buf = t.right[participant];
        const size_t begin = buf.size();
        const EnumCounters c =
            join.MaterializeUnit(index, start, /*base=*/cut, right_width,
                                 buf, UnitOptions(), &right_used, half_cap);
        t.ranges[u - 1] = {begin, buf.size()};
        t.range_owner[u - 1] = participant;
        return c;
      });
  // The unit barrier ends the enumerate stage; key-filtering, grouping and
  // the probe fan-out below are the join's merge work.
  span.Mark(obs::SpanStage::kEnumerate);

  size_t right_total = 0;
  for (const std::vector<uint32_t>& buf : t.right) right_total += buf.size();
  EnumCounters probe;
  if (!Tripped(halves)) {
    // The left unit completed (or a flag would be set), so the key set is
    // published: key-filter the per-start ranges into groups.
    t.groups.assign(index.num_vertices(), JoinGroup{});
    for (size_t i = 0; i < t.starts.size(); ++i) {
      if (!t.is_key[t.starts[i]]) continue;
      const auto [begin, end] = t.ranges[i];
      t.groups[t.starts[i]] = {t.right[t.range_owner[i]].data() + begin,
                               (end - begin) / right_width};
    }
    // Probe: left-tuple chunks fan out into the serialized sink.
    const size_t num_left = t.left.size() / left_width;
    constexpr size_t kProbeChunk = 64;
    probe = RunPhase(
        (num_left + kProbeChunk - 1) / kProbeChunk,
        [&](QueryContext& ctx, uint32_t, uint32_t chunk) {
          const size_t begin = static_cast<size_t>(chunk) * kProbeChunk;
          return ctx.split_join().ProbeUnit(
              index, cut, t.left, begin,
              std::min(begin + kProbeChunk, num_left), t.groups, sink,
              UnitOptions());
        });
  }

  const EnumCounters phases[] = {halves, probe};
  internal::FinishFanout(out, phases, /*root_partials=*/0, /*root_edges=*/0,
                         gate.delivered(), gate.response_ms(), opts);
  span.Mark(obs::SpanStage::kMerge);
  // This query's footprint is the materialized sizes plus the key/group
  // tables, not the pooled buffers' retained capacity.
  out.peak_partial_bytes =
      (t.left.size() + right_total) * sizeof(uint32_t) +
      index.num_vertices() * (sizeof(uint8_t) + sizeof(JoinGroup));
}

}  // namespace

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
  if (index->source_slot() != kInvalidSlot) {
    BranchGate gate(opts.result_limit, opts.response_target, enum_timer);
    BranchSink shared(gate, sink, BranchSink::Mode::kSerialized);
    const Fanout fanout{*index, opts, Deadline::AfterMs(opts.time_limit_ms),
                        gate, shared, queue, leader, span};
    if (plan.method == Method::kJoin) {
      fanout.Join(plan.cut, ctx.split_join_scratch(), counters);
    } else {
      fanout.Dfs(counters);
    }
  }
  FinalizeStats(stats, counters, enum_timer.ElapsedMs(), total.ElapsedMs());
  return stats;
}

}  // namespace pathenum
