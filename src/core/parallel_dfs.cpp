#include "core/parallel_dfs.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/dfs_enumerator.h"
#include "util/timer.h"

namespace pathenum {

namespace internal {

EnumOptions BranchOptions(const EnumOptions& opts, const Deadline& deadline) {
  EnumOptions branch_opts = opts;
  branch_opts.result_limit =
      std::numeric_limits<uint64_t>::max();  // delegated to the sink
  branch_opts.response_target = 0;           // delegated to the sink
  branch_opts.time_limit_ms = deadline.RemainingMs();
  return branch_opts;
}

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

void FinishFanout(EnumCounters& out, std::span<const EnumCounters> workers,
                  uint64_t root_partials, uint64_t root_edges,
                  uint64_t delivered, double response_ms,
                  const EnumOptions& opts) {
  for (const EnumCounters& c : workers) {
    out.edges_accessed += c.edges_accessed;
    out.partials += c.partials;
    out.invalid_partials += c.invalid_partials;
    out.timed_out |= c.timed_out;
    out.stopped_by_sink |= c.stopped_by_sink;
    out.out_of_memory |= c.out_of_memory;
    out.cancelled |= c.cancelled;
    out.work_exceeded |= c.work_exceeded;
  }
  // The driver's own work (e.g. the root partial (s) and the per-branch
  // edge scan of the DFS fan-out) is accounted exactly once.
  out.partials += root_partials;
  out.edges_accessed += root_edges;
  // `delivered` is the gate's count of paths actually handed to inner
  // sinks; the gate caps it at the limit structurally, the min() below is
  // only a belt against future drivers feeding raw reservation counts.
  out.num_results = std::min(delivered, opts.result_limit);
  if (out.num_results >= opts.result_limit) {
    out.hit_result_limit = true;
    out.stopped_by_sink = false;
  }
  out.response_ms = response_ms;
}

EnumCounters RunBranchUnit(DfsEnumerator& dfs, const LightweightIndex& index,
                           uint32_t branch, PathSink& sink,
                           const EnumOptions& opts, const Deadline& deadline) {
  // The immediate target-arrival and the duplicate check for s are the
  // root frame's job in the sequential code; handled by RunBranch.
  EnumCounters c =
      dfs.RunBranch(index, branch, sink, BranchOptions(opts, deadline));
  // RunBranch charges both partials of its chain — (s) and (s, branch) —
  // so a standalone call is self-consistent. Within a fan-out the root (s)
  // is shared by every branch and charged exactly once via FinishFanout's
  // root_partials; deduct the per-branch copy here so the merged totals
  // equal the sequential enumeration's.
  c.partials -= 1;
  return c;
}

}  // namespace internal

ParallelDfsEnumerator::ParallelDfsEnumerator(const LightweightIndex& index,
                                             uint32_t num_threads)
    : index_(index),
      owned_pool_(std::make_unique<ThreadPool>(num_threads)),
      pool_(owned_pool_.get()) {}

ParallelDfsEnumerator::ParallelDfsEnumerator(const LightweightIndex& index,
                                             ThreadPool& pool)
    : index_(index), pool_(&pool) {}

ParallelEnumResult ParallelDfsEnumerator::Run(
    const std::function<std::unique_ptr<PathSink>()>& sink_factory,
    const EnumOptions& opts) {
  ParallelEnumResult result;
  Timer wall;
  const Deadline deadline = Deadline::AfterMs(opts.time_limit_ms);
  const uint32_t s_slot = index_.source_slot();
  if (s_slot == kInvalidSlot) return result;

  const uint32_t k = index_.hops();
  const auto branches = index_.OutSlotsWithin(s_slot, k - 1);
  const uint32_t workers = static_cast<uint32_t>(std::min<size_t>(
      pool_->num_workers(), std::max<size_t>(branches.size(), 1)));
  result.threads_used = workers;

  BranchGate gate(opts.result_limit, opts.response_target, wall);
  std::atomic<uint32_t> cursor{0};
  std::vector<EnumCounters> worker_counters(workers);

  pool_->RunOnWorkers(workers, [&](uint32_t worker) {
    std::unique_ptr<PathSink> sink = sink_factory();
    BranchSink limited(gate, *sink, BranchSink::Mode::kPerWorker);
    DfsEnumerator dfs;
    // No shared stop flag here: in per-worker mode an inner sink refusing
    // stops only its own worker (the class contract) — the other workers
    // must keep draining their branches.
    worker_counters[worker] = internal::DrainUnits(
        cursor, branches.size(), /*stop_claims=*/nullptr, [&](uint32_t b) {
          return internal::RunBranchUnit(dfs, index_, branches[b], limited,
                                         opts, deadline);
        });
  });

  internal::FinishFanout(result.counters, worker_counters,
                         /*root_partials=*/1,
                         /*root_edges=*/branches.size(), gate.delivered(),
                         gate.response_ms(), opts);
  result.wall_ms = wall.ElapsedMs();
  return result;
}

ParallelEnumResult ParallelDfsEnumerator::CountAll(const EnumOptions& opts) {
  return Run([] { return std::make_unique<CountingSink>(); }, opts);
}

}  // namespace pathenum
