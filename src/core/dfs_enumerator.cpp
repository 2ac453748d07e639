#include "core/dfs_enumerator.h"

#include <algorithm>
#include <cassert>

#include "util/memory.h"

namespace pathenum {

namespace {
/// How many search steps between deadline checks; keeps clock reads off the
/// hot path.
constexpr uint64_t kCheckInterval = 8192;
}  // namespace

void DfsEnumerator::Prepare(const LightweightIndex& index,
                            const EnumOptions& opts) {
  // stack_/frames_ hold one entry per path vertex: a k-hop path has k + 1
  // vertices and the deepest stack index is exactly k.
  static_assert(sizeof(stack_) / sizeof(stack_[0]) == kMaxHops + 1);
  assert(index.hops() <= kMaxHops);

  index_ = &index;
  adj_ = index.out_adjacency();
  translate_ = index.slot_to_vertex();
  counters_ = EnumCounters{};
  timer_.Reset();
  deadline_ = Deadline::AfterMs(opts.time_limit_ms);
  cancel_ = opts.cancel.flag();
  work_budget_ = opts.work_budget_edges;
  check_countdown_ = kCheckInterval;
  stop_ = false;
  found_ = 0;
  divergence_ = 0;

  if (on_path_.size() < index.num_vertices()) {
    on_path_.resize(index.num_vertices(), 0);
  }
  if (++epoch_ == 0) {  // wrap: stale stamps could collide, wipe them
    std::fill(on_path_.begin(), on_path_.end(), 0);
    epoch_ = 1;
  }
}

EnumCounters DfsEnumerator::Run(PathSink& sink, const EnumOptions& opts) {
  PATHENUM_CHECK_MSG(index_ != nullptr, "enumerator not bound to an index");
  return Run(*index_, sink, opts);
}

EnumCounters DfsEnumerator::Run(const LightweightIndex& index, PathSink& sink,
                                const EnumOptions& opts) {
  Prepare(index, opts);
  emitter_.Arm(&sink, &counters_, &timer_, opts.result_limit,
               opts.response_target);

  const uint32_t s_slot = index.source_slot();
  if (s_slot == kInvalidSlot) return counters_;  // no result within k hops

  stack_[0] = s_slot;
  on_path_[s_slot] = epoch_;
  counters_.partials = 1;  // M = (s)
  if (s_slot == index.target_slot()) {
    AppendPath(0);
  } else {
    SearchFrom(0);
  }
  return FinishRun();
}

EnumCounters DfsEnumerator::RunBranch(uint32_t branch, PathSink& sink,
                                      const EnumOptions& opts) {
  PATHENUM_CHECK_MSG(index_ != nullptr, "enumerator not bound to an index");
  return RunBranch(*index_, branch, sink, opts);
}

EnumCounters DfsEnumerator::RunBranch(const LightweightIndex& index,
                                      uint32_t branch, PathSink& sink,
                                      const EnumOptions& opts) {
  Prepare(index, opts);
  emitter_.Arm(&sink, &counters_, &timer_, opts.result_limit,
               opts.response_target);

  const uint32_t s_slot = index.source_slot();
  PATHENUM_CHECK_MSG(s_slot != kInvalidSlot, "empty index");
  stack_[0] = s_slot;
  stack_[1] = branch;
  on_path_[s_slot] = epoch_;
  on_path_[branch] = epoch_;
  // Both partial results of the starting chain are on the books: (s) and
  // (s, branch). The split executor deducts the shared (s) copy per branch
  // and charges it once when it merges (SplitPhase).
  counters_.partials = 2;
  if (branch == index.target_slot()) {
    AppendPath(1);
  } else {
    SearchFrom(1);
  }
  return FinishRun();
}

size_t DfsEnumerator::ScratchBytes() const { return VectorBytes(on_path_); }

bool DfsEnumerator::ShouldStop() {
  if (stop_) return true;
  if (check_countdown_-- == 0) {
    check_countdown_ = kCheckInterval;
    CheckControl();
  }
  return stop_;
}

void DfsEnumerator::CheckControl(uint64_t pending_edges) {
  // Precedence mirrors EnumCounters::TerminalState: an explicit cancel
  // wins over a deadline racing it, and both win over the work budget.
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    counters_.cancelled = true;
    stop_ = true;
  } else if (deadline_.Expired()) {
    counters_.timed_out = true;
    stop_ = true;
  } else if (counters_.edges_accessed + pending_edges >= work_budget_) {
    counters_.work_exceeded = true;
    stop_ = true;
  }
}

void DfsEnumerator::AppendPath(uint32_t depth) {
  const uint32_t len = depth + 1;
  PathBlock& block = emitter_.block();
  if (!block.HasRoomFor(len)) {
    if (!emitter_.Flush()) {
      // The sink (or the limit, at block granularity) stopped the run:
      // this just-found path is dropped, exactly as a per-path emitter
      // would have stopped searching before finding it.
      stop_ = true;
      return;
    }
    divergence_ = 0;  // blocks are self-contained: restart the delta chain
    // Block-emission-granularity cancellation poll: a cancel lands within
    // one block (~256 paths) of firing even when the countdown-gated
    // ShouldStop poll is far away.
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      counters_.cancelled = true;
      stop_ = true;
      return;
    }
  }
  const uint32_t prefix = divergence_;
  block.AppendDelta(prefix, stack_ + prefix, len - prefix, translate_);
  divergence_ = len;
  ++found_;
  if (emitter_.AtResultLimit()) {
    // Flush the exactly-limit-sized tail; Flush sets hit_result_limit (or
    // stopped_by_sink if the sink refuses first — the per-path precedence).
    emitter_.Flush();
    divergence_ = 0;
    stop_ = true;
  }
}

EnumCounters DfsEnumerator::FinishRun() {
  // Deliver whatever is pending: on a timeout (or normal exhaustion) every
  // found path still reaches the sink, exactly like per-path emission
  // delivered each path the moment it was found. No-op after a limit/sink
  // stop (those flush inside AppendPath).
  emitter_.Flush();
  if (found_ == 0) counters_.invalid_partials += 1;  // the root itself
  return counters_;
}

void DfsEnumerator::SearchFrom(uint32_t start_depth) {
  // Devirtualize the ends-table width for the whole run: one branch here
  // instead of one per frame in the loop.
  if (adj_.ends16 != nullptr) {
    SearchFromImpl<uint16_t>(start_depth, adj_.ends16);
  } else {
    SearchFromImpl<uint32_t>(start_depth, adj_.ends32);
  }
}

template <typename EndT>
void DfsEnumerator::SearchFromImpl(uint32_t start_depth, const EndT* ends) {
  const uint32_t k = index_->hops();
  const uint32_t t_slot = index_->target_slot();
  const uint32_t stride = adj_.stride;
  const uint64_t* const begin = adj_.begin;
  const uint32_t* const slots = adj_.slots;
  const auto frame_for = [&](uint32_t slot, uint32_t b) {
    return Frame{slots + begin[slot],
                 ends[static_cast<size_t>(slot) * stride + b], 0};
  };
  uint32_t depth = start_depth;

  // Lines 6-7 of Alg. 4, iteratively: each level holds an O(1) span
  // I_t(v, k - depth - 1) from the index plus a resume cursor. The budget
  // b = k - depth - 1 is always in [0, k - 1] here (a non-target vertex at
  // depth k cannot exist: its budget-0 span could only contain t), so the
  // public API's min(b, k) clamp is hoisted out of the loop entirely.
  frames_[depth] = frame_for(stack_[depth], k - depth - 1);
  counters_.edges_accessed += frames_[depth].size;
  results_at_entry_[depth] = found_;

  for (;;) {
    Frame& f = frames_[depth];
    if (stop_ || f.next >= f.size) {
      // Subtree exhausted (or the run stopped): close the level, charging
      // its invalid mark iff nothing was found below it.
      if (depth == start_depth) return;
      on_path_[stack_[depth]] = 0;
      if (found_ == results_at_entry_[depth]) counters_.invalid_partials++;
      --depth;
      continue;
    }
    if (depth + 2 == k) {
      // Penultimate-level drain: every child of this frame is leaf-fusable
      // (budget 0 — see below), so the whole sibling span runs in one tight
      // loop with the per-claim counters held in registers and flushed
      // once. This level claims the overwhelming majority of partials at
      // paper-scale limits.
      const uint32_t* const nbrs = f.nbrs;
      const uint32_t size = f.size;
      const uint32_t* const marks = on_path_.data();
      const uint32_t epoch = epoch_;
      uint32_t i = f.next;
      uint64_t partials = 0, edges = 0, invalid = 0;
      uint64_t countdown = check_countdown_;
      while (i < size) {
        if (countdown-- == 0) {
          countdown = kCheckInterval;
          CheckControl(edges);
          if (stop_) break;
        }
        const uint32_t nx = nbrs[i++];
        if (marks[nx] == epoch) continue;
        stack_[depth + 1] = nx;
        if (divergence_ > depth + 1) divergence_ = depth + 1;
        ++partials;
        if (nx == t_slot) {
          AppendPath(depth + 1);
          if (stop_) break;
          continue;
        }
        const uint32_t cnt = ends[static_cast<size_t>(nx) * stride];  // b=0
        edges += cnt;
        if (cnt == 0) {
          ++invalid;  // dead end: (.., nx) extends nowhere
          continue;
        }
        stack_[depth + 2] = t_slot;
        ++partials;
        AppendPath(depth + 2);
        if (stop_) break;
      }
      check_countdown_ = countdown;
      f.next = i;
      counters_.partials += partials;
      counters_.edges_accessed += edges;
      counters_.invalid_partials += invalid;
      continue;  // span drained (or stopped): the loop head pops the frame
    }
    if (ShouldStop()) continue;
    const uint32_t next = f.nbrs[f.next++];
#if defined(__GNUC__) || defined(__clang__)
    if (f.next < f.size) {
      // Hide the dependent loads of the *sibling* claimed after `next`'s
      // subtree: its on-path mark and its neighbor-span metadata.
      const uint32_t sibling = f.nbrs[f.next];
      __builtin_prefetch(&on_path_[sibling]);
      __builtin_prefetch(&begin[sibling]);
    }
#endif
    if (on_path_[next] == epoch_) continue;  // already on the partial result
    stack_[depth + 1] = next;
    if (divergence_ > depth + 1) divergence_ = depth + 1;
    counters_.partials++;
    if (next == t_slot) {
      // Lines 4-5: the partial result reached t — a result.
      AppendPath(depth + 1);
      continue;
    }
    // Every depth-(k-2) frame is handled by the drain above, so this
    // generic push only ever creates frames with budget >= 1.
    assert(depth + 1 < k);  // see the budget-range argument above
    assert(depth + 2 < k);
    on_path_[next] = epoch_;
    ++depth;
    frames_[depth] = frame_for(next, k - depth - 1);
    counters_.edges_accessed += frames_[depth].size;
    results_at_entry_[depth] = found_;
  }
}

}  // namespace pathenum
