// IDX-DFS (paper Algorithm 4): depth-first enumeration on the light-weight
// index. At a partial result M ending at v with L(M) edges, the only
// neighbors considered are I_t(v, k - L(M) - 1) — an O(1) span from the
// index — so each step needs neither a distance check nor dynamic pruning.
// The on-path duplicate test is an O(1) epoch-stamped mark per slot (see
// DESIGN.md) rather than a scan of the partial result.
//
// The enumeration hot path is iterative (an explicit cursor-stack loop over
// the raw index adjacency, with the span budget b = k - depth - 1 never
// needing the public API's min(b, k) clamp) and emits delta-encoded
// PathBlocks (DESIGN.md §9): paths accumulate as (shared_prefix, suffix)
// entries — slot ids translated to vertex ids exactly once each — and the
// sink's virtual dispatch amortizes over hundreds of paths per flush.
#ifndef PATHENUM_CORE_DFS_ENUMERATOR_H_
#define PATHENUM_CORE_DFS_ENUMERATOR_H_

#include <atomic>
#include <vector>

#include "core/index.h"
#include "core/options.h"
#include "core/sink.h"
#include "util/timer.h"

namespace pathenum {

/// Index-based DFS enumerator. Holds only reusable scratch between runs:
/// rebind it to a new index per query (the `Run(index, ...)` overloads) and
/// the scratch is reused with no steady-state allocation (the path block's
/// storage is a fixed inline arena). Not thread-safe; use one instance per
/// worker.
class DfsEnumerator {
 public:
  /// Unbound enumerator; pass the index to Run/RunBranch.
  DfsEnumerator() = default;

  /// Bound to a fixed index (convenience for single-query use).
  explicit DfsEnumerator(const LightweightIndex& index) : index_(&index) {}

  /// Enumerates all paths into `sink` honoring limits in `opts`.
  /// `counters.response_ms` is relative to this call's start (recorded at
  /// block granularity).
  EnumCounters Run(PathSink& sink, const EnumOptions& opts = {});
  EnumCounters Run(const LightweightIndex& index, PathSink& sink,
                   const EnumOptions& opts = {});

  /// Enumerates only the paths whose first edge is s -> VertexAt(branch);
  /// `branch` must be a slot from I_t(s, k-1). The split executor fans
  /// these subtrees out across worker threads. Counts *both* partial
  /// results of its starting chain — (s) and (s, branch) — so a standalone
  /// call is self-consistent; the split executor deducts the shared (s)
  /// copy per branch and charges it exactly once (SplitPhase,
  /// engine/split_executor.h).
  EnumCounters RunBranch(uint32_t branch, PathSink& sink,
                         const EnumOptions& opts = {});
  EnumCounters RunBranch(const LightweightIndex& index, uint32_t branch,
                         PathSink& sink, const EnumOptions& opts = {});

  /// Bytes of reusable scratch currently held (steady-state stability is
  /// asserted by the engine tests).
  size_t ScratchBytes() const;

 private:
  /// One level of the explicit DFS stack: the slot's neighbor span and the
  /// resume cursor into it.
  struct Frame {
    const uint32_t* nbrs;
    uint32_t size;
    uint32_t next;
  };

  /// Rebinds the index and resets all per-run state.
  void Prepare(const LightweightIndex& index, const EnumOptions& opts);

  /// The iterative DFS: expands stack_[start_depth] (already marked, not
  /// the target) until its subtree is exhausted or stop_ trips. The impl
  /// is templated over the index's ends-table width (u16/u32) so the whole
  /// run pays that branch once.
  void SearchFrom(uint32_t start_depth);
  template <typename EndT>
  void SearchFromImpl(uint32_t start_depth, const EndT* ends);

  /// Appends the path stack_[0..depth] to the pending block (flushing as
  /// needed); sets stop_ on sink stop / result limit.
  void AppendPath(uint32_t depth);

  /// Flushes the pending tail block and applies the root's invalid mark.
  EnumCounters FinishRun();

  bool ShouldStop();

  /// Cold path of ShouldStop: polls cancel/deadline/work budget (in that
  /// precedence), setting the matching counter flag and stop_ on a trip.
  /// `pending_edges` is work accrued in the caller's registers but not yet
  /// folded into counters_.edges_accessed.
  void CheckControl(uint64_t pending_edges = 0);

  const LightweightIndex* index_ = nullptr;

  // Reusable scratch: epoch-stamped "slot is on the current partial result"
  // marks. A slot is on the path iff on_path_[slot] == epoch_; bumping
  // epoch_ clears all marks in O(1).
  std::vector<uint32_t> on_path_;
  uint32_t epoch_ = 0;

  // Per-run state.
  EnumCounters counters_;
  Timer timer_;
  Deadline deadline_;
  const std::atomic<bool>* cancel_ = nullptr;  // null: never cancels
  uint64_t work_budget_ = 0;
  uint64_t check_countdown_ = 0;
  bool stop_ = false;
  uint64_t found_ = 0;       // paths appended this run (delivered + pending)
  uint32_t divergence_ = 0;  // leading stack entries unchanged since the
                             // last append — the next path's shared prefix
  BlockEmitter emitter_;
  LightweightIndex::OutAdjacency adj_;
  const VertexId* translate_ = nullptr;  // slot -> vertex id, per run
  uint32_t stack_[kMaxHops + 1];   // slots of the partial result M
  Frame frames_[kMaxHops + 1];     // cursor per level of the explicit DFS
  uint64_t results_at_entry_[kMaxHops + 1];  // found_ when the level opened
};

}  // namespace pathenum

#endif  // PATHENUM_CORE_DFS_ENUMERATOR_H_
