// Per-worker reusable query state. Each engine worker owns exactly one
// QueryContext for its whole lifetime; everything a query needs scratch for
// (index-construction BFS fields, enumerator stacks and epoch-stamped mark
// arrays, join tuple tables, the bump arena behind per-query-sized tables)
// lives inside the context's PathEnumerator and is recycled query after
// query — the zero-allocation steady state of DESIGN.md §Engine.
#ifndef PATHENUM_ENGINE_QUERY_CONTEXT_H_
#define PATHENUM_ENGINE_QUERY_CONTEXT_H_

#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "core/path_enum.h"
#include "engine/index_cache.h"
#include "obs/span.h"

namespace pathenum {

/// The terminal state of a run that threw (DESIGN.md §10): invalid input
/// (ValidateQuery's std::logic_error) is kRejected; anything else — a
/// throwing sink, an injected fault — is kError. Every front end maps its
/// failed runs through this.
QueryState FailedRunState(const std::exception& e);

/// Grow-only split IDX-JOIN tables (DESIGN.md §8), owned by the context
/// that leads a split query: concurrent leaders never share them, and a
/// leader's repeated split joins reach the §5 no-steady-state-allocation
/// discipline the serial join's member/arena tables keep. Cache-line
/// aligned: every participant reads these vector headers per unit while
/// the leader's own enumerator state, right before them in QueryContext,
/// is written per tuple by the worker running on that context.
struct alignas(64) SplitJoinScratch {
  std::vector<uint32_t> starts;  // the cut level set C_cut
  std::vector<uint32_t> left;    // left-half tuples
  std::vector<std::vector<uint32_t>> right;  // one buffer per participant
  std::vector<std::pair<size_t, size_t>> ranges;  // per start, in its buffer
  std::vector<uint32_t> range_owner;  // per start: the participant's buffer
  std::vector<uint8_t> is_key;        // slot-indexed join-key set
  std::vector<JoinGroup> groups;      // slot-indexed right-half groups
};

/// One worker's reusable execution state. Not thread-safe: a context is
/// owned by exactly one worker at a time.
class QueryContext {
 public:
  /// Accepts a plain Graph (implicit borrowing view) or a live snapshot.
  explicit QueryContext(const GraphView& view) : enumerator_(view) {}

  /// Points the context at a different snapshot (cheap; scratch survives).
  void Rebind(const GraphView& view) { enumerator_.Rebind(view); }

  /// Runs one query through the full PathEnum pipeline with this context's
  /// pooled scratch. Every per-run limit (deadline, result limit, sink
  /// stop) is re-armed from `opts`, so a limit hit by one query can never
  /// leak into the next one on the same context. Cache-aware (DESIGN.md
  /// §6): consults `cache` for a replayable result set first, then for a
  /// shared prebuilt index (building and publishing on miss, coalescing
  /// with concurrent builders of the same key), and records completed runs
  /// back into the result cache. Without a cache it is
  /// PathEnumerator::Run. The cache may be shared across
  /// contexts/threads; everything else in the context stays single-owner.
  /// `span` (optional) gets the index-acquire/enumerate stage marks and the
  /// cache-outcome flags (DESIGN.md §12); the caller owns its lifecycle
  /// (Begin before, Finish after).
  QueryStats RunCached(const Query& q, PathSink& sink, const EnumOptions& opts,
                       IndexCache* cache, obs::QuerySpan* span = nullptr);

  /// Builds — or fetches from `cache`, when one is given — the per-query
  /// index RunCached and the split executor (DESIGN.md §8) run on.
  /// `build_opts` must come from PathEnumerator::BuildOptionsFor so split
  /// and serial executions share cache fingerprints. Charges build stats
  /// to `stats` on a miss and flags `stats.index_cache_hit` on a hit;
  /// always fills the index size fields.
  std::shared_ptr<const LightweightIndex> AcquireIndex(
      const Query& q, const IndexBuilder::Options& build_opts,
      IndexCache* cache, QueryStats& stats);

  /// Per-worker enumerator handles for intra-query splitting (DESIGN.md
  /// §8): each branch/materialization/probe unit runs on the scratch of
  /// the worker that claimed it. Single-owner like everything else here.
  DfsEnumerator& split_dfs() { return enumerator_.dfs_; }
  JoinEnumerator& split_join() { return enumerator_.join_; }
  /// The split join's tables while this context leads a split query.
  SplitJoinScratch& split_join_scratch() { return split_join_scratch_; }

  PathEnumerator& enumerator() { return enumerator_; }

  /// Bytes of reusable scratch currently held (see
  /// PathEnumerator::ScratchBytes).
  size_t ScratchBytes() const { return enumerator_.ScratchBytes(); }

 private:
  PathEnumerator enumerator_;
  SplitJoinScratch split_join_scratch_;
};

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_QUERY_CONTEXT_H_
