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

#include "core/path_enum.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "obs/span.h"

namespace pathenum {

/// The terminal state of a run that threw (DESIGN.md §10): invalid input
/// (ValidateQuery's std::logic_error) is kRejected; anything else — a
/// throwing sink, an injected fault — is kError. Every front end maps its
/// failed runs through this.
QueryState FailedRunState(const std::exception& e);

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
  /// shared prebuilt index (building on miss, coalescing with concurrent
  /// builders of the same key), and records completed runs back into the
  /// result cache when the cache admits the key (its second miss on).
  /// Without a cache it builds and runs like
  /// PathEnumerator::Run. The cache may be shared across
  /// contexts/threads; everything else in the context stays single-owner.
  /// `span` (optional) gets the index-acquire/enumerate stage marks, the
  /// cache-outcome flags and the plan that ran (DESIGN.md §12); the caller
  /// owns its lifecycle (Begin before, Finish after).
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

  /// The DFS scratch a split query's branch units run on (DESIGN.md §8):
  /// each branch runs on the context of the worker that claimed it.
  /// Single-owner like everything else here.
  DfsEnumerator& split_dfs() { return enumerator_.dfs_; }

  /// The buffer a split participant on this context defers its blocks
  /// into while another participant delivers (DESIGN.md §8): bounded,
  /// reserved at its first deferral and reused by every later split query.
  DeferredBlocks& split_deferred() { return split_deferred_; }

  PathEnumerator& enumerator() { return enumerator_; }

  /// Bytes of reusable scratch currently held (see
  /// PathEnumerator::ScratchBytes), the deferral buffer included.
  size_t ScratchBytes() const {
    return enumerator_.ScratchBytes() + split_deferred_.CapacityBytes();
  }

 private:
  PathEnumerator enumerator_;
  DeferredBlocks split_deferred_;
};

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_QUERY_CONTEXT_H_
