// The batch QueryEngine: a persistent worker pool serving hop-constrained path
// queries at service scale. Where PathEnumerator answers one query on the
// calling thread, the engine keeps N workers alive across batches, each with a
// reusable QueryContext, on a QueryQueue (engine/query_queue.h, the queue
// AsyncEngine also runs on): RunBatch enqueues the batch and waits on its
// tickets, and each query runs entirely on the worker that claims it.
// Optionally a batch runs with intra-query parallelism: each query's units —
// first-level DFS branches, or the split IDX-JOIN's half/probe units — fan out
// through the split executor (engine/split_executor.h), its claiming worker
// leading and idle workers helping, which is the right shape for a few heavy
// queries rather than many small ones. See DESIGN.md §5/§8.
//
// With `EngineOptions::enable_cache` the engine additionally keeps a
// cross-query IndexCache shared by all workers (DESIGN.md §6): batches
// deduplicate identical queries (one run fans its results out to every
// duplicate's sink), cache hits are queued ahead of misses, and
// concurrent workers on the same missing key build the index exactly once.
// Every cache miss is one solo build on the worker that runs the query.
//
// Every batch passes one admission pre-pass before grouping and
// queueing, in both modes: invalid queries are rejected, and with a live
// oracle attached (SetLiveOracle) queries it certifies unsatisfiable
// (dist(s,t) > k) complete as kUnsatisfiable without any per-query work.
#ifndef PATHENUM_ENGINE_QUERY_ENGINE_H_
#define PATHENUM_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "engine/query_queue.h"
#include "graph/view.h"
#include "live/live_oracle.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pathenum {

/// Engine construction knobs.
struct EngineOptions {
  /// Worker threads (and contexts). 0 picks hardware_concurrency(); more
  /// than hardware_concurrency() are capped to it.
  uint32_t num_workers = 0;

  /// When true the engine keeps a cross-query cache of per-query indexes
  /// (and, budget permitting, fully-enumerated result sets) shared by all
  /// workers. See DESIGN.md §6.
  bool enable_cache = false;

  /// Budgets/sharding for the cache (used only with enable_cache).
  IndexCacheOptions cache;
};

/// Per-batch knobs.
struct BatchOptions {
  /// Applied to every query of the batch.
  EnumOptions query;

  /// When true, each query's work spreads across the pool (serializing
  /// sink calls per query): its claiming worker leads and idle workers help
  /// drain the planned method — the same PlanExecution decision the serial
  /// path makes — as fanned-out first-level DFS branches or as the split
  /// IDX-JOIN's independent half/probe units (DESIGN.md §8). When false
  /// (default), each query runs entirely on the one worker that claims it.
  bool split_branches = false;

  /// Consult/populate the engine's cross-query cache (no-op when the
  /// engine was constructed without one).
  bool use_cache = true;

  /// Collapse identical (s, t, k) queries within the batch: the group runs
  /// once and the paths fan out to every duplicate's sink (each sink may
  /// still stop independently). Duplicates report the shared run's stats.
  bool dedup_identical = true;
};

/// Outcome of RunBatch. `stats[i]`/`errors[i]`/`states[i]` belong to
/// `queries[i]`; a non-empty error string means the query did not run
/// (its stats are default) — other queries of the batch are unaffected.
///
/// `states[i]` is the query's terminal state (DESIGN.md §10):
///  - kOk: complete result set delivered.
///  - kTruncated: a well-formed prefix was delivered, cut short by the
///    result limit, a sink stop, the memory budget, or the work budget.
///  - kDeadlineExceeded / kCancelled: ditto, cut short by the deadline or
///    the cancel token — possibly zero paths if the index build itself was
///    interrupted. Everything delivered before the trip is valid.
///  - kRejected: invalid input (CheckQuery failed); nothing ran and
///    `errors[i]` says why.
///  - kError: the run threw; delivered paths up to that point are valid
///    but the set is not a guaranteed prefix of any complete enumeration.
///  - kUnsatisfiable: the live oracle certified dist(s,t) > k at
///    admission; the complete (empty) result set was delivered without
///    touching the sink.
struct BatchResult {
  std::vector<QueryStats> stats;
  std::vector<std::string> errors;
  std::vector<QueryState> states;
  double wall_ms = 0.0;
  /// Workers that could claim the batch's queries: min(pool, queries after
  /// dedup). Idle workers helping a split query are not counted.
  uint32_t workers = 0;
  /// Cache activity during this batch (all zeros without a cache): hits,
  /// misses, evictions and current byte gauges.
  IndexCacheStats cache;

  /// Always zero: fused prebuilds are retired (DESIGN.md §11). Kept only
  /// because the serving benchmark (servebench/) still reads them.
  uint64_t batched_builds = 0;
  uint64_t batched_edges_scanned = 0;
  uint64_t batched_solo_edges = 0;

  bool ok() const {
    for (const std::string& e : errors) {
      if (!e.empty()) return false;
    }
    return true;
  }

  uint64_t TotalResults() const {
    uint64_t total = 0;
    for (const QueryStats& s : stats) total += s.counters.num_results;
    return total;
  }

  /// Batch throughput in queries per second.
  double QueriesPerSec() const {
    return wall_ms > 0.0 ? static_cast<double>(stats.size()) /
                               (wall_ms / 1e3)
                         : 0.0;
  }
};

/// Thread-pooled batch query engine. One instance per graph/session; the
/// bound graph/view (and an attached live oracle) must outlive it. RunBatch
/// may be called any number of times, from one thread at a time.
class QueryEngine {
 public:
  /// Accepts a plain `Graph` (implicit borrowing view, version 0) or a live
  /// `GraphView` snapshot.
  explicit QueryEngine(const GraphView& view, const EngineOptions& opts = {});
  ~QueryEngine();

  uint32_t num_workers() const { return queue_.num_workers(); }
  const Graph& graph() const { return view_.base(); }
  const GraphView& view() const { return view_; }

  /// Runs the batch; `sinks[i]` receives exactly the paths of `queries[i]`.
  /// With split_branches each sink must tolerate calls from pool threads
  /// (calls are serialized by the engine, so plain sinks are safe); without
  /// it, sink i is only ever touched by the single worker running query i.
  /// With dedup_identical, the sinks of identical queries are all fed from
  /// one run.
  BatchResult RunBatch(std::span<const Query> queries,
                       std::span<PathSink* const> sinks,
                       const BatchOptions& opts = {});

  /// Live-graph form: runs the whole batch against `view` (every query
  /// observes exactly that snapshot; each worker context rebinds to it at
  /// claim — cheap, scratch survives), and within one snapshot lineage the
  /// caches are NOT cleared: cache entries carry snapshot versions and
  /// epochs invalidate them incrementally (see IndexCache::BeginEpoch /
  /// DESIGN.md §7). Safety nets for callers outside that discipline: a
  /// version advance the cache never saw an epoch for, and a base-graph
  /// swap without a version advance, each degrade to a full clear.
  /// Successive views should come from one SnapshotManager (monotone
  /// versions); use RebindGraph for an unrelated graph.
  BatchResult RunBatch(const GraphView& view, std::span<const Query> queries,
                       std::span<PathSink* const> sinks,
                       const BatchOptions& opts = {});

  /// Convenience: counts every query's results (per-query CountingSink).
  BatchResult CountBatch(std::span<const Query> queries,
                         const BatchOptions& opts = {});

  /// Connects the live oracle (borrowed; null detaches) — the engine's only
  /// oracle. A static graph gets one by building a LiveDistanceOracle over
  /// it and publishing no updates. Each batch's admission pre-pass pins the
  /// epoch for the bound view, gated by EpochRef::ValidFor (exact snapshot
  /// version and base uid), and rejects unsatisfiable queries in
  /// O(|label| + |C|²) before any per-query work, across overlay rebinds
  /// and publishes alike; any mismatch (racing publish, re-label, unrelated
  /// graph) degrades to "no claim", never to a wrong rejection. Must not
  /// race RunBatch.
  void SetLiveOracle(const LiveDistanceOracle* oracle) {
    live_oracle_ = oracle;
  }

  /// The cross-query cache, or null when not enabled.
  IndexCache* cache() { return cache_.get(); }

  /// Drops every cached index/result (generation-stamped; see
  /// IndexCache::Clear). No-op without a cache.
  void InvalidateCaches();

  /// Points the engine at a different graph snapshot and invalidates the
  /// caches (a cached index describes the old topology); each worker
  /// context rebinds to it at its next claim. Must not race RunBatch. The
  /// new graph must outlive the engine. For incremental updates prefer
  /// RunBatch(view, ...) + IndexCache::BeginEpoch, which keep unaffected
  /// cache entries alive.
  void RebindGraph(const Graph& g);

  /// Aggregate footprint/usage over all worker contexts.
  struct EngineStats {
    size_t scratch_bytes = 0;    // reusable scratch across all contexts
    uint64_t queries_run = 0;    // queries executed since construction
    uint64_t batches_run = 0;
    /// Always zero: the one query queue has no per-worker deques to steal
    /// from. Kept only because the serving benchmark (servebench/) still
    /// reads it.
    uint64_t steals = 0;
    /// Queries shed as kUnsatisfiable by the live oracle at admission,
    /// duplicates included.
    uint64_t oracle_rejects = 0;
  };
  EngineStats Stats() const;

 private:
  GraphView view_;
  const LiveDistanceOracle* live_oracle_ = nullptr;  // see SetLiveOracle
  std::unique_ptr<IndexCache> cache_;  // null unless opts.enable_cache
  /// ShardedCounter storage (DESIGN.md §12): Stats() and the registry's
  /// `pathenum_engine_*` metrics read the same slots.
  obs::ShardedCounter batches_run_;
  obs::ShardedCounter queries_run_;  // duplicates served by a fan-out count
  obs::ShardedCounter oracle_rejects_;
  QueryQueue queue_;  // last: its workers stop before the cache goes
};

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_QUERY_ENGINE_H_
