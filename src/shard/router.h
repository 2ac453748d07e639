// The cross-shard query front-end (DESIGN.md §14). A ShardRouter owns a
// GraphPartition's shard engines and serves hop-constrained (s, t, k)
// queries over the union graph:
//
//  1. *Plan*: the index builder's meet-in-the-middle field (TwoSidedField,
//     graph/bfs.h), run with no blocked endpoints over the pinned per-shard
//     snapshots, gives every vertex of the paper's index set
//     X = {v : dist(s, v) + dist(v, t) <= k} its exact global distances.
//     The backward side from t (each shard contributes exactly the in-edges
//     it owns) runs ⌊k/2⌋ levels, the forward side from s (each vertex's
//     out-edges live in its owner shard) the other k - ⌊k/2⌋, and then each
//     side extends only through X. The field is epoch-stamped, so the plan
//     costs the two half-depth balls plus X's neighbourhoods, never O(|V|),
//     and reads no cut list. If dist(s, t) > k the query is kUnsatisfiable
//     before any per-shard work (the same soundness argument as the live
//     oracle's lower-bound rejection, §13, with an exact distance).
//  2. *Delegate or stitch*: a cut edge (u, w) is feasible iff
//     dist(s, u) + 1 + dist(w, t) <= k, which puts both u and w in X, so
//     the feasible cut edges are counted on X's own out-edges. When NO cut
//     edge is feasible, every feasible path provably stays inside owner(s)'s
//     tail-owned subgraph, and the whole query is delegated to that shard's
//     QueryEngine — full index/result-cache reuse, identical semantics to
//     the unsharded engine. Otherwise the query runs *stitched*: one
//     depth-first search from [s] that reads each endpoint's out-edges in
//     its owner shard's pinned view, pruned by depth + 1 + dist(y, t) > k
//     (a vertex outside X, having no stamped distance, always fails it).
//  3. *Emit*: the stitched search emits through one BlockEmitter straight
//     into the caller's sink and checks the query's control before its
//     first expansion and then every 4,096 edge reads, so result limit,
//     sink stop and control trips behave as in a serial IDX-DFS: the
//     result's num_results is what the sink consumed, never above the
//     limit.
//
// Updates route through the partition map: SubmitUpdate splits a
// GraphDelta by the owner of each edge's tail and every touched shard
// publishes its own snapshot epoch (ShardEngine::SubmitLocalDelta) under
// the lock queries pin their per-shard views under — a query always
// observes one consistent frontier of per-shard views, and the plan reads
// cut edges straight from those views.
//
// Threading: Run and SubmitUpdate may each be called from one thread at a
// time, and may run concurrently with each other. The router starts no
// threads: a stitched query's sink runs on the thread that calls Run, a
// delegated query's on a worker of its shard's engine.
#ifndef PATHENUM_SHARD_ROUTER_H_
#define PATHENUM_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/view.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "shard/partition.h"
#include "shard/shard_engine.h"
#include "util/status.h"

namespace pathenum {

struct RouterOptions {
  PartitionOptions partition;
  /// Applied to every shard engine.
  ShardEngineOptions shard;
};

/// Outcome of one routed query. `stats.counters.num_results` counts the
/// paths the sink consumed, never more than the result limit.
struct RouterResult {
  QueryStats stats;
  QueryState state = QueryState::kOk;
  std::string error;
  /// True when the query ran wholly on one shard's QueryEngine (no
  /// feasible cut edge); false for stitched cross-shard execution.
  bool delegated = false;
  uint32_t delegate_shard = 0;
  /// Cut edges feasible for this query at plan time (0 when delegated).
  uint64_t feasible_cut_edges = 0;
};

class ShardRouter {
 public:
  /// Partitions `g` and stands up one ShardEngine per shard.
  explicit ShardRouter(const Graph& g, const RouterOptions& opts = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  uint32_t ShardOf(VertexId v) const { return shard_map_[v]; }
  VertexId num_vertices() const {
    return static_cast<VertexId>(shard_map_.size());
  }
  ShardEngine& shard(uint32_t s) { return *shards_[s]; }
  uint64_t generation() const { return generation_; }

  /// Current cross-shard edge count (the live cut, not the epoch-0 one).
  size_t cut_size() const;

  /// Serves one query. One caller thread at a time; see the header comment
  /// for the sink threading contract.
  RouterResult Run(const Query& q, PathSink& sink,
                   const EnumOptions& opts = {});

  /// Routes `delta` through the partition map: each op lands in the shard
  /// owning its edge's tail, and every touched shard publishes its own
  /// snapshot epoch, atomically with respect to the views a query pins.
  /// Rejects (without side effects) endpoints outside the vertex space.
  Status SubmitUpdate(const GraphDelta& delta);

  struct Stats {
    uint64_t queries = 0;
    uint64_t delegated = 0;
    uint64_t stitched = 0;
    uint64_t unsatisfiable = 0;
    uint64_t rejected = 0;
    uint64_t updates = 0;
    /// Always 0: stitched queries send no frames. Kept because the
    /// serving benchmark reads it.
    uint64_t frames_sent = 0;
    /// Partial paths continued in another shard: extended across a cut
    /// edge to a vertex other than t.
    uint64_t continuations_sent = 0;
  };
  Stats stats() const;

 private:
  struct Pinned {
    std::vector<std::shared_ptr<const GraphView>> views;
  };

  Pinned Pin() const;
  /// Runs the plan's field for `q` over the pinned views; returns whether
  /// dist(s, t) <= k.
  bool ComputePlan(const Pinned& pin, const Query& q);
  /// Cut edges (u, w) with dist(s, u) + 1 + dist(w, t) <= k, counted on
  /// X's own out-edges (both ends of such an edge lie in X).
  uint64_t FeasibleCutEdges(const Pinned& pin, uint32_t k) const;

  RouterResult RunDelegated(const Query& q, PathSink& sink,
                            const EnumOptions& opts, const Pinned& pin,
                            uint32_t shard);
  /// Runs the stitched search on the calling thread and finishes `span`.
  RouterResult RunStitched(const Query& q, PathSink& sink,
                           const EnumOptions& opts, const Pinned& pin,
                           obs::QuerySpan& span);

  uint64_t generation_;
  std::vector<uint32_t> shard_map_;
  std::vector<std::unique_ptr<ShardEngine>> shards_;

  /// Guards the per-shard published snapshots' consistency between Pin()
  /// and SubmitUpdate, and the live cut's edge count.
  mutable std::mutex state_mutex_;
  size_t cut_edges_ = 0;

  /// The plan's distances from s and to t, exact on X; reused across Run
  /// calls (Run is serialized; a stitched query's search reads them).
  TwoSidedField plan_;

  obs::ShardedCounter queries_;
  obs::ShardedCounter delegated_;
  obs::ShardedCounter stitched_;
  obs::ShardedCounter unsat_;
  obs::ShardedCounter rejected_;
  obs::ShardedCounter updates_;
  obs::ShardedCounter continuations_sent_;
  obs::RegHistogram* plan_ms_hist_ = nullptr;
  std::string metric_label_;
};

}  // namespace pathenum

#endif  // PATHENUM_SHARD_ROUTER_H_
