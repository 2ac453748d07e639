// The cross-shard query front-end (DESIGN.md §14). A ShardRouter owns a
// GraphPartition's shard engines plus a ShardTransport and serves
// hop-constrained (s, t, k) queries over the union graph:
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
//     the unsharded engine. Otherwise the query runs *stitched*: partial
//     paths expand as segment DFS inside the shard owning their current
//     endpoint, pruned by depth + 1 + dist(y, t) > k (a vertex outside X,
//     having no stamped distance, always fails it), and cross shards as
//     delta-encoded PathBlocks over the transport.
//  3. *Merge*: all shards deliver through ONE BranchGate/BranchSink pair
//     (the §8 reservation-based accounting, reused, not duplicated), so
//     `delivered() == limit` holds at the router's merge barrier exactly
//     as it does for split joins; per-shard counters fold together with
//     internal::FinishFanout.
//
// Updates route through the partition map: SubmitUpdate splits a
// GraphDelta by the owner of each edge's tail and every touched shard
// publishes its own snapshot epoch (ShardEngine::SubmitLocalDelta) under
// the lock queries pin their per-shard views under — a query always
// observes one consistent frontier of per-shard views, and the plan reads
// cut edges straight from those views.
//
// Threading: Run and SubmitUpdate may each be called from one thread at a
// time (they serialize against each other internally). During a stitched
// query the caller's sink is invoked from transport service threads,
// serialized by the gate's mutex — the same contract as
// BatchOptions::split_branches.
#ifndef PATHENUM_SHARD_ROUTER_H_
#define PATHENUM_SHARD_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
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
#include "shard/transport.h"
#include "util/status.h"

namespace pathenum {

struct RouterOptions {
  PartitionOptions partition;
  /// Applied to every shard engine (cache salts are derived per shard).
  ShardEngineOptions shard;
};

/// Outcome of one routed query. `stats.counters.num_results` equals the
/// merge gate's delivered() for stitched runs — structurally capped at the
/// result limit.
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
  /// Partitions `g` and stands up one ShardEngine per shard plus the
  /// transport (in-process queues when `transport` is null).
  explicit ShardRouter(const Graph& g, const RouterOptions& opts = {},
                       std::unique_ptr<ShardTransport> transport = nullptr);
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
    uint64_t frames_sent = 0;         // cross-shard PathBlock frames
    uint64_t continuations_sent = 0;  // partial paths inside those frames
  };
  Stats stats() const;

 private:
  struct Pinned {
    std::vector<std::shared_ptr<const GraphView>> views;
  };

  /// Per-shard stitched-execution state; each instance is touched only by
  /// its shard's transport service thread during one query.
  struct ShardWork;
  /// Whole-query stitched state shared by the router thread and the
  /// transport service threads.
  struct StitchState;

  Pinned Pin() const;
  /// Runs the plan's field for `q` over the pinned views; returns whether
  /// dist(s, t) <= k.
  bool ComputePlan(const Pinned& pin, const Query& q);
  /// Cut edges (u, w) with dist(s, u) + 1 + dist(w, t) <= k, counted on
  /// X's own out-edges (both ends of such an edge lie in X).
  uint64_t FeasibleCutEdges(const Pinned& pin, uint32_t k) const;
  void HandleFrame(uint32_t dst_shard, std::vector<uint8_t> frame);
  void ExpandPartial(StitchState& st, ShardWork& w, uint32_t dst_shard,
                     VertexId* path, uint32_t len);
  void FlushOutgoing(StitchState& st, ShardWork& w, uint32_t target_shard);
  bool PollControl(StitchState& st, ShardWork& w);

  RouterResult RunDelegated(const Query& q, PathSink& sink,
                            const EnumOptions& opts, const Pinned& pin,
                            uint32_t shard);
  /// `dispatch_ms` is the time from Pin() to dispatch, so the result's
  /// response time starts where its total time does.
  RouterResult RunStitched(const Query& q, PathSink& sink,
                           const EnumOptions& opts, Pinned pin,
                           uint64_t feasible_cut, double dispatch_ms,
                           obs::QuerySpan& span);

  uint64_t generation_;
  std::vector<uint32_t> shard_map_;
  std::vector<std::unique_ptr<ShardEngine>> shards_;
  std::unique_ptr<ShardTransport> transport_;

  /// Guards the per-shard published snapshots' consistency between Pin()
  /// and SubmitUpdate, and the live cut's size count.
  mutable std::mutex state_mutex_;
  std::unordered_set<uint64_t> cut_set_;  // packed (tail << 32 | head)

  /// The active stitched query (null between queries). Written by Run
  /// under active_mutex_; transport handlers take a shared_ptr copy.
  std::mutex active_mutex_;
  std::shared_ptr<StitchState> active_;
  uint64_t next_query_id_ = 1;

  /// The plan's distances from s and to t, exact on X; reused across Run
  /// calls (Run is serialized; a stitched query reads them until its
  /// quiescence).
  TwoSidedField plan_;

  obs::ShardedCounter queries_;
  obs::ShardedCounter delegated_;
  obs::ShardedCounter stitched_;
  obs::ShardedCounter unsat_;
  obs::ShardedCounter rejected_;
  obs::ShardedCounter updates_;
  obs::ShardedCounter frames_sent_;
  obs::ShardedCounter continuations_sent_;
  obs::RegHistogram* plan_ms_hist_ = nullptr;
  obs::RegHistogram* stitch_merge_ms_hist_ = nullptr;
  std::string metric_label_;
};

}  // namespace pathenum

#endif  // PATHENUM_SHARD_ROUTER_H_
