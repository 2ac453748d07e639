// The cross-shard query front-end (DESIGN.md §14). A ShardRouter owns a
// GraphPartition's shard engines and serves hop-constrained (s, t, k)
// queries over the union graph through the paper's own pipeline:
//
//  1. *Index*: IndexBuilder builds the query's light-weight index over a
//     UnionView (graph/union_view.h) of the pinned per-shard snapshots,
//     under the serving build options (PathEnumerator::BuildOptionsFor).
//     Each vertex's out-edges come from its owner shard, its in-edges from
//     every shard's in-span in turn, so X, every I_t list and the level
//     stats are those of the materialized union graph.
//  2. *Decide*: an empty X means dist(s, t) > k, so the query is
//     kUnsatisfiable before any shard does work. Every simple s-t path of
//     at most k hops uses only index edges, so an index with no edge
//     between two owners proves that every such path stays inside
//     owner(s)'s tail-owned subgraph: the whole query is delegated to that
//     shard's QueryEngine, with its index and result caches. Every other
//     query is stitched.
//  3. *Stitch*: PathEnumerator::RunWithIndex runs the index on the calling
//     thread — Eq. 5's estimate, the method choice, IDX-DFS or IDX-JOIN,
//     block emission and control polling — so a stitched query returns the
//     ordered paths, edge reads, method and terminal state that
//     PathEnumerator::Run returns on the materialized graph. A build
//     tripped by cancel or deadline leaves an empty index that proves
//     nothing; the query reports its trip.
//
// Updates route through the partition map: SubmitUpdate splits a
// GraphDelta by the owner of each edge's tail and every touched shard
// publishes its own snapshot epoch (ShardEngine::SubmitLocalDelta) under
// the lock queries pin their per-shard views under — a query always
// observes one consistent frontier of per-shard views, and its index reads
// those views.
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

#include "core/index.h"
#include "core/options.h"
#include "core/path_enum.h"
#include "core/query.h"
#include "core/sink.h"
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
  /// True when the query ran wholly on one shard's QueryEngine (its index
  /// has no edge between two owners); false for stitched execution.
  bool delegated = false;
  uint32_t delegate_shard = 0;
  /// Edges of the query's index whose ends have different owners (0 when
  /// delegated or unsatisfiable).
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
    /// Always 0: stitched queries send no partial paths. Kept because the
    /// serving benchmark reads it.
    uint64_t continuations_sent = 0;
  };
  Stats stats() const;

 private:
  struct Pinned {
    std::vector<std::shared_ptr<const GraphView>> views;
  };

  Pinned Pin() const;
  /// Edges of `index` whose ends have different owners.
  uint64_t CrossShardEdges(const LightweightIndex& index) const;

  RouterResult RunDelegated(const Query& q, PathSink& sink,
                            const EnumOptions& opts, const Pinned& pin,
                            uint32_t shard);
  /// Enumerates `index` on the calling thread, or reports its build's
  /// trip, and finishes `span`.
  RouterResult RunStitched(const LightweightIndex& index, PathSink& sink,
                           const EnumOptions& opts, const Pinned& pin,
                           obs::QuerySpan& span);

  uint64_t generation_;
  std::vector<uint32_t> shard_map_;
  std::vector<std::unique_ptr<ShardEngine>> shards_;

  /// Guards the per-shard published snapshots' consistency between Pin()
  /// and SubmitUpdate, and the live cut's edge count.
  mutable std::mutex state_mutex_;
  size_t cut_edges_ = 0;

  /// The union index's builder and enumerator, their scratch reused across
  /// Run calls (Run is serialized). The enumerator is rebound to a pinned
  /// shard view per query: RunWithIndex reads its view only to validate
  /// the query, and every shard view spans the union's vertex space.
  IndexBuilder builder_;
  PathEnumerator enumerator_{GraphView{}};

  obs::ShardedCounter queries_;
  obs::ShardedCounter delegated_;
  obs::ShardedCounter stitched_;
  obs::ShardedCounter unsat_;
  obs::ShardedCounter rejected_;
  obs::ShardedCounter updates_;
  obs::RegHistogram* plan_ms_hist_ = nullptr;
  std::string metric_label_;
};

}  // namespace pathenum

#endif  // PATHENUM_SHARD_ROUTER_H_
