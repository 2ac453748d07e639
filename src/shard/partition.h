// Edge-cut graph partitioning for the sharded serving tier (DESIGN.md §14).
//
// A `GraphPartition` is a stable vertex→shard map plus one tail-owned
// subgraph per shard: the directed edge (u, v) lives in exactly the shard
// that owns u. Every shard graph spans the FULL global vertex-id space, so
// no id translation exists anywhere in the system — a cut edge's head is
// simply a vertex the owning shard has no out-edges for (a replicated
// boundary "ghost"), and a query's index over the union holds plain global
// vertex ids. Two structural consequences the router's union view
// (graph/union_view.h) builds on:
//
//  * Out-adjacency of v is complete in shard ShardOf(v) and empty
//    everywhere else, so expanding v forward reads exactly one shard.
//  * In-adjacency of v in shard p is exactly the in-edges of v whose tail
//    p owns, so a backward BFS wave unions the per-shard in-neighbor scans
//    without any shard discovering another shard's predecessors.
//
// Assignment is greedy min-cut over degree-descending vertices: each vertex
// goes to the (capacity-respecting) shard holding most of its already-placed
// neighbors, ties broken toward the lightest edge load — deterministic for
// a given graph, so the map is stable across identically-built processes.
#ifndef PATHENUM_SHARD_PARTITION_H_
#define PATHENUM_SHARD_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/common.h"

namespace pathenum {

struct PartitionOptions {
  /// Number of shards (>= 1). One shard degenerates to the unsharded
  /// engine: every edge is local and the cut is empty.
  uint32_t num_shards = 2;

  /// Per-shard vertex capacity slack over the perfectly balanced
  /// |V| / num_shards: a shard stops accepting vertices once it holds
  /// ceil(slack * |V| / num_shards), which bounds skew even when the
  /// greedy affinity score keeps pulling toward one shard.
  double balance_slack = 1.05;
};

/// One edge of the cut: (tail, head) with ShardOf(tail) != ShardOf(head).
/// The edge itself is stored in `tail_shard`'s subgraph (tail ownership);
/// the router seeds its live cut count with the size of this epoch-0 list.
struct CutEdge {
  VertexId tail = 0;
  VertexId head = 0;
  uint32_t tail_shard = 0;
  uint32_t head_shard = 0;
};

/// The partitioning result. Immutable once built; shard graphs are meant to
/// be moved out into per-shard engines (TakeShardGraph), after which the
/// map, cut list and stats remain valid.
class GraphPartition {
 public:
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shard_edges_.size());
  }
  VertexId num_vertices() const {
    return static_cast<VertexId>(shard_map_.size());
  }

  uint32_t ShardOf(VertexId v) const { return shard_map_[v]; }
  const std::vector<uint32_t>& shard_map() const { return shard_map_; }

  /// Edges of the initial graph owned by shard `s` (tail ownership).
  uint64_t EdgesInShard(uint32_t s) const { return shard_edges_[s]; }
  VertexId VerticesInShard(uint32_t s) const { return shard_vertices_[s]; }

  /// Initial cut edges, sorted by (tail, head): epoch 0 of the live cut
  /// whose size the router moves as updates stream in.
  std::span<const CutEdge> cut_edges() const { return cut_edges_; }

  /// Distinct vertices incident to a cut edge — the replicated boundary.
  VertexId num_boundary_vertices() const { return num_boundary_; }

  /// The tail-owned subgraph of shard `s` over the full vertex space.
  const Graph& ShardGraph(uint32_t s) const { return shard_graphs_[s]; }

  /// Moves shard `s`'s subgraph out (call at most once per shard).
  Graph TakeShardGraph(uint32_t s) { return std::move(shard_graphs_[s]); }

 private:
  friend class GraphPartitioner;

  std::vector<uint32_t> shard_map_;
  std::vector<Graph> shard_graphs_;
  std::vector<uint64_t> shard_edges_;
  std::vector<VertexId> shard_vertices_;
  std::vector<CutEdge> cut_edges_;
  VertexId num_boundary_ = 0;
};

class GraphPartitioner {
 public:
  /// Partitions `g` into opts.num_shards tail-owned subgraphs. Greedy
  /// min-cut over degree-descending vertices; deterministic. Throws on
  /// num_shards == 0.
  static GraphPartition Partition(const Graph& g, const PartitionOptions& opts);
};

}  // namespace pathenum

#endif  // PATHENUM_SHARD_PARTITION_H_
