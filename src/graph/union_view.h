// One graph read through the per-part views that split its edges by the
// owner of each edge's tail — the shard router's pinned shard snapshots
// (DESIGN.md §14) — with the Graph accessor contract that IndexBuilder and
// the distance fields are templated over (graph/bfs.h).
//
// Every part spans the full vertex space. v's out-list is complete in its
// owner's part, so OutNeighbors/OutDegree read that part alone and the
// out-list stays one sorted span. v's in-list is the disjoint union of the
// parts' in-lists, each sorted, so InDegree sums them and ScanInSpans hands
// them to its caller one span at a time, stopping as soon as the caller
// does. There is no single in-span and no InNeighbors: a caller that needs
// the in-list in vertex order cannot have it. Edges carry no stable ids,
// as on an overlay view: OutEdgeId and FindEdge return kInvalidEdge.
#ifndef PATHENUM_GRAPH_UNION_VIEW_H_
#define PATHENUM_GRAPH_UNION_VIEW_H_

#include <cstdint>
#include <memory>
#include <span>

#include "graph/view.h"
#include "util/common.h"

namespace pathenum {

class UnionView {
 public:
  /// `parts` and `owner` (one part index per vertex) must outlive the view.
  UnionView(std::span<const std::shared_ptr<const GraphView>> parts,
            std::span<const uint32_t> owner)
      : parts_(parts), owner_(owner) {}

  VertexId num_vertices() const {
    return static_cast<VertexId>(owner_.size());
  }

  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return parts_[owner_[v]]->OutNeighbors(v);
  }
  uint32_t OutDegree(VertexId v) const {
    return parts_[owner_[v]]->OutDegree(v);
  }
  uint32_t InDegree(VertexId v) const {
    uint32_t degree = 0;
    for (const auto& part : parts_) degree += part->InDegree(v);
    return degree;
  }

  EdgeId OutEdgeId(VertexId, size_t) const { return kInvalidEdge; }
  EdgeId FindEdge(VertexId, VertexId) const { return kInvalidEdge; }

  std::span<const std::shared_ptr<const GraphView>> parts() const {
    return parts_;
  }

 private:
  std::span<const std::shared_ptr<const GraphView>> parts_;
  std::span<const uint32_t> owner_;
};

/// ScanInSpans (graph/bfs.h) over a union: each part's in-span of v in turn.
template <typename Scan>
bool ScanInSpans(const UnionView& g, VertexId v, Scan&& scan) {
  for (const auto& part : g.parts()) {
    if (scan(part->InNeighbors(v))) return true;
  }
  return false;
}

}  // namespace pathenum

#endif  // PATHENUM_GRAPH_UNION_VIEW_H_
