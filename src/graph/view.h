// Versioned copy-on-write views over an immutable base Graph — the storage
// half of the live-graph subsystem (DESIGN.md §7).
//
// A `GraphView` is (base Graph, optional EdgeOverlay, version). The overlay
// holds fully materialized sorted adjacency for exactly the vertices an
// update batch touched, in a hash map per direction, plus one touched bit
// per base vertex and direction. A read tests the bit first: an untouched
// vertex resolves to the base CSR span with that one bit test and no hash
// lookup, and only a touched vertex goes on to its map entry. So a view
// preserves the Graph accessor contract (sorted ascending neighbor spans,
// O(log deg) HasEdge) that BFS and the index builder are templated over.
// Applying a `GraphDelta` produces a *new* view at a higher version —
// existing views are never mutated, so in-flight queries keep enumerating
// their own snapshot while updates land (MVCC). Overlays compose: each
// Apply copies the previous overlay's touched-vertex tables (cost
// proportional to the touched set) and its two bitsets (|V| / 8 bytes
// each), and `Materialize` folds base + overlay back into a standalone CSR
// Graph when the overlay outgrows its budget (see
// live/SnapshotManager::Prepare).
//
// Limitations, by design: the vertex id space is fixed by the base graph,
// and edge ids are only stable for vertices untouched by the overlay
// (OutEdgeId/FindEdge return kInvalidEdge for touched vertices) — so
// weight/label-constrained queries require an overlay-free (compacted)
// snapshot.
#ifndef PATHENUM_GRAPH_VIEW_H_
#define PATHENUM_GRAPH_VIEW_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/common.h"
#include "util/status.h"

namespace pathenum {

/// One batch of edge updates. A delta is a *set* of changes, not a
/// sequence: all insertions apply, then all deletions, regardless of call
/// order — so an edge both inserted and deleted in the same delta ends up
/// absent (deletions win). An order-dependent update stream must split
/// conflicting operations across deltas (one epoch each). Duplicate
/// insertions, insertions of edges already present, and deletions of
/// absent edges are no-ops; self-loops are dropped (matching
/// GraphBuilder). Endpoints must be inside the base graph's vertex space.
struct GraphDelta {
  std::vector<std::pair<VertexId, VertexId>> insertions;
  std::vector<std::pair<VertexId, VertexId>> deletions;

  GraphDelta& Insert(VertexId u, VertexId v) {
    insertions.emplace_back(u, v);
    return *this;
  }
  GraphDelta& Delete(VertexId u, VertexId v) {
    deletions.emplace_back(u, v);
    return *this;
  }
  bool empty() const { return insertions.empty() && deletions.empty(); }
  size_t size() const { return insertions.size() + deletions.size(); }
};

/// Validates a delta against the base vertex space without applying it.
/// Deltas arriving over the wire are untrusted input: the live engines call
/// this up front and map a failure to a rejected update instead of letting
/// GraphView::Apply throw mid-epoch.
inline Status CheckDelta(const GraphDelta& delta, VertexId num_vertices) {
  const auto check = [num_vertices](
                         const std::vector<std::pair<VertexId, VertexId>>& ops,
                         const char* kind) {
    for (const auto& [u, v] : ops) {
      if (u >= num_vertices || v >= num_vertices) {
        return Status::InvalidArgument(
            std::string(kind) + " (" + std::to_string(u) + ", " +
            std::to_string(v) + ") outside the base vertex space of " +
            std::to_string(num_vertices));
      }
    }
    return Status::Ok();
  };
  const Status ins = check(delta.insertions, "insertion");
  if (!ins.ok()) return ins;
  return check(delta.deletions, "deletion");
}

/// Immutable per-view overlay: fully materialized sorted adjacency for the
/// vertices any delta folded into this view touched. Built via
/// GraphView::Apply; never mutated afterwards, so views sharing it across
/// threads need no synchronization.
class EdgeOverlay {
 public:
  /// Overlay out-adjacency of `v`, or nullptr when `v` falls through to the
  /// base graph. Sorted ascending. An untouched `v` costs one bit test.
  const std::vector<VertexId>* OutOf(VertexId v) const {
    return Marked(out_touched_, v) ? &out_.find(v)->second : nullptr;
  }

  const std::vector<VertexId>* InOf(VertexId v) const {
    return Marked(in_touched_, v) ? &in_.find(v)->second : nullptr;
  }

  /// Signed edge-count difference vs. the base graph.
  int64_t edge_delta() const { return edge_delta_; }

  /// Number of vertices with an overlay adjacency (out or in) — the
  /// compaction budget's currency.
  size_t num_touched() const { return out_.size() + in_.size(); }

  size_t MemoryBytes() const;

 private:
  friend class GraphView;

  static bool Marked(const std::vector<uint64_t>& bits, VertexId v) {
    return (bits[v >> 6] >> (v & 63)) & 1;
  }

  std::unordered_map<VertexId, std::vector<VertexId>> out_;
  std::unordered_map<VertexId, std::vector<VertexId>> in_;
  // Bit v is set iff out_ (in_) has an entry for v; one word per 64 base
  // vertices.
  std::vector<uint64_t> out_touched_;
  std::vector<uint64_t> in_touched_;
  int64_t edge_delta_ = 0;
};

/// An immutable snapshot of a (possibly updated) graph. Cheap to copy; keeps
/// its base and overlay alive via shared_ptr when constructed through the
/// owning factories, or borrows the caller's Graph for the static case
/// (implicit conversion, version 0) — which is why every pre-live call site
/// passing `const Graph&` still compiles unchanged.
class GraphView {
 public:
  GraphView() = default;

  /// Borrowing view of a static graph at version 0. Intentionally implicit:
  /// a plain Graph *is* a view of itself. `g` must outlive the view.
  GraphView(const Graph& g) : base_(&g) {}  // NOLINT(google-explicit-*)

  /// Owning view. `overlay` may be null (a compacted snapshot).
  GraphView(std::shared_ptr<const Graph> base,
            std::shared_ptr<const EdgeOverlay> overlay, uint64_t version)
      : base_(base.get()),
        base_owner_(std::move(base)),
        overlay_(std::move(overlay)),
        version_(version) {
    PATHENUM_CHECK(base_ != nullptr);
    if (overlay_ != nullptr) {
      num_edges_ = static_cast<uint64_t>(
          static_cast<int64_t>(base_->num_edges()) + overlay_->edge_delta());
    }
  }

  VertexId num_vertices() const {
    return base_ != nullptr ? base_->num_vertices() : 0;
  }

  uint64_t num_edges() const {
    return overlay_ != nullptr ? num_edges_
                               : (base_ != nullptr ? base_->num_edges() : 0);
  }

  /// Out-neighbors of `v`, sorted ascending — same contract as Graph.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    if (overlay_ != nullptr) {
      if (const std::vector<VertexId>* adj = overlay_->OutOf(v)) {
        return {adj->data(), adj->size()};
      }
    }
    return base_->OutNeighbors(v);
  }

  std::span<const VertexId> InNeighbors(VertexId v) const {
    if (overlay_ != nullptr) {
      if (const std::vector<VertexId>* adj = overlay_->InOf(v)) {
        return {adj->data(), adj->size()};
      }
    }
    return base_->InNeighbors(v);
  }

  uint32_t OutDegree(VertexId v) const {
    return static_cast<uint32_t>(OutNeighbors(v).size());
  }
  uint32_t InDegree(VertexId v) const {
    return static_cast<uint32_t>(InNeighbors(v).size());
  }
  uint32_t Degree(VertexId v) const { return OutDegree(v) + InDegree(v); }

  /// True iff the directed edge (u, v) exists in this snapshot.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Edge id of the j-th out-edge of `v` into the *base* id space, or
  /// kInvalidEdge when `v`'s adjacency comes from the overlay (overlay
  /// edges have no stable id — see the header comment).
  EdgeId OutEdgeId(VertexId v, size_t j) const {
    if (overlay_ != nullptr && overlay_->OutOf(v) != nullptr) {
      return kInvalidEdge;
    }
    return base_->OutEdgeId(v, j);
  }

  /// Base edge id of (u, v), or kInvalidEdge if absent or overlay-touched.
  EdgeId FindEdge(VertexId u, VertexId v) const {
    if (overlay_ != nullptr && overlay_->OutOf(u) != nullptr) {
      return kInvalidEdge;
    }
    return base_->FindEdge(u, v);
  }

  /// Edge attributes are only meaningful on overlay-free views (stable ids).
  bool has_weights() const {
    return overlay_ == nullptr && base_ != nullptr && base_->has_weights();
  }
  bool has_labels() const {
    return overlay_ == nullptr && base_ != nullptr && base_->has_labels();
  }
  double EdgeWeight(EdgeId e) const { return base_->EdgeWeight(e); }
  uint32_t EdgeLabel(EdgeId e) const { return base_->EdgeLabel(e); }

  uint64_t version() const { return version_; }
  bool has_overlay() const { return overlay_ != nullptr; }
  const Graph& base() const { return *base_; }
  const EdgeOverlay* overlay() const { return overlay_.get(); }

  /// True when both views are backed by the same base + overlay objects
  /// (i.e. guaranteed to describe the same topology).
  bool SameSnapshotAs(const GraphView& o) const {
    return base_ == o.base_ && overlay_.get() == o.overlay_.get();
  }

  /// Applies `delta`, returning a new view stamped `new_version`. This view
  /// is untouched. The result shares this view's base; when this view
  /// borrows its base (static-graph conversion), the caller's Graph must
  /// outlive the returned view too. Endpoints out of range throw.
  GraphView Apply(const GraphDelta& delta, uint64_t new_version) const;

  /// Folds base + overlay into a standalone CSR Graph. Surviving base
  /// edges keep their weights/labels; overlay-inserted edges get the
  /// defaults (weight 1.0, label 0). O(V + E).
  Graph Materialize() const;

  /// Approximate heap bytes attributable to the overlay (0 when absent).
  size_t OverlayBytes() const {
    return overlay_ != nullptr ? overlay_->MemoryBytes() : 0;
  }

 private:
  const Graph* base_ = nullptr;
  std::shared_ptr<const Graph> base_owner_;  // null for borrowing views
  std::shared_ptr<const EdgeOverlay> overlay_;
  uint64_t version_ = 0;
  uint64_t num_edges_ = 0;  // cached base + delta (only with overlay)
};

}  // namespace pathenum

#endif  // PATHENUM_GRAPH_VIEW_H_
