#include "graph/view.h"

#include <algorithm>

#include "graph/builder.h"

namespace pathenum {

namespace {

/// Inserts `v`, known to be absent, into the sorted `adj`.
void SortedInsert(std::vector<VertexId>& adj, VertexId v) {
  adj.insert(std::lower_bound(adj.begin(), adj.end(), v), v);
}

/// Erases `v`, known to be present, from the sorted `adj`.
void SortedErase(std::vector<VertexId>& adj, VertexId v) {
  adj.erase(std::lower_bound(adj.begin(), adj.end(), v));
}

void Mark(std::vector<uint64_t>& bits, VertexId v) {
  bits[v >> 6] |= uint64_t{1} << (v & 63);
}

}  // namespace

size_t EdgeOverlay::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  constexpr size_t kMapEntryOverhead =
      sizeof(void*) * 2 + sizeof(VertexId) + sizeof(std::vector<VertexId>);
  for (const auto& [v, adj] : out_) {
    bytes += kMapEntryOverhead + adj.capacity() * sizeof(VertexId);
  }
  for (const auto& [v, adj] : in_) {
    bytes += kMapEntryOverhead + adj.capacity() * sizeof(VertexId);
  }
  bytes += (out_touched_.capacity() + in_touched_.capacity()) *
           sizeof(uint64_t);
  return bytes;
}

bool GraphView::HasEdge(VertexId u, VertexId v) const {
  if (overlay_ != nullptr) {
    if (const std::vector<VertexId>* adj = overlay_->OutOf(u)) {
      return std::binary_search(adj->begin(), adj->end(), v);
    }
  }
  return base_->HasEdge(u, v);
}

GraphView GraphView::Apply(const GraphDelta& delta,
                           uint64_t new_version) const {
  PATHENUM_CHECK_MSG(base_ != nullptr, "cannot apply a delta to an empty view");
  const VertexId n = num_vertices();
  std::shared_ptr<EdgeOverlay> overlay;
  if (overlay_ != nullptr) {
    // Overlays compose by copying the previous touched-vertex tables (cost
    // proportional to the touched set, bounded by the compaction budget)
    // and bitsets.
    overlay = std::make_shared<EdgeOverlay>(*overlay_);
  } else {
    overlay = std::make_shared<EdgeOverlay>();
    overlay->out_touched_.assign((size_t{n} + 63) / 64, 0);
    overlay->in_touched_.assign((size_t{n} + 63) / 64, 0);
  }

  // Whether (u, v) is in the snapshot built so far: u's current out-list is
  // its overlay entry if it has one (the copied tables included), else the
  // base span.
  const auto has_edge = [&](VertexId u, VertexId v) {
    const std::vector<VertexId>* adj = overlay->OutOf(u);
    return adj != nullptr ? std::binary_search(adj->begin(), adj->end(), v)
                          : base_->HasEdge(u, v);
  };
  // Copy-on-write per vertex: the first time a delta changes a vertex's
  // list, its full adjacency is materialized from this view (base or prior
  // overlay) and its touched bit is set.
  const auto out_of = [&](VertexId v) -> std::vector<VertexId>& {
    const auto [it, inserted] = overlay->out_.try_emplace(v);
    if (inserted) {
      const auto span = OutNeighbors(v);
      it->second.assign(span.begin(), span.end());
      Mark(overlay->out_touched_, v);
    }
    return it->second;
  };
  const auto in_of = [&](VertexId v) -> std::vector<VertexId>& {
    const auto [it, inserted] = overlay->in_.try_emplace(v);
    if (inserted) {
      const auto span = InNeighbors(v);
      it->second.assign(span.begin(), span.end());
      Mark(overlay->in_touched_, v);
    }
    return it->second;
  };

  // Membership is tested before any copy, so a no-op operation (an edge
  // already present, an absent deletion, a self-loop, which is dropped as
  // GraphBuilder drops it) touches no vertex.
  for (const auto& [u, v] : delta.insertions) {
    PATHENUM_CHECK_MSG(u < n && v < n, "delta endpoint out of range");
    if (u == v || has_edge(u, v)) continue;
    SortedInsert(out_of(u), v);
    SortedInsert(in_of(v), u);
    ++overlay->edge_delta_;
  }
  for (const auto& [u, v] : delta.deletions) {
    PATHENUM_CHECK_MSG(u < n && v < n, "delta endpoint out of range");
    if (u == v || !has_edge(u, v)) continue;
    SortedErase(out_of(u), v);
    SortedErase(in_of(v), u);
    --overlay->edge_delta_;
  }

  GraphView next;
  next.base_ = base_;
  next.base_owner_ = base_owner_;
  next.overlay_ = std::move(overlay);
  next.version_ = new_version;
  next.num_edges_ = static_cast<uint64_t>(
      static_cast<int64_t>(base_->num_edges()) + next.overlay_->edge_delta());
  return next;
}

Graph GraphView::Materialize() const {
  PATHENUM_CHECK_MSG(base_ != nullptr, "cannot materialize an empty view");
  if (overlay_ == nullptr) return *base_;  // copy of the CSR arrays
  const VertexId n = num_vertices();
  GraphBuilder b(n);
  const bool attributed = base_->has_weights() || base_->has_labels();
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = OutNeighbors(v);
    for (size_t j = 0; j < nbrs.size(); ++j) {
      const VertexId w = nbrs[j];
      if (!attributed) {
        b.AddEdge(v, w);
        continue;
      }
      // Surviving base edges keep their weight/label (found by id for
      // untouched vertices, by lookup for overlay ones); edges the overlay
      // inserted get the defaults (weight 1.0, label 0).
      const EdgeId e = overlay_->OutOf(v) != nullptr ? base_->FindEdge(v, w)
                                                     : base_->OutEdgeId(v, j);
      if (e == kInvalidEdge) {
        b.AddEdge(v, w, 1.0, 0);
      } else {
        b.AddEdge(v, w, base_->has_weights() ? base_->EdgeWeight(e) : 1.0,
                  base_->has_labels() ? base_->EdgeLabel(e) : 0);
      }
    }
  }
  return b.Build();
}

}  // namespace pathenum
