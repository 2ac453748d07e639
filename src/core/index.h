// The query-dependent light-weight index I(X, H) of paper Algorithm 3.
//
// For a query q(s, t, k) the index stores exactly the vertices that can lie
// on some hop-constrained walk from s to t:
//     X = { v : v.s + v.t <= k },   v.s = S(s,v | G-{t}), v.t = S(v,t | G-{s})
// bucketed into the (k+1) x (k+1) partition matrix of Figure 4a, plus one
// sorted adjacency structure, the out-direction H_t: for v in X, the
// out-neighbors v' with v.s + v'.t + 1 <= k, sorted by (v'.t, vertex id),
// with per-vertex offset slots so that I_t(v, b) — "neighbors within
// distance b of t" — is an O(1) span lookup (Figure 4b). Every consumer
// reads H_t only: the enumerators, and both DPs of the join-order optimizer
// (the forward one pushes along I_t; see DESIGN.md §3). The join model's (t,t)
// padding tuple appears as a self-entry of t. s never appears as an
// out-destination (no relation of Q contains such a tuple; see DESIGN.md).
//
// Internally vertices are remapped to dense *slots* (positions in the
// bucketed X order); all enumerators and the estimator work in slot space
// and only translate back to vertex ids when emitting results.
//
// v.s and v.t come from meeting in the middle (TwoSidedField, DESIGN.md
// §1): two half-depth BFS balls, then levels that admit only X, each run
// from whichever side of it is cheaper — never the whole k-ball around s
// or t. H_t is then assembled one row (the slots of one v.s) at a time,
// each from its cheaper side: top-down from the row's out-lists, or
// bottom-up from its admissible destinations' in-lists in two passes
// (DESIGN.md §1). Both leave the same bytes.
//
// Storage is arena-fused (DESIGN.md §9): every per-index array lives in one
// contiguous slab — a single allocation per build, a one-shot free, an
// exact O(1) MemoryBytes() for the engine cache's byte accounting, and the
// enumeration hot loop's arrays packed together. The slab is O(|X| + index
// edges) and holds no vertex -> slot map: every consumer works in slot
// space. The per-slot cumulative neighbor counts (`ends`) narrow to u16
// whenever every slot degree fits, halving the largest offset table.
#ifndef PATHENUM_CORE_INDEX_H_
#define PATHENUM_CORE_INDEX_H_

#include <memory>
#include <span>
#include <vector>

#include "core/query.h"
#include "graph/bfs.h"
#include "graph/graph.h"

namespace pathenum {

/// Sentinel slot for "vertex not in the index".
inline constexpr uint32_t kInvalidSlot = 0xffffffffu;

class IndexBuilder;

/// Immutable per-query index. Build via IndexBuilder. Move-only: the spans
/// below alias the owned slab.
class LightweightIndex {
 public:
  struct BuildStats {
    double bfs_ms = 0.0;    // the distance passes (Alg. 3 line 1)
    double total_ms = 0.0;  // whole construction
    /// The build was stopped by IndexBuildOptions::cancel/deadline. The
    /// index is empty but well-formed (enumerating it yields zero paths);
    /// callers map the trip to the query's terminal state, and the
    /// IndexCache never publishes such an index.
    bool interrupted = false;
    bool interrupted_by_cancel = false;  // the trip was the cancel token
    /// Adjacency entries this query's distance passes examined; a
    /// bottom-up level counts each candidate's entries up to its early
    /// exit (graph/bfs.h).
    uint64_t edges_scanned = 0;
    /// BFS levels expanded across the passes.
    uint32_t waves = 0;
    /// Of those, the levels that admit only X (meet-in-the-middle builds
    /// only), and how many of them ran bottom-up from their candidates.
    uint32_t x_only_levels = 0;
    uint32_t bottom_up_levels = 0;
    /// Adjacency entries the assembly of H_t examined: a top-down row's
    /// out-lists, a bottom-up row's destination in-lists once per pass.
    uint64_t adjacency_scanned = 0;
    /// Rows of H_t (the slots of one v.s) assembled bottom-up.
    uint32_t bottom_up_rows = 0;
  };

  LightweightIndex() = default;
  LightweightIndex(LightweightIndex&&) = default;
  LightweightIndex& operator=(LightweightIndex&&) = default;

  const Query& query() const { return query_; }
  uint32_t hops() const { return query_.hops; }

  /// Number of vertices in X.
  uint32_t num_vertices() const {
    return static_cast<uint32_t>(x_vertices_.size());
  }

  /// Edges stored in the out-direction, excluding t's padding self-entry —
  /// the paper's "index size" metric (Figs. 10, 12; Table 7).
  uint64_t num_edges() const { return num_out_edges_; }

  /// Tests and tools only, O(|X|): whether `v` lies in X.
  bool Contains(VertexId v) const { return SlotOf(v) != kInvalidSlot; }

  /// Tests and tools only, O(|X|): the slot of `v`, or kInvalidSlot. (The
  /// paper describes a hash table; the index keeps none, because the
  /// enumerators and the estimator work in slot space and never look a
  /// vertex up. A caller with many lookups maps VertexAt once.)
  uint32_t SlotOf(VertexId v) const;

  VertexId VertexAt(uint32_t slot) const { return x_vertices_[slot]; }

  /// Raw slot -> vertex-id translation array (size num_vertices()); the
  /// block-emitting enumerators translate suffixes through it directly.
  const VertexId* slot_to_vertex() const { return x_vertices_.data(); }

  /// v.s of the slot's vertex.
  uint32_t DistFromSource(uint32_t slot) const { return slot_ds_[slot]; }

  /// v.t of the slot's vertex.
  uint32_t DistToTarget(uint32_t slot) const { return slot_dt_[slot]; }

  uint32_t source_slot() const { return source_slot_; }
  uint32_t target_slot() const { return target_slot_; }

  /// I_t(v, b) in slot space: out-neighbor slots whose distance to t is at
  /// most b, sorted by (that distance, vertex id). O(1).
  std::span<const uint32_t> OutSlotsWithin(uint32_t slot, uint32_t b) const {
    return {out_slots_.data() + out_begin_[slot], OutEnd(slot, b)};
  }

  /// Graph edge ids aligned with OutSlotsWithin (kInvalidEdge for the
  /// padding entry). Used by the constraint extensions; requires a build
  /// with `build_edge_ids` (see has_edge_ids()).
  std::span<const EdgeId> OutEdgeIdsWithin(uint32_t slot, uint32_t b) const {
    return {out_edge_ids_.data() + out_begin_[slot], OutEnd(slot, b)};
  }

  /// True when the edge-id adjacency was built (IndexBuildOptions::
  /// build_edge_ids) — a precondition of the constrained enumerators.
  bool has_edge_ids() const { return edge_ids_built_; }

  /// Raw out-adjacency arrays for the iterative DFS hot loop: `begin[slot]`
  /// indexes `slots`; neighbor counts live in a `stride`-strided cumulative
  /// ends table — u16 when every slot degree fits, u32 otherwise (exactly
  /// one pointer is set). The budget argument b = k - depth - 1 of the DFS
  /// is always < stride, so hot-loop callers index the ends unclamped.
  struct OutAdjacency {
    const uint64_t* begin = nullptr;
    const uint32_t* slots = nullptr;
    const uint16_t* ends16 = nullptr;
    const uint32_t* ends32 = nullptr;
    uint32_t stride = 0;  // k + 1
  };
  OutAdjacency out_adjacency() const {
    OutAdjacency a;
    a.begin = out_begin_.data();
    a.slots = out_slots_.data();
    a.ends16 = out_ends16_.empty() ? nullptr : out_ends16_.data();
    a.ends32 = out_ends32_.empty() ? nullptr : out_ends32_.data();
    a.stride = query_.hops + 1;
    return a;
  }

  /// Tests and tools only: I_t(v, b) as vertex ids, after an O(|X|)
  /// SlotOf (allocates).
  std::vector<VertexId> OutVerticesWithin(VertexId v, uint32_t b) const;

  /// Vertices of partition cell X[a][b] (v.s == a, v.t == b) as a contiguous
  /// slot range [first, last).
  std::pair<uint32_t, uint32_t> CellSlots(uint32_t a, uint32_t b) const {
    const uint32_t k = query_.hops;
    const size_t c = static_cast<size_t>(a) * (k + 1) + b;
    return {cell_offsets_[c], cell_offsets_[c + 1]};
  }

  /// Calls fn(slot) for every vertex of C_i = I(i): v.s <= i and v.t <= k-i.
  template <typename Fn>
  void ForEachSlotInLevel(uint32_t i, Fn&& fn) const {
    const uint32_t k = query_.hops;
    for (uint32_t a = 0; a <= std::min(i, k); ++a) {
      for (uint32_t b = 0; b + i <= k; ++b) {
        const auto [first, last] = CellSlots(a, b);
        for (uint32_t slot = first; slot < last; ++slot) fn(slot);
      }
    }
  }

  /// |C_i|. O(k) cell-range arithmetic.
  uint64_t LevelSize(uint32_t i) const;

  /// Preliminary-estimator statistics (collected during construction):
  /// sum over v in C_j of |I_t(v, k-j-1)|, and |C_j|, for 0 <= j < k.
  double LevelItSum(uint32_t j) const { return level_it_sum_[j]; }
  uint64_t LevelCount(uint32_t j) const { return level_count_[j]; }

  /// True when the preliminary-estimator level statistics were collected —
  /// required by kAuto execution.
  bool has_level_stats() const { return !level_count_.empty(); }

  /// True when the cumulative neighbor-count table narrowed to u16 (every
  /// slot degree fit); exposed for the memory-accounting tests.
  bool out_ends_narrow() const { return !out_ends16_.empty(); }

  /// Exact heap footprint (Table 7's "Index" row): the object plus its one
  /// slab. O(1) — the engine cache charges/evicts by this number.
  size_t MemoryBytes() const { return sizeof(*this) + slab_bytes_; }

  /// Bytes of the fused slab alone (the single allocation behind every
  /// array above).
  size_t slab_bytes() const { return slab_bytes_; }

  const BuildStats& build_stats() const { return build_stats_; }

 private:
  friend class IndexBuilder;

  uint32_t OutEnd(uint32_t slot, uint32_t b) const {
    const uint32_t k = query_.hops;
    const size_t i = static_cast<size_t>(slot) * (k + 1) + std::min(b, k);
    return out_ends16_.empty() ? out_ends32_[i] : out_ends16_[i];
  }

  Query query_;
  BuildStats build_stats_;

  // One contiguous allocation backing every span below (DESIGN.md §9).
  std::unique_ptr<std::byte[]> slab_;
  size_t slab_bytes_ = 0;

  std::span<const VertexId> x_vertices_;   // bucketed by (v.s, v.t) cell
  std::span<const uint32_t> cell_offsets_; // (k+1)^2 + 1 entries
  std::span<const uint8_t> slot_ds_;       // v.s per slot
  std::span<const uint8_t> slot_dt_;       // v.t per slot
  uint32_t source_slot_ = kInvalidSlot;
  uint32_t target_slot_ = kInvalidSlot;

  bool edge_ids_built_ = false;
  std::span<const uint64_t> out_begin_;    // per slot, into out_slots_
  std::span<const uint32_t> out_slots_;    // neighbors, by (v'.t, id)
  std::span<const EdgeId> out_edge_ids_;   // aligned with out_slots_
  std::span<const uint16_t> out_ends16_;   // (k+1) cumulative counts per
  std::span<const uint32_t> out_ends32_;   //   slot; exactly one is set
  uint64_t num_out_edges_ = 0;             // excludes t's padding entry

  std::span<const double> level_it_sum_;   // size k (levels 0..k-1)
  std::span<const uint64_t> level_count_;
};

/// Options for IndexBuilder::Build.
struct IndexBuildOptions {
  /// Predicate push-down (Appendix E): edges failing the filter are
  /// invisible to the BFS and to the index adjacency.
  const EdgeFilter* filter = nullptr;
  /// Graph edge ids aligned with the out-adjacency — the slab's largest
  /// array (8 bytes/edge), consumed only by the Appendix-E constraint
  /// extensions. The unconstrained pipeline builds without them
  /// (PathEnumerator::BuildOptionsFor); defaults to true so a bare Build
  /// keeps the full documented surface.
  bool build_edge_ids = true;
  /// Level statistics feed the preliminary estimator.
  bool collect_level_stats = true;
  /// Meet in the middle (TwoSidedField: two half-depth balls, then each
  /// side only through X; exact, see DESIGN.md §1). Off runs the two full
  /// k-balls, the reference the ablation bench and the differential
  /// tests compare against.
  bool prune_forward_bfs = true;
  /// Cooperative build control (DESIGN.md §10), polled once per expanded
  /// BFS level, then during the assembly at every 4,096th slot of a
  /// top-down row, and at the start of each bottom-up row and every 4,096
  /// destinations of its two passes. A tripped build returns an
  /// empty-but-well-formed index with build_stats().interrupted set
  /// instead of running to completion.
  const std::atomic<bool>* cancel = nullptr;
  Deadline deadline = Deadline::Unlimited();
};

/// Builds LightweightIndex instances. Owns the epoch-stamped BFS buffers
/// and the staging arrays the index parts are assembled in before being
/// fused into the slab, so that thousands of per-query builds avoid both
/// the O(|V|) re-initialisation and all staging allocations — keep one
/// builder per graph/session; the steady-state build allocates exactly the
/// result slab. No per-query step costs O(|V|): the distance field is
/// epoch-stamped, and the |V|-sized staging lookup is reset only at the
/// entries a build wrote.
class IndexBuilder {
 public:
  using Options = IndexBuildOptions;

  IndexBuilder() = default;

  /// Builds the index for `q` over `g`. The query must be valid. Templated
  /// over the graph type (the immutable `Graph`, the live subsystem's
  /// `GraphView` or the shard router's `UnionView`); the definition lives
  /// in index.cpp with explicit instantiations for the three.
  template <typename GraphT>
  LightweightIndex Build(const GraphT& g, const Query& q,
                         const Options& opts = {});

 private:
  /// Copies the staged parts into one exactly-sized slab and points the
  /// index's spans at it, narrowing the ends table to u16 when the counts
  /// permit.
  void Fuse(LightweightIndex& idx, bool edge_ids, bool level_stats);

  /// Everything after the BFS passes — partition X, build H_t, level
  /// stats, Fuse — parameterized over the distance accessors
  /// `dist_s(v)`/`dist_t(v)` so the meet-in-the-middle field and the
  /// two-full-ball reference share one assembly. An accessor returns the
  /// exact distance on X and, for an unset one, a value above any hop
  /// bound (at most TwoSidedField::kUnset, so sums never overflow). `cand`
  /// is an X candidate list: any reached list holding all of X. Stamps
  /// total_ms.
  template <typename GraphT, typename DistS, typename DistT>
  void AssembleFrom(const GraphT& g, const Query& q, const Options& opts,
                    const std::vector<VertexId>& cand, const DistS& dist_s,
                    const DistT& dist_t, LightweightIndex& idx,
                    Timer& total_timer);

  /// AssembleFrom's staging slot lookup and adjacency scans over the
  /// staged X, row by row through the three helpers below; returns the
  /// control trip (0 = none, 1 = cancel, 2 = deadline) that stopped them
  /// early.
  template <typename GraphT, typename DistT>
  int BuildAdjacency(const GraphT& g, const Query& q, const Options& opts,
                     const DistT& dist_t, LightweightIndex& idx);
  template <typename GraphT, typename DistT>
  int TopDownRow(const GraphT& g, const Query& q, const Options& opts,
                 const DistT& dist_t, uint32_t first, uint32_t last,
                 LightweightIndex& idx);
  template <typename GraphT>
  bool PreferBottomUpRow(const GraphT& g, uint32_t k, uint32_t a,
                         uint32_t first, uint32_t last, uint32_t target_slot);
  template <typename GraphT>
  int BottomUpRow(const GraphT& g, const Options& opts, uint32_t k,
                  uint32_t first, uint32_t last, LightweightIndex& idx);

  /// Replaces the staged parts with an empty-but-well-formed index (zero
  /// slots, zero paths on enumeration) and stamps the interruption into
  /// its build stats — the terminal path of a control-tripped Build.
  void FinishInterrupted(LightweightIndex& idx, const Query& q,
                         const Options& opts, bool by_cancel);

  TwoSidedField field_;    // v.s and v.t on X (every pruned build)
  DistanceField field_s_;  // the reference: forward k-ball, t blocked
  DistanceField field_t_;  // the reference: backward k-ball, s blocked
  struct ScratchEntry {
    uint32_t key;   // v'.t
    uint32_t slot;
    EdgeId edge;
  };
  std::vector<ScratchEntry> scratch_;
  // A bottom-up row's destinations as (v'.t << 32 | vertex), sorted.
  std::vector<uint64_t> row_dests_;

  // Staging arrays (reused across builds; Fuse copies them into the slab).
  std::vector<VertexId> x_vertices_;
  std::vector<uint32_t> cell_offsets_;
  // Vertex -> slot for the adjacency scans: |V|-sized, kInvalidSlot
  // everywhere between builds (a build writes and resets only X's entries).
  std::vector<uint32_t> slot_lookup_;
  std::vector<uint8_t> slot_ds_;
  std::vector<uint8_t> slot_dt_;
  std::vector<uint64_t> out_begin_;
  std::vector<uint32_t> out_slots_;
  std::vector<EdgeId> out_edge_ids_;
  std::vector<uint32_t> out_ends_;
  std::vector<double> level_it_sum_;
  std::vector<uint64_t> level_count_;
  std::vector<uint32_t> cell_cursor_;
};

}  // namespace pathenum

#endif  // PATHENUM_CORE_INDEX_H_
