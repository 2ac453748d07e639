#include "core/index.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "graph/view.h"
#include "obs/metrics.h"
#include "util/memory.h"
#include "util/timer.h"

namespace pathenum {

uint32_t LightweightIndex::SlotOf(VertexId v) const {
  const auto it = std::lower_bound(
      vertex_slots_.begin(), vertex_slots_.end(), v,
      [](const VertexSlot& e, VertexId key) { return e.vertex < key; });
  return it != vertex_slots_.end() && it->vertex == v ? it->slot
                                                      : kInvalidSlot;
}

std::vector<VertexId> LightweightIndex::OutVerticesWithin(VertexId v,
                                                          uint32_t b) const {
  std::vector<VertexId> out;
  const uint32_t slot = SlotOf(v);
  if (slot == kInvalidSlot) return out;
  for (uint32_t s : OutSlotsWithin(slot, b)) out.push_back(VertexAt(s));
  return out;
}

uint64_t LightweightIndex::LevelSize(uint32_t i) const {
  const uint32_t k = query_.hops;
  uint64_t total = 0;
  for (uint32_t a = 0; a <= std::min(i, k); ++a) {
    for (uint32_t b = 0; b + i <= k; ++b) {
      const auto [first, last] = CellSlots(a, b);
      total += last - first;
    }
  }
  return total;
}

namespace {

/// Copies `src` into the slab at `offset` (which must be suitably aligned
/// — the layout orders arrays by descending alignment) and returns the
/// aliasing span.
template <typename T>
std::span<const T> PlacePart(std::byte* slab, size_t& offset,
                             const std::vector<T>& src) {
  T* dst = reinterpret_cast<T*>(slab + offset);
  if (!src.empty()) std::memcpy(dst, src.data(), src.size() * sizeof(T));
  offset += src.size() * sizeof(T);
  return {dst, src.size()};
}

/// Narrowing u32 -> u16 variant for the ends tables.
std::span<const uint16_t> PlacePart16(std::byte* slab, size_t& offset,
                                      const std::vector<uint32_t>& src) {
  uint16_t* dst = reinterpret_cast<uint16_t*>(slab + offset);
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<uint16_t>(src[i]);
  }
  offset += src.size() * sizeof(uint16_t);
  return {dst, src.size()};
}

/// Writes `value` back into `table` at every vertex of `written` on scope
/// exit, exceptions included (a fault hook or an allocation may throw
/// mid-build), so a grow-only |V|-sized staging table is clean again for
/// the next build after O(|written|) work.
template <typename T>
class ResetOnExit {
 public:
  ResetOnExit(std::vector<T>& table, const std::vector<VertexId>& written,
              T value)
      : table_(table), written_(written), value_(value) {}
  ~ResetOnExit() {
    for (const VertexId v : written_) table_[v] = value_;
  }
  ResetOnExit(const ResetOnExit&) = delete;
  ResetOnExit& operator=(const ResetOnExit&) = delete;

 private:
  std::vector<T>& table_;
  const std::vector<VertexId>& written_;
  const T value_;
};

/// Cooperative control poll (0 = none, 1 = cancel, 2 = deadline) for the
/// stretches after the BFS passes' own per-level polls.
int ControlTrip(const IndexBuildOptions& opts) {
  if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed)) {
    return 1;
  }
  if (opts.deadline.Expired()) return 2;
  return 0;
}

bool FitsU16(const std::vector<uint32_t>& v) {
  for (const uint32_t x : v) {
    if (x > 0xffffu) return false;
  }
  return true;
}

/// Global build-stream metrics (DESIGN.md §12): every finished index
/// build, interrupted or not, feeds one counted observation. The
/// registry-owned handles resolve once; under PATHENUM_OBS=0 they are no-op
/// stubs and the whole call melts away.
void RecordBuildMetrics(const LightweightIndex::BuildStats& bs) {
  struct Handles {
    obs::MetricRegistry& reg = obs::MetricRegistry::Global();
    obs::RegCounter* builds = reg.GetCounter("pathenum_build_total",
                                             "kind=\"solo\"");
    obs::RegCounter* interrupted =
        reg.GetCounter("pathenum_build_interrupted_total");
    obs::RegCounter* edges = reg.GetCounter("pathenum_build_edges_total");
    obs::RegHistogram* build_ms = reg.GetHistogram("pathenum_build_ms",
                                                   "kind=\"solo\"");
  };
  static Handles h;
  h.builds->Inc();
  if (bs.interrupted) h.interrupted->Inc();
  h.edges->Inc(bs.edges_scanned);
  h.build_ms->Observe(bs.total_ms);
}

}  // namespace

void IndexBuilder::Fuse(LightweightIndex& idx, bool edge_ids,
                        bool level_stats) {
  // The cumulative ends are bounded by the slot's (index) degree; narrow
  // the whole table to u16 when every count fits.
  const bool out_narrow = FitsU16(out_ends_);

  // Element sizes come from the staged vectors' own types (sizeof, exactly
  // what PlacePart copies), so the budget and the copy cannot diverge.
  // Arrays are laid out in descending alignment order (8 -> 4 -> 2 -> 1),
  // so no padding is ever needed between them.
  const auto bytes_of = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  size_t total = 0;
  total += bytes_of(out_begin_);
  if (edge_ids) total += bytes_of(out_edge_ids_);
  if (level_stats) {
    total += bytes_of(level_it_sum_);
    total += bytes_of(level_count_);
  }
  total += bytes_of(x_vertices_);
  total += bytes_of(cell_offsets_);
  total += bytes_of(vertex_slots_);
  total += bytes_of(out_slots_);
  total += out_ends_.size() * (out_narrow ? sizeof(uint16_t) : sizeof(uint32_t));
  total += bytes_of(slot_ds_);
  total += bytes_of(slot_dt_);

  idx.slab_ = std::make_unique<std::byte[]>(total);
  idx.slab_bytes_ = total;
  std::byte* slab = idx.slab_.get();
  size_t off = 0;

  // 8-byte-aligned parts.
  idx.out_begin_ = PlacePart(slab, off, out_begin_);
  idx.edge_ids_built_ = edge_ids;
  if (edge_ids) idx.out_edge_ids_ = PlacePart(slab, off, out_edge_ids_);
  if (level_stats) {
    idx.level_it_sum_ = PlacePart(slab, off, level_it_sum_);
    idx.level_count_ = PlacePart(slab, off, level_count_);
  }
  // 4-byte.
  idx.x_vertices_ = PlacePart(slab, off, x_vertices_);
  idx.cell_offsets_ = PlacePart(slab, off, cell_offsets_);
  idx.vertex_slots_ = PlacePart(slab, off, vertex_slots_);
  idx.out_slots_ = PlacePart(slab, off, out_slots_);
  if (!out_narrow) idx.out_ends32_ = PlacePart(slab, off, out_ends_);
  // 2-byte.
  if (out_narrow) idx.out_ends16_ = PlacePart16(slab, off, out_ends_);
  // 1-byte.
  idx.slot_ds_ = PlacePart(slab, off, slot_ds_);
  idx.slot_dt_ = PlacePart(slab, off, slot_dt_);
  PATHENUM_CHECK_MSG(off == total, "slab layout mismatch");
}

void IndexBuilder::FinishInterrupted(LightweightIndex& idx, const Query& q,
                                     const Options& opts, bool by_cancel) {
  const uint32_t k = q.hops;
  const size_t num_cells = static_cast<size_t>(k + 1) * (k + 1);
  cell_offsets_.assign(num_cells + 1, 0);
  x_vertices_.clear();
  slot_ds_.clear();
  slot_dt_.clear();
  vertex_slots_.clear();  // SlotOf finds nothing
  out_begin_.assign(1, 0);
  out_ends_.clear();
  out_slots_.clear();
  out_edge_ids_.clear();
  if (opts.collect_level_stats) {
    level_it_sum_.assign(k, 0.0);
    level_count_.assign(k, 0);
  }
  idx.source_slot_ = kInvalidSlot;
  idx.target_slot_ = kInvalidSlot;
  idx.num_out_edges_ = 0;
  Fuse(idx, opts.build_edge_ids, opts.collect_level_stats);
  idx.build_stats_.interrupted = true;
  idx.build_stats_.interrupted_by_cancel = by_cancel;
}

template <typename GraphT>
LightweightIndex IndexBuilder::Build(const GraphT& g, const Query& q,
                                     const Options& opts) {
  ValidateQuery(g, q);
  LightweightIndex idx;
  idx.query_ = q;
  const uint32_t k = q.hops;
  Timer total_timer;

  // --- Line 1 of Alg. 3: v.s and v.t on X. -------------------------------
  // Meeting in the middle touches two half-depth balls plus X's
  // neighbourhoods (DESIGN.md §1); the reference runs the two full k-balls,
  // backward from t first, then forward from s.
  DistanceField::Interrupt trip = DistanceField::Interrupt::kNone;
  if (opts.prune_forward_bfs) {
    TwoSidedField::Options fo;
    fo.source = q.source;
    fo.target = q.target;
    fo.hops = k;
    fo.cancel = opts.cancel;
    fo.deadline = opts.deadline;
    if (opts.filter == nullptr) {
      field_.Compute(g, fo, AcceptAllEdges{});
    } else {
      field_.Compute(g, fo, *opts.filter);
    }
    trip = field_.interrupted();
    idx.build_stats_.edges_scanned = field_.edges_scanned();
    idx.build_stats_.waves = field_.waves();
  } else {
    DistanceField::Options bwd;
    bwd.blocked = q.source;  // internal vertices avoid s
    bwd.max_depth = k;
    bwd.filter = opts.filter;
    bwd.cancel = opts.cancel;
    bwd.deadline = opts.deadline;
    DistanceField::Options fwd = bwd;
    fwd.blocked = q.target;  // internal vertices avoid t
    field_t_.Compute(g, Direction::kBackward, q.target, bwd);
    trip = field_t_.interrupted();
    if (trip == DistanceField::Interrupt::kNone) {
      field_s_.Compute(g, Direction::kForward, q.source, fwd);
      trip = field_s_.interrupted();
    }
    idx.build_stats_.edges_scanned =
        field_t_.edges_scanned() + field_s_.edges_scanned();
    idx.build_stats_.waves = field_t_.waves() + field_s_.waves();
  }
  idx.build_stats_.bfs_ms = total_timer.ElapsedMs();
  if (trip != DistanceField::Interrupt::kNone) {
    // An interrupted pass left incomplete distances — discard them and
    // hand back the empty well-formed index.
    FinishInterrupted(idx, q, opts,
                      trip == DistanceField::Interrupt::kCancelled);
    idx.build_stats_.total_ms = total_timer.ElapsedMs();
    RecordBuildMetrics(idx.build_stats_);
    return idx;
  }

  // Both reached lists hold all of X; scan the smaller.
  const auto smaller = [](const std::vector<VertexId>& x,
                          const std::vector<VertexId>& y)
      -> const std::vector<VertexId>& { return x.size() <= y.size() ? x : y; };
  if (opts.prune_forward_bfs) {
    AssembleFrom(
        g, q, opts,
        smaller(field_.ReachedFromSource(), field_.ReachedToTarget()),
        [this](VertexId v) { return field_.FromSource(v); },
        [this](VertexId v) { return field_.ToTarget(v); }, idx, total_timer);
  } else {
    AssembleFrom(
        g, q, opts, smaller(field_s_.Reached(), field_t_.Reached()),
        [this](VertexId v) {
          return std::min(field_s_.Distance(v), TwoSidedField::kUnset);
        },
        [this](VertexId v) {
          return std::min(field_t_.Distance(v), TwoSidedField::kUnset);
        },
        idx, total_timer);
  }
  RecordBuildMetrics(idx.build_stats_);
  return idx;
}

/// Everything below Alg. 3 line 1: partition, adjacency, level stats,
/// fuse. Shared verbatim between the meet-in-the-middle build and the
/// reference — only the distance accessors differ.
template <typename GraphT, typename DistS, typename DistT>
void IndexBuilder::AssembleFrom(const GraphT& g, const Query& q,
                                const Options& opts,
                                const std::vector<VertexId>& cand,
                                const DistS& dist_s, const DistT& dist_t,
                                LightweightIndex& idx, Timer& total_timer) {
  const uint32_t k = q.hops;

  // --- Lines 2-4: partition X by (v.s, v.t), v.s + v.t <= k. ------------
  const size_t num_cells = static_cast<size_t>(k + 1) * (k + 1);
  cell_offsets_.assign(num_cells + 1, 0);
  for (const VertexId v : cand) {
    const uint32_t ds = dist_s(v);
    const uint32_t dt = dist_t(v);
    if (ds + dt > k) continue;
    cell_offsets_[static_cast<size_t>(ds) * (k + 1) + dt + 1]++;
  }
  for (size_t c = 0; c < num_cells; ++c) {
    cell_offsets_[c + 1] += cell_offsets_[c];
  }
  const uint32_t num_x = cell_offsets_[num_cells];
  x_vertices_.resize(num_x);
  slot_ds_.resize(num_x);
  slot_dt_.resize(num_x);
  {
    cell_cursor_.assign(cell_offsets_.begin(), cell_offsets_.end() - 1);
    for (const VertexId v : cand) {
      const uint32_t ds = dist_s(v);
      const uint32_t dt = dist_t(v);
      if (ds + dt > k) continue;
      const uint32_t slot =
          cell_cursor_[static_cast<size_t>(ds) * (k + 1) + dt]++;
      x_vertices_[slot] = v;
      slot_ds_[slot] = static_cast<uint8_t>(ds);
      slot_dt_[slot] = static_cast<uint8_t>(dt);
    }
  }
  if (const int trip = BuildAdjacency(g, q, opts, dist_t, idx)) {
    FinishInterrupted(idx, q, opts, trip == 1);
    idx.build_stats_.total_ms = total_timer.ElapsedMs();
    return;
  }

  // --- Preliminary-estimator statistics (paper §6.2). -------------------
  if (opts.collect_level_stats) {
    for (uint32_t slot = 0; slot < num_x; ++slot) {
      const uint32_t ds = slot_ds_[slot];
      const uint32_t dt = slot_dt_[slot];
      const uint32_t j_hi = std::min(k - 1, k - dt);
      const uint32_t* ends = &out_ends_[static_cast<size_t>(slot) * (k + 1)];
      for (uint32_t j = ds; j <= j_hi; ++j) {
        level_count_[j]++;
        level_it_sum_[j] += ends[k - j - 1];
      }
    }
  }

  // --- Fuse the staged parts into the one-allocation slab (§9). ---------
  Fuse(idx, opts.build_edge_ids, opts.collect_level_stats);

  idx.build_stats_.total_ms = total_timer.ElapsedMs();
}

/// Lines 5-11 of Alg. 3: the slot maps and the staged adjacency of X's
/// slots. Returns the control trip (0 = none, 1 = cancel, 2 = deadline)
/// that stopped it early.
template <typename GraphT, typename DistT>
int IndexBuilder::BuildAdjacency(const GraphT& g, const Query& q,
                                 const Options& opts, const DistT& dist_t,
                                 LightweightIndex& idx) {
  const uint32_t k = q.hops;
  const uint32_t num_x = static_cast<uint32_t>(x_vertices_.size());
  // The staging lookup is all kInvalidSlot here; X's entries are written
  // now and reset on every exit.
  if (slot_lookup_.size() < g.num_vertices()) {
    slot_lookup_.resize(g.num_vertices(), kInvalidSlot);
  }
  const ResetOnExit<uint32_t> reset(slot_lookup_, x_vertices_, kInvalidSlot);
  vertex_slots_.resize(num_x);
  for (uint32_t slot = 0; slot < num_x; ++slot) {
    slot_lookup_[x_vertices_[slot]] = slot;
    vertex_slots_[slot] = {x_vertices_[slot], slot};
  }
  std::sort(vertex_slots_.begin(), vertex_slots_.end(),
            [](const LightweightIndex::VertexSlot& a,
               const LightweightIndex::VertexSlot& b) {
              return a.vertex < b.vertex;
            });
  const auto slot_of = [&](VertexId v) { return slot_lookup_[v]; };
  idx.source_slot_ = slot_lookup_[q.source];
  idx.target_slot_ = slot_lookup_[q.target];

  // If s (equivalently t) fell out of X there is no result within k hops;
  // leave the adjacency empty but well-formed.
  out_begin_.assign(num_x + 1, 0);
  out_ends_.assign(static_cast<size_t>(num_x) * (k + 1), 0);
  out_slots_.clear();
  out_edge_ids_.clear();
  if (opts.collect_level_stats) {
    level_it_sum_.assign(k, 0.0);
    level_count_.assign(k, 0);
  }

  // --- Lines 5-11: out-direction adjacency H_t, sorted by v'.t. ---------
  uint32_t key_counts[kMaxHops + 2];
  int trip = 0;
  for (uint32_t slot = 0; slot < num_x; ++slot) {
    if ((slot & 4095u) == 0) {
      fault::Hit(fault::Site::kIndexAdjacency);
      if ((trip = ControlTrip(opts)) != 0) break;
    }
    const VertexId v = x_vertices_[slot];
    const uint32_t ds = slot_ds_[slot];
    scratch_.clear();
    if (slot == idx.target_slot_) {
      // The (t,t) padding self-entry: H[t] = {t} with distance key 0.
      scratch_.push_back({0, slot, kInvalidEdge});
    } else {
      const auto nbrs = g.OutNeighbors(v);
      for (size_t j = 0; j < nbrs.size(); ++j) {
        const VertexId w = nbrs[j];
        if (w == q.source) continue;  // s is never a tuple destination
        const uint32_t dt_w = dist_t(w);
        if (ds + dt_w + 1 > k) continue;
        // Edge ids feed only the constraint extensions, which require a
        // plain Graph (overlay views have no stable ids and constrained
        // runs are gated on overlay-free snapshots) — skip the per-edge id
        // lookup for view builds and for edge-id-free builds (unless the
        // push-down filter needs the id to evaluate).
        EdgeId e = kInvalidEdge;
        if constexpr (std::is_same_v<GraphT, Graph>) {
          if (opts.build_edge_ids || opts.filter != nullptr) {
            e = g.OutEdgeId(v, j);
          }
        }
        if (opts.filter != nullptr && !(*opts.filter)(v, w, e)) continue;
        // Reachability arithmetic guarantees w is in X (see DESIGN.md).
        scratch_.push_back({dt_w, slot_of(w), e});
      }
    }
    // Counting sort by distance key (stable: preserves adjacency order).
    std::fill(key_counts, key_counts + k + 2, 0u);
    for (const ScratchEntry& e : scratch_) key_counts[e.key + 1]++;
    for (uint32_t b = 0; b <= k; ++b) key_counts[b + 1] += key_counts[b];
    const uint64_t begin = out_slots_.size();
    out_slots_.resize(begin + scratch_.size());
    if (opts.build_edge_ids) out_edge_ids_.resize(begin + scratch_.size());
    {
      uint32_t place[kMaxHops + 2];
      std::copy(key_counts, key_counts + k + 2, place);
      for (const ScratchEntry& e : scratch_) {
        const uint32_t pos = place[e.key]++;
        out_slots_[begin + pos] = e.slot;
        if (opts.build_edge_ids) out_edge_ids_[begin + pos] = e.edge;
      }
    }
    out_begin_[slot + 1] = out_slots_.size();
    // ends[b] = #neighbors with key <= b = key_counts[b + 1].
    uint32_t* ends = &out_ends_[static_cast<size_t>(slot) * (k + 1)];
    for (uint32_t b = 0; b <= k; ++b) ends[b] = key_counts[b + 1];
    if (slot != idx.target_slot_) {
      idx.num_out_edges_ += scratch_.size();
    }
  }
  return trip;
}

// The two graph types an index is ever built over: the immutable CSR Graph
// and the live subsystem's versioned overlay snapshot. Each instantiation
// inlines its own adjacency access into the BFS and adjacency-scan loops.
template LightweightIndex IndexBuilder::Build<Graph>(const Graph&,
                                                     const Query&,
                                                     const Options&);
template LightweightIndex IndexBuilder::Build<GraphView>(const GraphView&,
                                                         const Query&,
                                                         const Options&);

}  // namespace pathenum
