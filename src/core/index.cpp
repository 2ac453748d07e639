#include "core/index.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "graph/union_view.h"
#include "graph/view.h"
#include "obs/metrics.h"
#include "util/memory.h"
#include "util/timer.h"

namespace pathenum {

uint32_t LightweightIndex::SlotOf(VertexId v) const {
  const auto it = std::find(x_vertices_.begin(), x_vertices_.end(), v);
  return it != x_vertices_.end()
             ? static_cast<uint32_t>(it - x_vertices_.begin())
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
    obs::RegCounter* bottom_up = reg.GetCounter(
        "pathenum_build_levels_total", "direction=\"bottom_up\"");
    obs::RegCounter* top_down = reg.GetCounter(
        "pathenum_build_levels_total", "direction=\"top_down\"");
  };
  static Handles h;
  h.builds->Inc();
  if (bs.interrupted) h.interrupted->Inc();
  h.edges->Inc(bs.edges_scanned);
  h.bottom_up->Inc(bs.bottom_up_levels);
  h.top_down->Inc(bs.x_only_levels - bs.bottom_up_levels);
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
  // Meeting in the middle touches two balls whose depths sum to k - 1,
  // then only X's levels from their cheaper side (DESIGN.md §1); the
  // reference runs the two full k-balls, backward from t first, then
  // forward from s.
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
    idx.build_stats_.x_only_levels = field_.x_only_levels();
    idx.build_stats_.bottom_up_levels = field_.bottom_up_levels();
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

/// Lines 5-11 of Alg. 3: the staging vertex -> slot lookup and the staged
/// adjacency of X's slots, one row (the slots of one v.s) at a time, each
/// from its cheaper side (DESIGN.md §1). Returns the control trip (0 =
/// none, 1 = cancel, 2 = deadline) that stopped it early.
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
  for (uint32_t slot = 0; slot < num_x; ++slot) {
    slot_lookup_[x_vertices_[slot]] = slot;
  }
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

  // --- Lines 5-11: out-direction adjacency H_t, sorted by (v'.t, id). ---
  // Row a is the cells (a, 0..k - a): one contiguous slot range.
  for (uint32_t a = 0; a <= k; ++a) {
    const uint32_t first = cell_offsets_[static_cast<size_t>(a) * (k + 1)];
    const uint32_t last = cell_offsets_[static_cast<size_t>(a + 1) * (k + 1)];
    if (first == last) continue;
    int trip;
    if (PreferBottomUpRow(g, k, a, first, last, idx.target_slot_)) {
      ++idx.build_stats_.bottom_up_rows;
      trip = BottomUpRow(g, opts, k, first, last, idx);
    } else {
      trip = TopDownRow(g, q, opts, dist_t, first, last, idx);
    }
    if (trip != 0) return trip;
  }
  return 0;
}

/// Row [first, last) of H_t from each slot's out-list: keep v' with
/// v.s + v'.t + 1 <= k, then a stable counting sort by v'.t, which over a
/// sorted out-list leaves the (v'.t, id) order.
template <typename GraphT, typename DistT>
int IndexBuilder::TopDownRow(const GraphT& g, const Query& q,
                             const Options& opts, const DistT& dist_t,
                             uint32_t first, uint32_t last,
                             LightweightIndex& idx) {
  const uint32_t k = q.hops;
  uint32_t key_counts[kMaxHops + 2];
  for (uint32_t slot = first; slot < last; ++slot) {
    if ((slot & 4095u) == 0) {
      fault::Hit(fault::Site::kIndexAdjacency);
      if (const int trip = ControlTrip(opts)) return trip;
    }
    const VertexId v = x_vertices_[slot];
    const uint32_t ds = slot_ds_[slot];
    scratch_.clear();
    if (slot == idx.target_slot_) {
      // The (t,t) padding self-entry: H[t] = {t} with distance key 0.
      scratch_.push_back({0, slot, kInvalidEdge});
    } else {
      const auto nbrs = g.OutNeighbors(v);
      idx.build_stats_.adjacency_scanned += nbrs.size();
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
        scratch_.push_back({dt_w, slot_lookup_[w], e});
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
  return 0;
}

/// The direction rule of row a (slots [first, last)): bottom-up when its
/// admissible destinations' in-degrees, scanned twice, sum below its
/// slots' out-degrees, scanned once; the destination sum stops as soon as
/// it reaches that. True leaves the destinations in row_dests_, sorted by
/// (v'.t, vertex id).
template <typename GraphT>
bool IndexBuilder::PreferBottomUpRow(const GraphT& g, uint32_t k, uint32_t a,
                                     uint32_t first, uint32_t last,
                                     uint32_t target_slot) {
  if (a == k) return false;  // row k is at most t, whose entry is padding
  uint64_t top_down = 0;
  for (uint32_t slot = first; slot < last; ++slot) {
    if (slot != target_slot) top_down += g.OutDegree(x_vertices_[slot]);
  }
  // An out-edge of row a reaches v'.s <= a + 1 and may keep only
  // v'.t <= k - a - 1: the cells (a', b') with a' <= a + 1, b' < k - a.
  // Cell (0, *) is s alone, never a destination.
  row_dests_.clear();
  uint64_t bottom_up = 0;
  for (uint32_t b = 0; a + b < k; ++b) {
    for (uint32_t a2 = 1; a2 <= a + 1; ++a2) {
      const size_t c = static_cast<size_t>(a2) * (k + 1) + b;
      for (uint32_t slot = cell_offsets_[c]; slot < cell_offsets_[c + 1];
           ++slot) {
        if (2 * bottom_up >= top_down) return false;
        const VertexId w = x_vertices_[slot];
        bottom_up += g.InDegree(w);
        row_dests_.push_back(uint64_t{b} << 32 | w);
      }
    }
  }
  if (2 * bottom_up >= top_down) return false;
  std::sort(row_dests_.begin(), row_dests_.end());
  return true;
}

/// Row [first, last) of H_t from its destinations' in-lists (row_dests_),
/// in two passes over them: the first counts each slot's entries per key
/// into out_ends_, the second writes them straight into out_slots_ /
/// out_edge_ids_. Each slot receives its entries in destination order,
/// (v'.t, id) — the order TopDownRow leaves — so the result is the same
/// byte for byte. Polls control at the row start and every 4,096
/// destinations of each pass.
template <typename GraphT>
int IndexBuilder::BottomUpRow(const GraphT& g, const Options& opts,
                              uint32_t k, uint32_t first, uint32_t last,
                              LightweightIndex& idx) {
  const uint32_t row_len = last - first;
  const uint32_t t_slot = idx.target_slot_;
  const bool has_t = t_slot - first < row_len;
  // Calls emit(slot, w_slot, key, e) for every entry of the row: an
  // in-neighbour u of destination w whose slot lies in the row and passes
  // the filter. t's out-edges are skipped: its padding entry is its only
  // one. Edge ids as TopDownRow takes them (plain Graph only), looked up
  // when `with_ids` or the filter needs them.
  const auto for_each_entry = [&](bool with_ids, const auto& emit) -> int {
    const bool need_id = with_ids || opts.filter != nullptr;
    for (size_t i = 0; i < row_dests_.size(); ++i) {
      if ((i & 4095u) == 0) {
        fault::Hit(fault::Site::kIndexAdjacency);
        if (const int trip = ControlTrip(opts)) return trip;
      }
      const VertexId w = static_cast<VertexId>(row_dests_[i]);
      const uint32_t key = static_cast<uint32_t>(row_dests_[i] >> 32);
      const uint32_t w_slot = slot_lookup_[w];
      ScanInSpans(g, w, [&](std::span<const VertexId> nbrs) {
        idx.build_stats_.adjacency_scanned += nbrs.size();
        for (const VertexId u : nbrs) {
          const uint32_t slot = slot_lookup_[u];
          // kInvalidSlot - first is never below row_len.
          if (slot - first >= row_len || slot == t_slot) continue;
          EdgeId e = kInvalidEdge;
          if constexpr (std::is_same_v<GraphT, Graph>) {
            if (need_id) e = g.FindEdge(u, w);
          }
          if (opts.filter != nullptr && !(*opts.filter)(u, w, e)) continue;
          emit(slot, w_slot, key, e);
        }
        return false;
      });
    }
    return 0;
  };

  // Pass 1: per-slot counts per key, then prefix sums into the ends.
  if (const int trip = for_each_entry(
          false, [&](uint32_t slot, uint32_t, uint32_t key, EdgeId) {
            out_ends_[static_cast<size_t>(slot) * (k + 1) + key]++;
          })) {
    return trip;
  }
  if (has_t) out_ends_[static_cast<size_t>(t_slot) * (k + 1)] = 1;
  const uint64_t row_begin = out_slots_.size();
  uint64_t end = row_begin;
  for (uint32_t slot = first; slot < last; ++slot) {
    uint32_t* ends = &out_ends_[static_cast<size_t>(slot) * (k + 1)];
    for (uint32_t b = 1; b <= k; ++b) ends[b] += ends[b - 1];
    // out_begin_[slot + 1] holds the slot's start here and serves as its
    // write cursor in pass 2, which leaves it at the slot's end.
    out_begin_[slot + 1] = end;
    end += ends[k];
  }
  out_slots_.resize(end);
  if (opts.build_edge_ids) out_edge_ids_.resize(end);
  if (has_t) {
    const uint64_t at = out_begin_[t_slot + 1]++;
    out_slots_[at] = t_slot;
    if (opts.build_edge_ids) out_edge_ids_[at] = kInvalidEdge;
  }
  idx.num_out_edges_ += end - row_begin - (has_t ? 1 : 0);

  // Pass 2: each entry straight into its slot's next position.
  return for_each_entry(
      opts.build_edge_ids,
      [&](uint32_t slot, uint32_t w_slot, uint32_t, EdgeId e) {
        const uint64_t at = out_begin_[slot + 1]++;
        out_slots_[at] = w_slot;
        if (opts.build_edge_ids) out_edge_ids_[at] = e;
      });
}

// The three graph types an index is ever built over: the immutable CSR
// Graph, the live subsystem's versioned overlay snapshot and the shard
// router's union of pinned shard snapshots. Each instantiation inlines its
// own adjacency access into the BFS and adjacency-scan loops.
template LightweightIndex IndexBuilder::Build<Graph>(const Graph&,
                                                     const Query&,
                                                     const Options&);
template LightweightIndex IndexBuilder::Build<GraphView>(const GraphView&,
                                                         const Query&,
                                                         const Options&);
template LightweightIndex IndexBuilder::Build<UnionView>(const UnionView&,
                                                         const Query&,
                                                         const Options&);

}  // namespace pathenum
