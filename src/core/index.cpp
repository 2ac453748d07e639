#include "core/index.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "graph/view.h"
#include "obs/metrics.h"
#include "util/memory.h"
#include "util/timer.h"

namespace pathenum {

std::vector<VertexId> LightweightIndex::OutVerticesWithin(VertexId v,
                                                          uint32_t b) const {
  std::vector<VertexId> out;
  const uint32_t slot = SlotOf(v);
  if (slot == kInvalidSlot) return out;
  for (uint32_t s : OutSlotsWithin(slot, b)) out.push_back(VertexAt(s));
  return out;
}

std::vector<VertexId> LightweightIndex::InVerticesWithin(VertexId v,
                                                         uint32_t b) const {
  std::vector<VertexId> out;
  const uint32_t slot = SlotOf(v);
  if (slot == kInvalidSlot) return out;
  for (uint32_t s : InSlotsWithin(slot, b)) out.push_back(VertexAt(s));
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

bool FitsU16(const std::vector<uint32_t>& v) {
  for (const uint32_t x : v) {
    if (x > 0xffffu) return false;
  }
  return true;
}

/// Global build-stream metrics (DESIGN.md §12): every finished index
/// build — solo or batched-member, interrupted or not — feeds one counted
/// observation. The registry-owned handles resolve once; under
/// PATHENUM_OBS=0 they are no-op stubs and the whole call melts away.
void RecordBuildMetrics(const LightweightIndex::BuildStats& bs) {
  struct Handles {
    obs::MetricRegistry& reg = obs::MetricRegistry::Global();
    obs::RegCounter* solo = reg.GetCounter("pathenum_build_total",
                                           "kind=\"solo\"");
    obs::RegCounter* batched = reg.GetCounter("pathenum_build_total",
                                              "kind=\"batched\"");
    obs::RegCounter* interrupted =
        reg.GetCounter("pathenum_build_interrupted_total");
    obs::RegCounter* edges = reg.GetCounter("pathenum_build_edges_total");
    obs::RegHistogram* solo_ms = reg.GetHistogram("pathenum_build_ms",
                                                  "kind=\"solo\"");
    obs::RegHistogram* batched_ms = reg.GetHistogram("pathenum_build_ms",
                                                     "kind=\"batched\"");
  };
  static Handles h;
  (bs.batched ? h.batched : h.solo)->Inc();
  if (bs.interrupted) h.interrupted->Inc();
  h.edges->Inc(bs.edges_scanned);
  (bs.batched ? h.batched_ms : h.solo_ms)->Observe(bs.total_ms);
}

}  // namespace

void IndexBuilder::Fuse(LightweightIndex& idx, bool edge_ids,
                        bool in_direction, bool level_stats) {
  // The cumulative ends are bounded by the slot's (index) degree; narrow
  // the whole table to u16 when every count fits.
  const bool out_narrow = FitsU16(out_ends_);
  const bool in_narrow = in_direction && FitsU16(in_ends_);

  // Element sizes come from the staged vectors' own types (sizeof, exactly
  // what PlacePart copies), so the budget and the copy cannot diverge.
  // Arrays are laid out in descending alignment order (8 -> 4 -> 2 -> 1),
  // so no padding is ever needed between them.
  const auto bytes_of = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  size_t total = 0;
  total += bytes_of(out_begin_);
  if (in_direction) total += bytes_of(in_begin_);
  if (edge_ids) total += bytes_of(out_edge_ids_);
  if (level_stats) {
    total += bytes_of(level_it_sum_);
    total += bytes_of(level_count_);
  }
  total += bytes_of(x_vertices_);
  total += bytes_of(cell_offsets_);
  total += bytes_of(slot_lookup_);
  total += bytes_of(out_slots_);
  if (in_direction) total += bytes_of(in_slots_);
  total += out_ends_.size() * (out_narrow ? sizeof(uint16_t) : sizeof(uint32_t));
  if (in_direction) {
    total += in_ends_.size() * (in_narrow ? sizeof(uint16_t) : sizeof(uint32_t));
  }
  total += bytes_of(slot_ds_);
  total += bytes_of(slot_dt_);

  idx.slab_ = std::make_unique<std::byte[]>(total);
  idx.slab_bytes_ = total;
  std::byte* slab = idx.slab_.get();
  size_t off = 0;

  // 8-byte-aligned parts.
  idx.out_begin_ = PlacePart(slab, off, out_begin_);
  if (in_direction) idx.in_begin_ = PlacePart(slab, off, in_begin_);
  idx.edge_ids_built_ = edge_ids;
  if (edge_ids) idx.out_edge_ids_ = PlacePart(slab, off, out_edge_ids_);
  if (level_stats) {
    idx.level_it_sum_ = PlacePart(slab, off, level_it_sum_);
    idx.level_count_ = PlacePart(slab, off, level_count_);
  }
  // 4-byte.
  idx.x_vertices_ = PlacePart(slab, off, x_vertices_);
  idx.cell_offsets_ = PlacePart(slab, off, cell_offsets_);
  idx.slot_lookup_ = PlacePart(slab, off, slot_lookup_);
  idx.out_slots_ = PlacePart(slab, off, out_slots_);
  if (in_direction) idx.in_slots_ = PlacePart(slab, off, in_slots_);
  if (!out_narrow) idx.out_ends32_ = PlacePart(slab, off, out_ends_);
  if (in_direction && !in_narrow) {
    idx.in_ends32_ = PlacePart(slab, off, in_ends_);
  }
  // 2-byte.
  if (out_narrow) idx.out_ends16_ = PlacePart16(slab, off, out_ends_);
  if (in_direction && in_narrow) {
    idx.in_ends16_ = PlacePart16(slab, off, in_ends_);
  }
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
  slot_lookup_.clear();  // SlotOf falls through to kInvalidSlot
  out_begin_.assign(1, 0);
  out_ends_.clear();
  out_slots_.clear();
  out_edge_ids_.clear();
  in_slots_.clear();
  if (opts.build_in_direction) {
    in_begin_.assign(1, 0);
    in_ends_.clear();
  }
  if (opts.collect_level_stats) {
    level_it_sum_.assign(k, 0.0);
    level_count_.assign(k, 0);
  }
  idx.source_slot_ = kInvalidSlot;
  idx.target_slot_ = kInvalidSlot;
  idx.num_out_edges_ = 0;
  Fuse(idx, opts.build_edge_ids, opts.build_in_direction,
       opts.collect_level_stats);
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

  // --- Line 1 of Alg. 3: the two bounded BFS. ---------------------------
  // The backward pass runs first; the forward pass then admits only
  // vertices with v.s + v.t <= k. The pruning is exact (every vertex on a
  // shortest s->v path inherits the bound by the triangle inequality), so
  // the forward pass visits exactly X instead of the whole k-ball of s.
  {
    DistanceField::Options bwd;
    bwd.blocked = q.source;  // internal vertices avoid s
    bwd.max_depth = k;
    bwd.cancel = opts.cancel;
    bwd.deadline = opts.deadline;
    DistanceField::Options fwd;
    fwd.blocked = q.target;  // internal vertices avoid t
    fwd.max_depth = k;
    fwd.cancel = opts.cancel;
    fwd.deadline = opts.deadline;
    // The X-set admission check, inlined into the forward relaxation loop.
    const auto admit_x = [this, k](VertexId v, uint32_t dist) {
      const uint32_t dt = field_t_.Distance(v);
      return dt != kInfDistance && dist + dt <= k;
    };
    if (opts.filter == nullptr) {
      // Devirtualized hot path (the overwhelmingly common case): concrete
      // callables, zero std::function calls in either inner loop.
      field_t_.ComputeWith(g, Direction::kBackward, q.target, bwd,
                           AcceptAllEdges{}, AdmitAllVertices{});
      if (field_t_.interrupted() == DistanceField::Interrupt::kNone) {
        if (opts.prune_forward_bfs) {
          field_s_.ComputeWith(g, Direction::kForward, q.source, fwd,
                               AcceptAllEdges{}, admit_x);
        } else {
          field_s_.ComputeWith(g, Direction::kForward, q.source, fwd,
                               AcceptAllEdges{}, AdmitAllVertices{});
        }
      }
    } else {
      bwd.filter = opts.filter;
      field_t_.Compute(g, Direction::kBackward, q.target, bwd);
      if (field_t_.interrupted() == DistanceField::Interrupt::kNone) {
        const VertexAdmission admit = admit_x;
        fwd.filter = opts.filter;
        if (opts.prune_forward_bfs) fwd.admit = &admit;
        field_s_.Compute(g, Direction::kForward, q.source, fwd);
      }
    }
  }
  idx.build_stats_.bfs_ms = total_timer.ElapsedMs();
  idx.build_stats_.edges_scanned =
      field_t_.edges_scanned() + field_s_.edges_scanned();
  idx.build_stats_.batch_edges_scanned = idx.build_stats_.edges_scanned;
  idx.build_stats_.waves = field_t_.waves() + field_s_.waves();
  {
    // An interrupted pass left incomplete distances — discard them and
    // hand back the empty well-formed index.
    const DistanceField::Interrupt trip =
        field_t_.interrupted() != DistanceField::Interrupt::kNone
            ? field_t_.interrupted()
            : field_s_.interrupted();
    if (trip != DistanceField::Interrupt::kNone) {
      FinishInterrupted(idx, q, opts,
                        trip == DistanceField::Interrupt::kCancelled);
      idx.build_stats_.total_ms = total_timer.ElapsedMs();
      RecordBuildMetrics(idx.build_stats_);
      return idx;
    }
  }

  // With pruning, the forward pass reached exactly the X candidates;
  // without (ablation), scan the smaller of the two k-balls.
  const std::vector<VertexId>& cand =
      (opts.prune_forward_bfs ||
       field_s_.Reached().size() <= field_t_.Reached().size())
          ? field_s_.Reached()
          : field_t_.Reached();
  AssembleFrom(
      g, q, opts, cand,
      [this](VertexId v) { return field_s_.Distance(v); },
      [this](VertexId v) { return field_t_.Distance(v); }, idx, total_timer);
  RecordBuildMetrics(idx.build_stats_);
  return idx;
}

/// Everything below Alg. 3 line 1: partition, adjacency, level stats,
/// fuse. Shared verbatim between the solo Build and each BuildBatch
/// member — only the distance accessors differ.
template <typename GraphT, typename DistS, typename DistT>
void IndexBuilder::AssembleFrom(const GraphT& g, const Query& q,
                                const Options& opts,
                                const std::vector<VertexId>& cand,
                                const DistS& dist_s, const DistT& dist_t,
                                LightweightIndex& idx, Timer& total_timer) {
  const uint32_t k = q.hops;

  // Cooperative control poll (0 = none, 1 = cancel, 2 = deadline) for the
  // stretches between the BFS passes' own per-wave polls.
  const auto control_trip = [&opts]() -> int {
    if (opts.cancel != nullptr &&
        opts.cancel->load(std::memory_order_relaxed)) {
      return 1;
    }
    if (opts.deadline.Expired()) return 2;
    return 0;
  };

  // --- Lines 2-4: partition X by (v.s, v.t), v.s + v.t <= k. ------------
  const size_t num_cells = static_cast<size_t>(k + 1) * (k + 1);
  cell_offsets_.assign(num_cells + 1, 0);
  for (const VertexId v : cand) {
    const uint32_t ds = dist_s(v);
    const uint32_t dt = dist_t(v);
    if (ds == kInfDistance || dt == kInfDistance || ds + dt > k) continue;
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
      if (ds == kInfDistance || dt == kInfDistance || ds + dt > k) continue;
      const uint32_t slot =
          cell_cursor_[static_cast<size_t>(ds) * (k + 1) + dt]++;
      x_vertices_[slot] = v;
      slot_ds_[slot] = static_cast<uint8_t>(ds);
      slot_dt_[slot] = static_cast<uint8_t>(dt);
    }
  }
  slot_lookup_.assign(g.num_vertices(), kInvalidSlot);
  for (uint32_t slot = 0; slot < num_x; ++slot) {
    slot_lookup_[x_vertices_[slot]] = slot;
  }
  const auto slot_of = [&](VertexId v) { return slot_lookup_[v]; };
  idx.source_slot_ =
      q.source < slot_lookup_.size() ? slot_lookup_[q.source] : kInvalidSlot;
  idx.target_slot_ =
      q.target < slot_lookup_.size() ? slot_lookup_[q.target] : kInvalidSlot;

  // If s (equivalently t) fell out of X there is no result within k hops;
  // leave the adjacency empty but well-formed.
  out_begin_.assign(num_x + 1, 0);
  out_ends_.assign(static_cast<size_t>(num_x) * (k + 1), 0);
  out_slots_.clear();
  out_edge_ids_.clear();
  in_slots_.clear();
  if (opts.build_in_direction) {
    in_begin_.assign(num_x + 1, 0);
    in_ends_.assign(static_cast<size_t>(num_x) * (k + 1), 0);
  }
  if (opts.collect_level_stats) {
    level_it_sum_.assign(k, 0.0);
    level_count_.assign(k, 0);
  }

  // --- Lines 5-11: out-direction adjacency H_t, sorted by v'.t. ---------
  uint32_t key_counts[kMaxHops + 2];
  for (uint32_t slot = 0; slot < num_x; ++slot) {
    if ((slot & 4095u) == 0) {
      fault::Hit(fault::Site::kIndexAdjacency);
      if (const int trip = control_trip()) {
        FinishInterrupted(idx, q, opts, trip == 1);
        idx.build_stats_.total_ms = total_timer.ElapsedMs();
        return;
      }
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
        if (dt_w == kInfDistance || ds + dt_w + 1 > k) continue;
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

  // --- Symmetric in-direction adjacency H_s, sorted by v'.s. ------------
  if (opts.build_in_direction) {
    for (uint32_t slot = 0; slot < num_x; ++slot) {
      if ((slot & 4095u) == 0) {
        if (const int trip = control_trip()) {
          FinishInterrupted(idx, q, opts, trip == 1);
          idx.build_stats_.total_ms = total_timer.ElapsedMs();
          return;
        }
      }
      const VertexId v = x_vertices_[slot];
      const uint32_t dt = slot_dt_[slot];
      scratch_.clear();
      if (slot != idx.source_slot_) {  // H_s[s] is empty
        const auto nbrs = g.InNeighbors(v);
        for (size_t j = 0; j < nbrs.size(); ++j) {
          const VertexId w = nbrs[j];
          if (w == q.target) continue;  // t is never a tuple source...
          const uint32_t ds_w = dist_s(w);
          if (ds_w == kInfDistance || ds_w + dt + 1 > k) continue;
          if (opts.filter != nullptr) {
            const EdgeId e = g.FindEdge(w, v);
            if (!(*opts.filter)(w, v, e)) continue;
          }
          scratch_.push_back({ds_w, slot_of(w), kInvalidEdge});
        }
        if (slot == idx.target_slot_) {
          // ... except the (t,t) padding self-entry, keyed by t.s.
          scratch_.push_back({slot_ds_[slot], slot, kInvalidEdge});
        }
      }
      std::fill(key_counts, key_counts + k + 2, 0u);
      for (const ScratchEntry& e : scratch_) key_counts[e.key + 1]++;
      for (uint32_t b = 0; b <= k; ++b) key_counts[b + 1] += key_counts[b];
      const uint64_t begin = in_slots_.size();
      in_slots_.resize(begin + scratch_.size());
      {
        uint32_t place[kMaxHops + 2];
        std::copy(key_counts, key_counts + k + 2, place);
        for (const ScratchEntry& e : scratch_) {
          in_slots_[begin + place[e.key]++] = e.slot;
        }
      }
      in_begin_[slot + 1] = in_slots_.size();
      uint32_t* ends = &in_ends_[static_cast<size_t>(slot) * (k + 1)];
      for (uint32_t b = 0; b <= k; ++b) ends[b] = key_counts[b + 1];
    }
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
  Fuse(idx, opts.build_edge_ids, opts.build_in_direction,
       opts.collect_level_stats);

  idx.build_stats_.total_ms = total_timer.ElapsedMs();
}

template <typename GraphT>
std::vector<LightweightIndex> IndexBuilder::BuildBatch(
    const GraphT& g, const std::vector<BatchBuildRequest>& reqs,
    const Options& opts) {
  const size_t n = reqs.size();
  PATHENUM_CHECK(n >= 1 && n <= BatchedDistanceField::kMaxBatch);
  // Batched builds only serve cacheable queries, and predicate builds are
  // never cacheable (IndexOptionsFingerprint enforces the same upstream).
  PATHENUM_CHECK_MSG(opts.filter == nullptr,
                     "BuildBatch does not support edge filters");
  for (const BatchBuildRequest& r : reqs) ValidateQuery(g, r.query);

  Timer total_timer;

  // Per-member effective controls: the member's own cancel (falling back
  // to the shared one) and the earlier of the two deadlines.
  const auto member_cancel = [&](size_t m) {
    return reqs[m].cancel != nullptr ? reqs[m].cancel : opts.cancel;
  };
  const auto member_deadline = [&](size_t m) {
    return reqs[m].deadline.ExpiresBefore(opts.deadline) ? reqs[m].deadline
                                                         : opts.deadline;
  };

  // --- Backward fused sweep: sources are the targets, s blocked. --------
  batch_members_.clear();
  for (size_t m = 0; m < n; ++m) {
    BatchedDistanceField::Member mem;
    mem.source = reqs[m].query.target;
    mem.blocked = reqs[m].query.source;
    mem.max_depth = reqs[m].query.hops;
    mem.cancel = member_cancel(m);
    mem.deadline = member_deadline(m);
    batch_members_.push_back(mem);
  }
  batch_t_.Compute(g, Direction::kBackward, batch_members_);

  // --- Forward fused sweep: sources are the sources, t blocked, each
  // member admitted against its own backward field (v.s + v.t <= k). A
  // member already interrupted backward gets max_depth 0: its source is
  // seeded but nothing is expanded for it.
  batch_members_.clear();
  for (size_t m = 0; m < n; ++m) {
    BatchedDistanceField::Member mem;
    mem.source = reqs[m].query.source;
    mem.blocked = reqs[m].query.target;
    mem.max_depth =
        batch_t_.interrupted(static_cast<uint32_t>(m)) !=
                BatchedDistanceField::Interrupt::kNone
            ? 0
            : reqs[m].query.hops;
    mem.cancel = member_cancel(m);
    mem.deadline = member_deadline(m);
    batch_members_.push_back(mem);
  }
  if (opts.prune_forward_bfs) {
    const auto admit_x = [this, &reqs](uint32_t m, VertexId v,
                                       uint32_t dist) {
      const uint32_t dt = batch_t_.Distance(m, v);
      return dt != kInfDistance && dist + dt <= reqs[m].query.hops;
    };
    batch_s_.ComputeWith(g, Direction::kForward, batch_members_, admit_x);
  } else {
    batch_s_.Compute(g, Direction::kForward, batch_members_);
  }
  const double bfs_ms = total_timer.ElapsedMs();
  const uint64_t shared_edges =
      batch_t_.edges_scanned() + batch_s_.edges_scanned();
  const uint32_t shared_waves = batch_t_.waves() + batch_s_.waves();

  // --- Per-member assembly: identical to the solo path, reading the
  // member's rows of the fused fields. ----------------------------------
  std::vector<LightweightIndex> out(n);
  for (size_t m = 0; m < n; ++m) {
    const uint32_t mi = static_cast<uint32_t>(m);
    const Query& q = reqs[m].query;
    LightweightIndex& idx = out[m];
    idx.query_ = q;
    // The shared sweep time is attributed to every member (it is the wall
    // time any one of them waited for); the fusion win is measured by the
    // edge counters, not by dividing wall time.
    idx.build_stats_.bfs_ms = bfs_ms;
    idx.build_stats_.edges_scanned =
        batch_t_.covered_edges(mi) + batch_s_.covered_edges(mi);
    idx.build_stats_.batch_edges_scanned = shared_edges;
    idx.build_stats_.waves = shared_waves;
    idx.build_stats_.batched = true;

    Options mopts = opts;
    mopts.cancel = member_cancel(m);
    mopts.deadline = member_deadline(m);

    const auto trip = batch_t_.interrupted(mi) !=
                              BatchedDistanceField::Interrupt::kNone
                          ? batch_t_.interrupted(mi)
                          : batch_s_.interrupted(mi);
    if (trip != BatchedDistanceField::Interrupt::kNone) {
      FinishInterrupted(idx, q, mopts,
                        trip == BatchedDistanceField::Interrupt::kCancelled);
      idx.build_stats_.total_ms = total_timer.ElapsedMs();
      RecordBuildMetrics(idx.build_stats_);
      continue;
    }

    // Export the member's distances into dense L1-resident arrays
    // (sequential pass over the wave-ordered reached lists — no strided
    // K-wide matrix reads), so the assembly's many per-candidate-edge
    // lookups are a single unconditional load each, with 0xFFFF as the
    // unreached sentinel instead of the solo field's stamp check.
    constexpr uint16_t kUnreached16 = 0xFFFFu;
    const size_t nv = g.num_vertices();
    batch_dist_s_.assign(nv, kUnreached16);
    batch_dist_t_.assign(nv, kUnreached16);
    batch_s_.ExportDistances(mi, batch_dist_s_.data());
    batch_t_.ExportDistances(mi, batch_dist_t_.data());
    const uint16_t* const ds_arr = batch_dist_s_.data();
    const uint16_t* const dt_arr = batch_dist_t_.data();
    const std::vector<VertexId>& cand =
        (opts.prune_forward_bfs ||
         batch_s_.Reached(mi).size() <= batch_t_.Reached(mi).size())
            ? batch_s_.Reached(mi)
            : batch_t_.Reached(mi);
    AssembleFrom(
        g, q, mopts, cand,
        [ds_arr](VertexId v) {
          const uint16_t d = ds_arr[v];
          return d == kUnreached16 ? kInfDistance : uint32_t{d};
        },
        [dt_arr](VertexId v) {
          const uint16_t d = dt_arr[v];
          return d == kUnreached16 ? kInfDistance : uint32_t{d};
        },
        idx, total_timer);
    RecordBuildMetrics(idx.build_stats_);
  }
  return out;
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
template std::vector<LightweightIndex> IndexBuilder::BuildBatch<Graph>(
    const Graph&, const std::vector<BatchBuildRequest>&, const Options&);
template std::vector<LightweightIndex> IndexBuilder::BuildBatch<GraphView>(
    const GraphView&, const std::vector<BatchBuildRequest>&, const Options&);

}  // namespace pathenum
