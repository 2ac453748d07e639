// Bounded breadth-first-search distance fields.
//
// The light-weight index (paper Alg. 3, line 1) needs, per query,
//   v.s = S(s, v | G - {t})   and   v.t = S(v, t | G - {s}),
// i.e. shortest-walk distances whose *internal* vertices avoid the other
// query endpoint, but only on X = {v : v.s + v.t <= k}. `DistanceField` is
// one bounded BFS with a "blocked" vertex that is assigned a distance when
// reached but never expanded. `TwoSidedField` gets both distances on X by
// meeting in the middle — two half-depth balls plus X's neighbourhoods
// instead of a whole k-ball — and is what IndexBuilder and the shard
// router's plan run.
//
// Buffers are epoch-stamped so a field can be reused across thousands of
// queries with O(frontier) cost instead of O(|V|) re-initialisation.
//
// DistanceField has two entry points: `Compute` takes the std::function-
// based BfsOptions filters (stable public API), while the templated
// `ComputeWith` accepts concrete callables that inline into the relaxation
// loop, so the unfiltered case performs zero indirect calls per edge.
#ifndef PATHENUM_GRAPH_BFS_H_
#define PATHENUM_GRAPH_BFS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "util/common.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace pathenum {

/// Which adjacency to follow.
enum class Direction {
  kForward,   // follow out-edges: distances *from* the source
  kBackward,  // follow in-edges: distances *to* the source
};

/// Optional edge filter for predicate-constrained queries (Appendix E).
/// Receives the edge in graph orientation (u -> v) and its edge id; returns
/// false to make the edge invisible to the traversal.
using EdgeFilter = std::function<bool(VertexId u, VertexId v, EdgeId e)>;

/// Sentinel filter for ComputeWith/TwoSidedField::Compute: the compiler
/// folds the always-true branch away, so the unfiltered traversal never
/// computes edge ids and performs no per-edge calls at all.
struct AcceptAllEdges {
  constexpr bool operator()(VertexId, VertexId, EdgeId) const { return true; }
};

/// Traversal options for DistanceField::Compute.
struct BfsOptions {
  /// Vertex assigned a distance when reached but never expanded
  /// (kInvalidVertex: none). Models "internal vertices avoid this vertex".
  VertexId blocked = kInvalidVertex;
  /// Depth cap; vertices farther than this stay unreached.
  uint32_t max_depth = kInfDistance;
  /// Stop the traversal as soon as this vertex is assigned a distance
  /// (kInvalidVertex: run to exhaustion). Used by reachability probes.
  VertexId stop_at = kInvalidVertex;
  /// Optional edge filter; null means all edges are visible.
  const EdgeFilter* filter = nullptr;
  /// Cooperative controls, polled once per BFS wave (frontier depth): the
  /// raw flag of a CancelToken (core/control.h) and a wall-clock deadline.
  /// On a trip the traversal stops mid-wave and `interrupted()` reports
  /// which control fired — distances computed so far are incomplete and
  /// must not be used (the index builder discards them).
  const std::atomic<bool>* cancel = nullptr;
  Deadline deadline = Deadline::Unlimited();
};

/// Reusable BFS distance field.
///
/// Traversals are templated over the graph type: anything exposing the
/// Graph accessor contract (`num_vertices`, sorted `OutNeighbors` /
/// `InNeighbors` spans, `OutEdgeId`, `FindEdge`) works — in practice the
/// immutable `Graph` and the live subsystem's `GraphView` overlay snapshots
/// (graph/view.h), each instantiating its own inlined relaxation loop.
class DistanceField {
 public:
  using Options = BfsOptions;

  /// Which BfsOptions control stopped the last Compute early (kNone: it
  /// ran to exhaustion).
  enum class Interrupt : uint8_t { kNone, kCancelled, kDeadline };

  DistanceField() = default;

  /// Runs a BFS from `source` over `g` in direction `dir`. Invalidates the
  /// result of any previous Compute on this object. Dispatches once on the
  /// presence of `opts.filter`, so the std::function cost is only paid when
  /// a filter is actually installed.
  template <typename GraphT>
  void Compute(const GraphT& g, Direction dir, VertexId source,
               const Options& opts = {}) {
    if (opts.filter != nullptr) {
      ComputeWith(g, dir, source, opts, *opts.filter);
    } else {
      ComputeWith(g, dir, source, opts, AcceptAllEdges{});
    }
  }

  /// Devirtualized traversal: `filter` is a concrete callable (EdgeFilter's
  /// signature) inlined into the relaxation loop; `opts.filter` is ignored
  /// here. Pass AcceptAllEdges for the unrestricted branch-free path.
  template <typename GraphT, typename FilterFn>
  void ComputeWith(const GraphT& g, Direction dir, VertexId source,
                   const Options& opts, FilterFn&& filter) {
    PATHENUM_CHECK(source < g.num_vertices());
    EnsureSize(g.num_vertices());
    if (++epoch_ == 0) {  // stamp wrap-around: reset and restart epochs
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    reached_.clear();
    interrupted_ = Interrupt::kNone;
    edges_scanned_ = 0;
    waves_ = 0;

    stamp_[source] = epoch_;
    dist_[source] = 0;
    reached_.push_back(source);
    waves_ = 1;
    if (source == opts.stop_at) return;

    constexpr bool kHasFilter =
        !std::is_same_v<std::decay_t<FilterFn>, AcceptAllEdges>;

    // `reached_` doubles as the FIFO queue: BFS order is non-decreasing in
    // distance, so scanning it front-to-back visits each frontier in turn.
    uint32_t polled_depth = 0;
    for (size_t head = 0; head < reached_.size(); ++head) {
      const VertexId u = reached_[head];
      const uint32_t du = dist_[u];
      if (du != polled_depth) {
        // Per-wave control poll: distances are non-decreasing along
        // `reached_`, so this fires exactly once per frontier.
        polled_depth = du;
        ++waves_;
        fault::Hit(fault::Site::kIndexBuildWave);
        if (opts.cancel != nullptr &&
            opts.cancel->load(std::memory_order_relaxed)) {
          interrupted_ = Interrupt::kCancelled;
          return;
        }
        if (opts.deadline.Expired()) {
          interrupted_ = Interrupt::kDeadline;
          return;
        }
      }
      if (du >= opts.max_depth) continue;  // children would exceed the cap
      if (u == opts.blocked && u != source) continue;  // reached, unexpanded
      const auto nbrs =
          dir == Direction::kForward ? g.OutNeighbors(u) : g.InNeighbors(u);
      edges_scanned_ += nbrs.size();
      for (size_t j = 0; j < nbrs.size(); ++j) {
        const VertexId v = nbrs[j];
        if (stamp_[v] == epoch_) continue;
        if constexpr (kHasFilter) {
          // Present the edge in graph orientation regardless of direction.
          const VertexId from = dir == Direction::kForward ? u : v;
          const VertexId to = dir == Direction::kForward ? v : u;
          const EdgeId e = dir == Direction::kForward ? g.OutEdgeId(u, j)
                                                      : g.FindEdge(v, u);
          if (!filter(from, to, e)) continue;
        }
        stamp_[v] = epoch_;
        dist_[v] = du + 1;
        reached_.push_back(v);
        if (v == opts.stop_at) return;
      }
    }
  }

  /// Distance of `v` from/to the source, or kInfDistance if unreached.
  uint32_t Distance(VertexId v) const {
    return (v < stamp_.size() && stamp_[v] == epoch_) ? dist_[v]
                                                      : kInfDistance;
  }

  /// Vertices reached by the last Compute, in BFS order (source first).
  const std::vector<VertexId>& Reached() const { return reached_; }

  Interrupt interrupted() const { return interrupted_; }

  /// Adjacency entries examined by the last Compute (each expanded vertex
  /// contributes its full neighbor-span length, filtered or not).
  uint64_t edges_scanned() const { return edges_scanned_; }

  /// Distinct BFS depths reached by the last Compute (source wave included).
  uint32_t waves() const { return waves_; }

 private:
  void EnsureSize(size_t n);

  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> dist_;
  std::vector<VertexId> reached_;  // doubles as the BFS queue
  uint32_t epoch_ = 0;
  Interrupt interrupted_ = Interrupt::kNone;
  uint64_t edges_scanned_ = 0;
  uint32_t waves_ = 0;
};

/// Exact v.s and v.t on X = {v : v.s + v.t <= k} for one query (s, t, k),
/// by meeting in the middle (DESIGN.md §1). With b = ⌊k/2⌋ and a = k - b:
///   1. backward from t to depth b, admitting every vertex;
///   2. forward from s to depth k, admitting every vertex below depth a and
///      beyond it only X (d + v.t <= k, v.t from stage 1);
///   3. backward on from t's depth-b level to depth k, through X only
///      (v.s from stage 2).
/// A vertex of X at depth d >= a from s has v.t <= k - d <= b, so stage 1
/// already holds its exact v.t (symmetrically for stage 3), and every
/// vertex on a shortest path to a vertex of X is itself in X, so each
/// X-only level is exact on X. A stamped distance is always exact; a
/// vertex outside X may stay unset. The split is fixed: a side whose
/// frontier empties early does not change the other side's stages.
///
/// Each vertex has one epoch-stamped 8-byte record (stamp, v.s, v.t), so a
/// query touches two half-depth balls plus X's neighbourhoods and never
/// pays O(|V|). An unset distance reads as kUnset — above any hop bound —
/// without a branch, so `FromSource(v) + ToTarget(v) <= k` alone tests
/// membership in X.
///
/// Every expanded level polls `cancel`/`deadline` and hits
/// fault::Site::kIndexBuildWave; on a trip `interrupted()` reports which
/// control fired and the distances must not be used.
class TwoSidedField {
 public:
  using Interrupt = DistanceField::Interrupt;

  /// What an unset distance reads as.
  static constexpr uint32_t kUnset = 0xFFFF;

  struct Options {
    VertexId source = kInvalidVertex;
    VertexId target = kInvalidVertex;
    uint32_t hops = 0;
    /// The index's semantics: the forward side reaches t but never expands
    /// it, the backward side likewise s. The router's plan needs plain
    /// distances and turns this off.
    bool block_endpoints = true;
    const std::atomic<bool>* cancel = nullptr;
    Deadline deadline = Deadline::Unlimited();
  };

  /// Runs the three stages over a type with the Graph accessor contract
  /// (see DistanceField). `filter` is an EdgeFilter-shaped callable, or
  /// AcceptAllEdges for the unfiltered, branch-free loop.
  template <typename GraphT, typename FilterFn>
  void Compute(const GraphT& g, const Options& opts, FilterFn&& filter) {
    constexpr bool kHasFilter =
        !std::is_same_v<std::decay_t<FilterFn>, AcceptAllEdges>;
    const auto out_edges = [&](VertexId u, const auto& visit) {
      const auto nbrs = g.OutNeighbors(u);
      for (size_t j = 0; j < nbrs.size(); ++j) {
        if constexpr (kHasFilter) {
          if (!filter(u, nbrs[j], g.OutEdgeId(u, j))) continue;
        }
        visit(nbrs[j]);
      }
      return nbrs.size();
    };
    const auto in_edges = [&](VertexId u, const auto& visit) {
      const auto nbrs = g.InNeighbors(u);
      for (const VertexId v : nbrs) {
        if constexpr (kHasFilter) {
          if (!filter(v, u, g.FindEdge(v, u))) continue;
        }
        visit(v);
      }
      return nbrs.size();
    };
    ComputeWith(g.num_vertices(), opts, out_edges, in_edges);
  }

  /// As Compute, over any adjacency: `out_edges(u, visit)` calls visit(v)
  /// for every out-neighbour v of u the traversal may use and returns the
  /// adjacency entries it examined; `in_edges` likewise for in-neighbours.
  template <typename OutEdges, typename InEdges>
  void ComputeWith(VertexId num_vertices, const Options& opts,
                   const OutEdges& out_edges, const InEdges& in_edges) {
    PATHENUM_CHECK(opts.source < num_vertices && opts.target < num_vertices);
    PATHENUM_CHECK(opts.source != opts.target && opts.hops < kUnset);
    EnsureSize(num_vertices);
    if (++epoch_ == 0) {  // stamp wrap-around: reset and restart epochs
      std::fill(records_.begin(), records_.end(), Record{});
      epoch_ = 1;
    }
    interrupted_ = Interrupt::kNone;
    edges_scanned_ = 0;
    waves_ = 0;
    const uint32_t k = opts.hops;
    const VertexId s = opts.source;
    const VertexId t = opts.target;
    from_s_.Start(s);
    to_t_.Start(t);
    records_[t] = {epoch_, kUnset, 0};
    records_[s] = {epoch_, 0, kUnset};

    const VertexId s_blocked = opts.block_endpoints ? s : kInvalidVertex;
    const VertexId t_blocked = opts.block_endpoints ? t : kInvalidVertex;
    const auto forward = [&](uint32_t admit_all_below) {
      return ExpandLevel<true>(from_s_, s, t_blocked, admit_all_below, k,
                               out_edges, opts);
    };
    const auto backward = [&](uint32_t admit_all_below) {
      return ExpandLevel<false>(to_t_, t, s_blocked, admit_all_below, k,
                                in_edges, opts);
    };
    const uint32_t b = k / 2;
    const uint32_t a = k - b;
    // Stage 1 admits all of depth b; stage 3 expands that level only
    // through X.
    while (to_t_.depth < b && to_t_.frontier() != 0) {
      if (!backward(b + 1)) return;
    }
    while (from_s_.depth < k && from_s_.frontier() != 0) {
      if (!forward(a)) return;
    }
    while (to_t_.depth < k && to_t_.frontier() != 0) {
      if (!backward(b)) return;
    }
  }

  /// v.s, or kUnset.
  uint32_t FromSource(VertexId v) const {
    const Record r = records_[v];
    return r.ds | StaleMask(r);
  }

  /// v.t, or kUnset.
  uint32_t ToTarget(VertexId v) const {
    const Record r = records_[v];
    return r.dt | StaleMask(r);
  }

  /// Vertices given a distance from s / to t, in BFS order (root first).
  /// Each list holds all of X.
  const std::vector<VertexId>& ReachedFromSource() const {
    return from_s_.reached;
  }
  const std::vector<VertexId>& ReachedToTarget() const {
    return to_t_.reached;
  }

  Interrupt interrupted() const { return interrupted_; }

  /// Adjacency entries examined by the last Compute (each expanded vertex
  /// contributes its full neighbour-span length, filtered or not).
  uint64_t edges_scanned() const { return edges_scanned_; }

  /// Levels expanded by the last Compute, both sides.
  uint32_t waves() const { return waves_; }

 private:
  struct Record {
    uint32_t stamp = 0;
    uint16_t ds = 0;
    uint16_t dt = 0;
  };
  static_assert(sizeof(Record) == 8);

  struct Side {
    void Start(VertexId root) {
      reached.assign(1, root);
      level_begin = 0;
      depth = 0;
    }
    /// The deepest level, not yet expanded.
    size_t frontier() const { return reached.size() - level_begin; }
    std::vector<VertexId> reached;  // BFS order; the deepest level last
    size_t level_begin = 0;         // the deepest level is reached[this..]
    uint32_t depth = 0;             // its distance from the side's root
  };

  /// All-ones over a distance when the record predates this epoch.
  uint32_t StaleMask(const Record& r) const {
    return r.stamp == epoch_ ? 0u : kUnset;
  }

  template <bool kFromSource>
  static uint16_t& Mine(Record& r) {
    return kFromSource ? r.ds : r.dt;
  }
  template <bool kFromSource>
  static uint32_t Other(const Record& r) {
    return kFromSource ? r.dt : r.ds;
  }

  /// Expands the deepest level of `side` (depth d) after one control poll.
  /// When d >= `admit_all_below`, a level vertex other than the root is
  /// expanded only if it lies in X; a vertex found at depth d + 1 joins
  /// when d + 1 < `admit_all_below` or it lies in X. A rejected vertex is
  /// not written. Returns false on a control trip.
  template <bool kFromSource, typename Edges>
  bool ExpandLevel(Side& side, VertexId root, VertexId blocked,
                   uint32_t admit_all_below, uint32_t k, const Edges& edges,
                   const Options& opts) {
    ++waves_;
    fault::Hit(fault::Site::kIndexBuildWave);
    if (opts.cancel != nullptr &&
        opts.cancel->load(std::memory_order_relaxed)) {
      interrupted_ = Interrupt::kCancelled;
      return false;
    }
    if (opts.deadline.Expired()) {
      interrupted_ = Interrupt::kDeadline;
      return false;
    }
    const uint32_t du = side.depth;
    const uint32_t d = du + 1;
    const bool expand_x_only = du >= admit_all_below;
    const bool admit_x_only = d >= admit_all_below;
    const size_t end = side.reached.size();
    for (size_t i = side.level_begin; i < end; ++i) {
      const VertexId u = side.reached[i];
      if (u == blocked) continue;  // reached, never expanded
      if (expand_x_only && u != root &&
          du + Other<kFromSource>(records_[u]) > k) {
        continue;
      }
      edges_scanned_ += edges(u, [&](VertexId v) {
        Record& r = records_[v];
        const uint32_t stale = StaleMask(r);
        if ((Mine<kFromSource>(r) | stale) != kUnset) return;  // reached
        if (admit_x_only && d + (Other<kFromSource>(r) | stale) > k) return;
        if (stale != 0) r = {epoch_, kUnset, kUnset};
        Mine<kFromSource>(r) = static_cast<uint16_t>(d);
        side.reached.push_back(v);
      });
    }
    side.level_begin = end;
    side.depth = d;
    return true;
  }

  void EnsureSize(size_t n);

  std::vector<Record> records_;
  Side from_s_;
  Side to_t_;
  uint32_t epoch_ = 0;
  Interrupt interrupted_ = Interrupt::kNone;
  uint64_t edges_scanned_ = 0;
  uint32_t waves_ = 0;
};

/// True iff a path from `from` to `to` of length <= `max_depth` exists.
/// Convenience wrapper used by the workload generator (dist(s,t) <= 3).
bool WithinDistance(const Graph& g, VertexId from, VertexId to,
                    uint32_t max_depth);

}  // namespace pathenum

#endif  // PATHENUM_GRAPH_BFS_H_
