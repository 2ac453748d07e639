// Bounded breadth-first-search distance fields.
//
// The light-weight index (paper Alg. 3, line 1) needs, per query,
//   v.s = S(s, v | G - {t})   and   v.t = S(v, t | G - {s}),
// i.e. shortest-walk distances whose *internal* vertices avoid the other
// query endpoint, but only on X = {v : v.s + v.t <= k}. `DistanceField` is
// one bounded BFS with a "blocked" vertex that is assigned a distance when
// reached but never expanded. `TwoSidedField` gets both distances on X by
// meeting in the middle — two half-depth balls, then levels that admit
// only X, each run top-down from its frontier or bottom-up from its known
// candidates, whichever its degree sums price lower — and is what
// IndexBuilder runs.
//
// Buffers are epoch-stamped so a field can be reused across thousands of
// queries with O(frontier) cost instead of O(|V|) re-initialisation.
//
// DistanceField has two entry points: `Compute` takes the std::function-
// based BfsOptions filters (stable public API), while the templated
// `ComputeWith` accepts concrete callables that inline into the relaxation
// loop, so the unfiltered case performs zero indirect calls per edge.
// Both fields read in-neighbours through ScanInSpans, so a graph type may
// hold a vertex's in-list as several spans (UnionView, graph/union_view.h).
#ifndef PATHENUM_GRAPH_BFS_H_
#define PATHENUM_GRAPH_BFS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
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

/// Calls scan(nbrs) on the spans that together hold v's in-neighbours, in
/// turn, until scan returns true; returns whether it did. A Graph or
/// GraphView holds them as one sorted span, so this is one InNeighbors
/// call; a graph type with split in-lists overloads it (UnionView).
template <typename GraphT, typename Scan>
bool ScanInSpans(const GraphT& g, VertexId v, Scan&& scan) {
  return scan(g.InNeighbors(v));
}

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
/// Graph accessor contract (`num_vertices`, sorted `OutNeighbors` spans,
/// in-neighbours through ScanInSpans, `OutEdgeId`, `FindEdge`) works — the
/// immutable `Graph`, the live subsystem's `GraphView` overlay snapshots
/// (graph/view.h) and the shard router's `UnionView`, each instantiating
/// its own inlined relaxation loop.
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
      // Relaxes one span of u's neighbours; true once stop_at is reached.
      const auto relax = [&](std::span<const VertexId> nbrs) {
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
          if (v == opts.stop_at) return true;
        }
        return false;
      };
      if (dir == Direction::kForward ? relax(g.OutNeighbors(u))
                                     : ScanInSpans(g, u, relax)) {
        return;
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
/// An X-only level at depth d knows its candidates before it runs: the
/// other side's reached vertices within k - d of the other root, a prefix
/// of that side's BFS-ordered list. It runs bottom-up — each unreached
/// candidate scans its reverse adjacency until it meets an expandable
/// vertex of depth d - 1 — when those candidates' reverse degrees sum
/// below the expandable frontier's forward degrees, and top-down
/// otherwise. Both admit the same set; only the order of the level in
/// the reached list differs.
///
/// Each vertex has one epoch-stamped 8-byte record (stamp, v.s, v.t), so a
/// query touches two half-depth balls plus what its X-only levels scan and
/// never pays O(|V|). An unset distance reads as kUnset — above any hop
/// bound — without a branch, so `FromSource(v) + ToTarget(v) <= k` alone
/// tests membership in X.
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
    const auto out_edges = [&](VertexId u, const auto& visit) -> size_t {
      const auto nbrs = g.OutNeighbors(u);
      for (size_t j = 0; j < nbrs.size(); ++j) {
        if constexpr (kHasFilter) {
          if (!filter(u, nbrs[j], g.OutEdgeId(u, j))) continue;
        }
        if (visit(nbrs[j])) return j + 1;
      }
      return nbrs.size();
    };
    const auto in_edges = [&](VertexId u, const auto& visit) -> size_t {
      size_t scanned = 0;
      ScanInSpans(g, u, [&](std::span<const VertexId> nbrs) {
        for (size_t j = 0; j < nbrs.size(); ++j) {
          if constexpr (kHasFilter) {
            if (!filter(nbrs[j], u, g.FindEdge(nbrs[j], u))) continue;
          }
          if (visit(nbrs[j])) {
            scanned += j + 1;
            return true;
          }
        }
        scanned += nbrs.size();
        return false;
      });
      return scanned;
    };
    ComputeWith(
        g.num_vertices(), opts, out_edges, in_edges,
        [&](VertexId u) -> size_t { return g.OutDegree(u); },
        [&](VertexId u) -> size_t { return g.InDegree(u); });
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

  /// Adjacency entries examined by the last Compute: a top-down level adds
  /// each expanded vertex's full neighbour-span length, filtered or not; a
  /// bottom-up level adds the entries each candidate's scan examined up to
  /// its early exit.
  uint64_t edges_scanned() const { return edges_scanned_; }

  /// Levels expanded by the last Compute, both sides.
  uint32_t waves() const { return waves_; }

  /// Of those, the levels that admit only X, and how many of them ran
  /// bottom-up.
  uint32_t x_only_levels() const { return x_only_levels_; }
  uint32_t bottom_up_levels() const { return bottom_up_levels_; }

 private:
  /// Compute over the adjacency as callables: `out_edges(u, visit)` calls
  /// visit(v) for every out-neighbour v of u the traversal may use until
  /// visit returns true, and returns the adjacency entries it examined up
  /// to there; `in_edges` likewise for in-neighbours. `out_degree(u)` /
  /// `in_degree(u)` return the entries a full scan of u examines; they
  /// price each X-only level's direction.
  template <typename OutEdges, typename InEdges, typename OutDegree,
            typename InDegree>
  void ComputeWith(VertexId num_vertices, const Options& opts,
                   const OutEdges& out_edges, const InEdges& in_edges,
                   const OutDegree& out_degree, const InDegree& in_degree) {
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
    x_only_levels_ = 0;
    bottom_up_levels_ = 0;
    const uint32_t k = opts.hops;
    const VertexId s = opts.source;
    const VertexId t = opts.target;
    from_s_.Start(s, t);
    to_t_.Start(t, s);
    records_[t] = {epoch_, kUnset, 0};
    records_[s] = {epoch_, 0, kUnset};

    const auto forward = [&](uint32_t admit_all_below) {
      return ExpandLevel<true>(from_s_, to_t_, admit_all_below, k, out_edges,
                               out_degree, in_edges, in_degree, opts);
    };
    const auto backward = [&](uint32_t admit_all_below) {
      return ExpandLevel<false>(to_t_, from_s_, admit_all_below, k, in_edges,
                                in_degree, out_edges, out_degree, opts);
    };
    const uint32_t b = k / 2;
    const uint32_t a = k - b;
    // Stage 1 admits all of depth b; stage 3 expands that level only
    // through X.
    while (to_t_.depth() < b && to_t_.frontier() != 0) {
      if (!backward(b + 1)) return;
    }
    while (from_s_.depth() < k && from_s_.frontier() != 0) {
      if (!forward(a)) return;
    }
    while (to_t_.depth() < k && to_t_.frontier() != 0) {
      if (!backward(b)) return;
    }
  }

  struct Record {
    uint32_t stamp = 0;
    uint16_t ds = 0;
    uint16_t dt = 0;
  };
  static_assert(sizeof(Record) == 8);

  struct Side {
    void Start(VertexId root, VertexId blocked_vertex) {
      reached.assign(1, root);
      level_starts.assign(1, 0);
      blocked = blocked_vertex;
    }
    /// The deepest level's distance from the root; it is not yet expanded.
    uint32_t depth() const {
      return static_cast<uint32_t>(level_starts.size() - 1);
    }
    size_t frontier() const { return reached.size() - level_starts.back(); }
    /// End of the prefix of `reached` within depth j of the root.
    size_t PrefixEnd(uint32_t j) const {
      return j < depth() ? level_starts[j + 1] : reached.size();
    }
    std::vector<VertexId> reached;      // BFS order; the root first
    std::vector<size_t> level_starts;   // where each depth begins in reached
    VertexId blocked = kInvalidVertex;  // reached, never expanded
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

  /// Expands the deepest level of `side` (depth du) into depth d = du + 1
  /// after one control poll. When du >= `admit_all_below`, a level vertex
  /// other than the root is expanded only if it lies in X; a vertex found
  /// at depth d joins when d < `admit_all_below` or it lies in X. A
  /// rejected vertex is not written. `edges`/`degree` follow the side's
  /// direction, `reverse_edges`/`reverse_degree` the other one. Returns
  /// false on a control trip.
  template <bool kFromSource, typename Edges, typename Degree,
            typename ReverseEdges, typename ReverseDegree>
  bool ExpandLevel(Side& side, const Side& other, uint32_t admit_all_below,
                   uint32_t k, const Edges& edges, const Degree& degree,
                   const ReverseEdges& reverse_edges,
                   const ReverseDegree& reverse_degree, const Options& opts) {
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
    const uint32_t du = side.depth();
    const uint32_t d = du + 1;
    const bool expand_x_only = du >= admit_all_below;
    const bool admit_x_only = d >= admit_all_below;
    const VertexId root = side.reached[0];
    const size_t begin = side.level_starts.back();
    const size_t end = side.reached.size();
    side.level_starts.push_back(end);
    const auto expandable = [&](VertexId u) {
      return u != side.blocked &&
             (!expand_x_only || u == root ||
              du + Other<kFromSource>(records_[u]) <= k);
    };

    if (admit_x_only) {
      ++x_only_levels_;
      if (PreferBottomUp<kFromSource>(side, other, begin, end, k - d,
                                      expandable, degree, reverse_degree)) {
        ++bottom_up_levels_;
        // Every candidate is stamped and within k - d of the other root.
        for (const VertexId v : pending_) {
          bool met = false;
          edges_scanned_ += reverse_edges(v, [&](VertexId u) {
            Record& r = records_[u];
            met = (Mine<kFromSource>(r) | StaleMask(r)) == du && expandable(u);
            return met;
          });
          if (!met) continue;
          Mine<kFromSource>(records_[v]) = static_cast<uint16_t>(d);
          side.reached.push_back(v);
        }
        return true;
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const VertexId u = side.reached[i];
      if (!expandable(u)) continue;
      edges_scanned_ += edges(u, [&](VertexId v) {
        Record& r = records_[v];
        const uint32_t stale = StaleMask(r);
        if ((Mine<kFromSource>(r) | stale) != kUnset) return false;  // reached
        if (admit_x_only && d + (Other<kFromSource>(r) | stale) > k) {
          return false;
        }
        if (stale != 0) r = {epoch_, kUnset, kUnset};
        Mine<kFromSource>(r) = static_cast<uint16_t>(d);
        side.reached.push_back(v);
        return false;
      });
    }
    return true;
  }

  /// The direction rule of an X-only level. Its candidates are `other`'s
  /// reached vertices within `other_depth` of their root; top-down scans
  /// the expandable frontier's full spans, bottom-up at most the unreached
  /// candidates' reverse spans. True (with those candidates in pending_)
  /// when bottom-up's bound is the smaller.
  template <bool kFromSource, typename Expandable, typename Degree,
            typename ReverseDegree>
  bool PreferBottomUp(const Side& side, const Side& other, size_t begin,
                      size_t end, uint32_t other_depth,
                      const Expandable& expandable, const Degree& degree,
                      const ReverseDegree& reverse_degree) {
    uint64_t top_down = 0;
    for (size_t i = begin; i < end; ++i) {
      const VertexId u = side.reached[i];
      if (expandable(u)) top_down += degree(u);
    }
    pending_.clear();
    uint64_t bottom_up = 0;
    const size_t cand_end = other.PrefixEnd(other_depth);
    for (size_t i = 0; i < cand_end && bottom_up < top_down; ++i) {
      const VertexId v = other.reached[i];
      if (Mine<kFromSource>(records_[v]) != kUnset) continue;  // reached
      bottom_up += reverse_degree(v);
      pending_.push_back(v);
    }
    return bottom_up < top_down;
  }

  void EnsureSize(size_t n);

  std::vector<Record> records_;
  Side from_s_;
  Side to_t_;
  std::vector<VertexId> pending_;  // a bottom-up level's unreached candidates
  uint32_t epoch_ = 0;
  Interrupt interrupted_ = Interrupt::kNone;
  uint64_t edges_scanned_ = 0;
  uint32_t waves_ = 0;
  uint32_t x_only_levels_ = 0;
  uint32_t bottom_up_levels_ = 0;
};

/// True iff a path from `from` to `to` of length <= `max_depth` exists.
/// Convenience wrapper used by the workload generator (dist(s,t) <= 3).
bool WithinDistance(const Graph& g, VertexId from, VertexId to,
                    uint32_t max_depth);

}  // namespace pathenum

#endif  // PATHENUM_GRAPH_BFS_H_
