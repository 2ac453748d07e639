// Shared fixtures and helpers for the PathEnum test suite.
#ifndef PATHENUM_TESTS_TEST_UTIL_H_
#define PATHENUM_TESTS_TEST_UTIL_H_

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/algorithm.h"
#include "core/index.h"
#include "core/query.h"
#include "core/sink.h"
#include "graph/builder.h"
#include "graph/graph.h"

namespace pathenum::testing {

/// Canonical representation of a result set: paths as sorted set.
using PathSet = std::set<std::vector<VertexId>>;

inline PathSet ToSet(const std::vector<std::vector<VertexId>>& paths) {
  return PathSet(paths.begin(), paths.end());
}

/// Runs `algorithm` on q and returns the result set.
inline PathSet CollectPaths(BoundAlgorithm& algorithm, const Query& q,
                            const EnumOptions& opts = {}) {
  CollectingSink sink;
  algorithm.Run(q, sink, opts);
  return ToSet(sink.paths());
}

// ---------------------------------------------------------------------------
// The paper's running example (Figure 1a). Vertex numbering:
//   s = 0, v0..v7 = 1..8, t = 9.
// Edges reconstructed from the relations in Figure 3a; v7 dangles off v6
// (it is the vertex every pruning technique must exclude, Example D.1).
// ---------------------------------------------------------------------------
inline constexpr VertexId kS = 0;
inline constexpr VertexId kT = 9;
inline constexpr VertexId kV0 = 1, kV1 = 2, kV2 = 3, kV3 = 4, kV4 = 5,
                          kV5 = 6, kV6 = 7, kV7 = 8;

inline Graph PaperExampleGraph() {
  GraphBuilder b(10);
  // R1 of Figure 3a: out-edges of s.
  b.AddEdge(kS, kV0);
  b.AddEdge(kS, kV1);
  b.AddEdge(kS, kV3);
  // Middle edges (E(G - {s}) with source != t).
  b.AddEdge(kV0, kV1);
  b.AddEdge(kV0, kV6);
  b.AddEdge(kV0, kT);
  b.AddEdge(kV1, kV2);
  b.AddEdge(kV1, kV3);
  b.AddEdge(kV2, kV0);
  b.AddEdge(kV2, kT);
  b.AddEdge(kV3, kV4);
  b.AddEdge(kV4, kV5);
  b.AddEdge(kV5, kV2);
  b.AddEdge(kV5, kT);
  b.AddEdge(kV6, kV0);
  // v7: reachable from v6 but with no way back to t.
  b.AddEdge(kV6, kV7);
  return b.Build();
}

/// The paper's default query on the example graph: q(s, t, 4).
inline Query PaperExampleQuery() { return Query{kS, kT, 4}; }

// ---------------------------------------------------------------------------
// Figure 5's G0/G1: the walk-vs-path extremes of Example 5.2.
// ---------------------------------------------------------------------------

/// G1: one real path (s, v0, t) plus 5 ping-pong detours v0 <-> vi, giving
/// delta_W = 6 and delta_P = 1 at k = 4. s = 0, v0 = 1, detours 2..6, t = 7.
inline Graph Figure5G1() {
  GraphBuilder b(8);
  b.AddEdge(0, 1);
  b.AddEdge(1, 7);
  for (VertexId i = 2; i <= 6; ++i) {
    b.AddEdge(1, i);
    b.AddEdge(i, 1);
  }
  return b.Build();
}

// ---------------------------------------------------------------------------
// Index comparison.
// ---------------------------------------------------------------------------

/// `got` and `ref` are the same index: the same X, the same (v.s, v.t) per
/// vertex, the same I_t / I_s lists for every bound b, the same edge count.
inline void ExpectSameIndex(const LightweightIndex& got,
                            const LightweightIndex& ref,
                            const std::string& at) {
  ASSERT_EQ(got.num_vertices(), ref.num_vertices()) << at;
  EXPECT_EQ(got.num_edges(), ref.num_edges()) << at;
  for (uint32_t slot = 0; slot < ref.num_vertices(); ++slot) {
    const VertexId v = ref.VertexAt(slot);
    const uint32_t got_slot = got.SlotOf(v);
    ASSERT_NE(got_slot, kInvalidSlot) << at << " v=" << v;
    EXPECT_EQ(got.DistFromSource(got_slot), ref.DistFromSource(slot))
        << at << " v=" << v;
    EXPECT_EQ(got.DistToTarget(got_slot), ref.DistToTarget(slot))
        << at << " v=" << v;
    for (uint32_t b = 0; b <= ref.hops(); ++b) {
      EXPECT_EQ(got.OutVerticesWithin(v, b), ref.OutVerticesWithin(v, b))
          << at << " v=" << v << " b=" << b;
      EXPECT_EQ(got.InVerticesWithin(v, b), ref.InVerticesWithin(v, b))
          << at << " v=" << v << " b=" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Early-emptying frontiers.
// ---------------------------------------------------------------------------

/// `g` plus three vertices that empty one BFS frontier early: a dead end
/// d = n (in-edges only), a fresh source f = n + 1 (out-edges only) and a
/// pendant p = n + 2 with the single path f -> p -> d, so the forward BFS
/// from p stops after two levels and the backward BFS to p after two.
inline Graph WithDeadEnds(const Graph& g) {
  const VertexId n = g.num_vertices();
  GraphBuilder b(n + 3);
  b.AddGraph(g);
  const VertexId dead = n, fresh = n + 1, pendant = n + 2;
  for (const VertexId v : {VertexId{0}, n / 2, n - 1}) {
    b.AddEdge(v, dead);
    b.AddEdge(fresh, v);
  }
  b.AddEdge(fresh, pendant);
  b.AddEdge(pendant, dead);
  return b.Build();
}

}  // namespace pathenum::testing

#endif  // PATHENUM_TESTS_TEST_UTIL_H_
