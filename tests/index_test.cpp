// Unit tests for the light-weight index (paper Algorithm 3), checked
// against the paper's running example (Figures 1/4) and naive
// recomputation on random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/index.h"
#include "graph/bfs.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/union_view.h"
#include "graph/view.h"
#include "shard/partition.h"
#include "test_util.h"
#include "workload/query_gen.h"

namespace pathenum {
namespace {

using testing::kS;
using testing::kT;
using testing::kV0;
using testing::kV1;
using testing::kV2;
using testing::kV3;
using testing::kV4;
using testing::kV5;
using testing::kV6;
using testing::kV7;

LightweightIndex BuildPaperIndex() {
  IndexBuilder builder;
  return builder.Build(testing::PaperExampleGraph(),
                       testing::PaperExampleQuery());
}

TEST(IndexTest, MembershipMatchesFigure4a) {
  const LightweightIndex idx = BuildPaperIndex();
  // X contains every vertex except v7 (v7 cannot reach t).
  EXPECT_EQ(idx.num_vertices(), 9u);
  for (const VertexId v : {kS, kV0, kV1, kV2, kV3, kV4, kV5, kV6, kT}) {
    EXPECT_TRUE(idx.Contains(v)) << "vertex " << v;
  }
  EXPECT_FALSE(idx.Contains(kV7));
}

TEST(IndexTest, CellX22HoldsV4AndV6) {
  // Example 4.4: X[2,2] = {v4, v6}.
  const LightweightIndex idx = BuildPaperIndex();
  const auto [first, last] = idx.CellSlots(2, 2);
  std::set<VertexId> cell;
  for (uint32_t slot = first; slot < last; ++slot) {
    cell.insert(idx.VertexAt(slot));
  }
  EXPECT_EQ(cell, (std::set<VertexId>{kV4, kV6}));
}

TEST(IndexTest, SlotRoundTripAndDistances) {
  const LightweightIndex idx = BuildPaperIndex();
  for (uint32_t slot = 0; slot < idx.num_vertices(); ++slot) {
    const VertexId v = idx.VertexAt(slot);
    EXPECT_EQ(idx.SlotOf(v), slot);
    EXPECT_LE(idx.DistFromSource(slot) + idx.DistToTarget(slot), 4u);
  }
  EXPECT_EQ(idx.SlotOf(kV7), kInvalidSlot);
  EXPECT_EQ(idx.VertexAt(idx.source_slot()), kS);
  EXPECT_EQ(idx.VertexAt(idx.target_slot()), kT);
}

TEST(IndexTest, Example44NeighborLookup) {
  // I_t(v0, 2) = {t, v1, v6}; I_t(v0, 0) = {t}.
  const LightweightIndex idx = BuildPaperIndex();
  const auto all = idx.OutVerticesWithin(kV0, 2);
  EXPECT_EQ(std::set<VertexId>(all.begin(), all.end()),
            (std::set<VertexId>{kT, kV1, kV6}));
  EXPECT_EQ(idx.OutVerticesWithin(kV0, 0), std::vector<VertexId>{kT});
  EXPECT_EQ(idx.OutVerticesWithin(kV0, 1), std::vector<VertexId>{kT});
}

TEST(IndexTest, OutNeighborsSortedByDistanceToTarget) {
  const LightweightIndex idx = BuildPaperIndex();
  for (uint32_t slot = 0; slot < idx.num_vertices(); ++slot) {
    const auto nbrs = idx.OutSlotsWithin(slot, 4);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LE(idx.DistToTarget(nbrs[i - 1]), idx.DistToTarget(nbrs[i]));
    }
  }
}

TEST(IndexTest, TargetHasPaddingSelfEntry) {
  const LightweightIndex idx = BuildPaperIndex();
  for (uint32_t b = 0; b <= 4; ++b) {
    EXPECT_EQ(idx.OutVerticesWithin(kT, b), std::vector<VertexId>{kT});
  }
  // The padding entry carries no graph edge.
  const auto edge_ids = idx.OutEdgeIdsWithin(idx.target_slot(), 4);
  ASSERT_EQ(edge_ids.size(), 1u);
  EXPECT_EQ(edge_ids[0], kInvalidEdge);
}

TEST(IndexTest, SourceNeverAppearsAsOutDestination) {
  // Triangle s <-> a, a -> t: the index must not offer s as an extension.
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}});
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, {0, 2, 3});
  EXPECT_EQ(idx.OutVerticesWithin(1, 3), std::vector<VertexId>{2});
}

TEST(IndexTest, EdgeCountExcludesPadding) {
  // Hand-counted over the example: 13 admissible out-entries (s:3, v0:3,
  // v1:1, v2:2, v3:1, v4:1, v5:1, v6:1).
  const LightweightIndex idx = BuildPaperIndex();
  EXPECT_EQ(idx.num_edges(), 13u);
}

TEST(IndexTest, StoredConditionIsTight) {
  // v1 -> v3 violates v.s + v'.t + 1 <= k (1 + 3 + 1 > 4) and must be
  // dropped even though both endpoints are in X; v1 -> v2 (1 + 1 + 1)
  // stays. Likewise v5 -> v2 (3 + 1 + 1 > 4) is dropped.
  const LightweightIndex idx = BuildPaperIndex();
  EXPECT_EQ(idx.OutVerticesWithin(kV1, 4), std::vector<VertexId>{kV2});
  EXPECT_EQ(idx.OutVerticesWithin(kV5, 4), std::vector<VertexId>{kT});
}

TEST(IndexTest, OutEdgeIdsMatchGraphEdges) {
  const Graph g = testing::PaperExampleGraph();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, testing::PaperExampleQuery());
  for (uint32_t slot = 0; slot < idx.num_vertices(); ++slot) {
    if (slot == idx.target_slot()) continue;
    const VertexId v = idx.VertexAt(slot);
    const auto nbrs = idx.OutSlotsWithin(slot, 4);
    const auto edges = idx.OutEdgeIdsWithin(slot, 4);
    ASSERT_EQ(nbrs.size(), edges.size());
    for (size_t j = 0; j < nbrs.size(); ++j) {
      EXPECT_EQ(edges[j], g.FindEdge(v, idx.VertexAt(nbrs[j])));
    }
  }
}

TEST(IndexTest, LevelIterationMatchesDefinition) {
  const LightweightIndex idx = BuildPaperIndex();
  const uint32_t k = 4;
  for (uint32_t i = 0; i <= k; ++i) {
    std::set<VertexId> via_levels;
    idx.ForEachSlotInLevel(
        i, [&](uint32_t slot) { via_levels.insert(idx.VertexAt(slot)); });
    std::set<VertexId> expected;
    for (uint32_t slot = 0; slot < idx.num_vertices(); ++slot) {
      if (idx.DistFromSource(slot) <= i && idx.DistToTarget(slot) <= k - i) {
        expected.insert(idx.VertexAt(slot));
      }
    }
    EXPECT_EQ(via_levels, expected) << "level " << i;
    EXPECT_EQ(idx.LevelSize(i), expected.size());
  }
}

TEST(IndexTest, LevelZeroIsSourceOnly) {
  const LightweightIndex idx = BuildPaperIndex();
  EXPECT_EQ(idx.LevelSize(0), 1u);
  idx.ForEachSlotInLevel(0, [&](uint32_t slot) {
    EXPECT_EQ(idx.VertexAt(slot), kS);
  });
  EXPECT_EQ(idx.LevelSize(4), 1u);  // level k is {t}
}

TEST(IndexTest, LevelStatsMatchManualRecount) {
  const LightweightIndex idx = BuildPaperIndex();
  const uint32_t k = 4;
  for (uint32_t j = 0; j < k; ++j) {
    uint64_t count = 0;
    double sum = 0;
    idx.ForEachSlotInLevel(j, [&](uint32_t slot) {
      count++;
      sum += static_cast<double>(idx.OutSlotsWithin(slot, k - j - 1).size());
    });
    EXPECT_EQ(idx.LevelCount(j), count) << "level " << j;
    EXPECT_DOUBLE_EQ(idx.LevelItSum(j), sum) << "level " << j;
  }
}

TEST(IndexTest, UnreachableQueryYieldsEmptyIndex) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, {0, 3, 5});
  EXPECT_EQ(idx.num_vertices(), 0u);
  EXPECT_EQ(idx.source_slot(), kInvalidSlot);
  EXPECT_EQ(idx.num_edges(), 0u);
}

TEST(IndexTest, HopBudgetTooSmallYieldsEmptyIndex) {
  const Graph g = PathGraph(6);
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, {0, 5, 3});  // dist is 5
  EXPECT_EQ(idx.num_vertices(), 0u);
}

TEST(IndexTest, EdgeFilterShrinksIndex) {
  const Graph g = testing::PaperExampleGraph();
  // Remove v0 -> t: the only length-2 path disappears and distances shift.
  const EdgeFilter filter = [](VertexId u, VertexId v, EdgeId) {
    return !(u == kV0 && v == kT);
  };
  IndexBuilder builder;
  IndexBuildOptions opts;
  opts.filter = &filter;
  const LightweightIndex idx = builder.Build(g, testing::PaperExampleQuery(),
                                             opts);
  const LightweightIndex unfiltered =
      builder.Build(g, testing::PaperExampleQuery());
  EXPECT_LT(idx.num_edges(), unfiltered.num_edges());
  const auto v0_nbrs = idx.OutVerticesWithin(kV0, 4);
  EXPECT_TRUE(std::find(v0_nbrs.begin(), v0_nbrs.end(), kT) ==
              v0_nbrs.end());
}

TEST(IndexTest, MemoryAccountingPositiveAndOrdered) {
  const LightweightIndex idx = BuildPaperIndex();
  EXPECT_GT(idx.MemoryBytes(), 0u);
  EXPECT_GE(idx.build_stats().total_ms, idx.build_stats().bfs_ms);
}

TEST(IndexTest, BuilderReuseAcrossQueries) {
  const Graph g = testing::PaperExampleGraph();
  IndexBuilder builder;
  const LightweightIndex a = builder.Build(g, {kS, kT, 4});
  const LightweightIndex b = builder.Build(g, {kS, kV5, 3});
  const LightweightIndex c = builder.Build(g, {kS, kT, 4});
  EXPECT_EQ(a.num_vertices(), c.num_vertices());
  EXPECT_EQ(a.num_edges(), c.num_edges());
  EXPECT_NE(a.num_vertices(), b.num_vertices());
}

/// Every slot's I_t(v, b) lists and edge ids against an independent scan of
/// its out-list: the v' != s in X with v.s + v'.t + 1 <= k that pass
/// `filter`, in (v'.t, vertex id) order, each with its edge id (none on an
/// overlay view, whose builds take no ids, nor for t's padding entry). X and
/// the distances are the index's own; the callers pin those separately.
template <typename GraphT>
void ExpectOrderedAdjacency(const GraphT& g, const LightweightIndex& idx,
                            const EdgeFilter* filter, const std::string& at) {
  const Query& q = idx.query();
  const uint32_t k = q.hops;
  ASSERT_TRUE(idx.has_edge_ids()) << at;
  for (uint32_t slot = 0; slot < idx.num_vertices(); ++slot) {
    const VertexId v = idx.VertexAt(slot);
    std::vector<std::tuple<uint32_t, VertexId, EdgeId>> expected;
    if (v == q.target) {
      expected.emplace_back(0, v, kInvalidEdge);  // the padding self-entry
    } else {
      const auto nbrs = g.OutNeighbors(v);
      for (size_t j = 0; j < nbrs.size(); ++j) {
        const VertexId w = nbrs[j];
        const uint32_t w_slot = idx.SlotOf(w);
        if (w == q.source || w_slot == kInvalidSlot) continue;
        const uint32_t dt_w = idx.DistToTarget(w_slot);
        if (idx.DistFromSource(slot) + dt_w + 1 > k) continue;
        EdgeId e = kInvalidEdge;
        if constexpr (std::is_same_v<GraphT, Graph>) e = g.OutEdgeId(v, j);
        if (filter != nullptr && !(*filter)(v, w, e)) continue;
        expected.emplace_back(dt_w, w, e);
      }
      std::sort(expected.begin(), expected.end());
    }
    for (uint32_t b = 0; b <= k; ++b) {
      std::vector<VertexId> want_vertices;
      std::vector<EdgeId> want_edges;
      for (const auto& [dt_w, w, e] : expected) {
        if (dt_w > b) break;
        want_vertices.push_back(w);
        want_edges.push_back(e);
      }
      EXPECT_EQ(testing::OutVertices(idx, slot, b), want_vertices)
          << at << " v=" << v << " b=" << b;
      const auto edges = idx.OutEdgeIdsWithin(slot, b);
      EXPECT_EQ(std::vector<EdgeId>(edges.begin(), edges.end()), want_edges)
          << at << " v=" << v << " b=" << b;
    }
  }
}

/// Rows of H_t (the slots of one v.s) that hold at least one slot.
uint32_t NonEmptyRows(const LightweightIndex& idx) {
  const uint32_t k = idx.hops();
  uint32_t rows = 0;
  for (uint32_t a = 0; a <= k; ++a) {
    if (idx.CellSlots(a, 0).first < idx.CellSlots(a, k).second) ++rows;
  }
  return rows;
}

// Randomized consistency: every index invariant recomputed naively.
class IndexRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexRandomTest, MatchesNaiveConstruction) {
  const uint64_t seed = GetParam();
  const Graph g = ErdosRenyi(60, 400, seed);
  const uint32_t k = 3 + static_cast<uint32_t>(seed % 4);
  const Query q{static_cast<VertexId>(seed % 60),
                static_cast<VertexId>((seed * 7 + 13) % 60), k};
  if (q.source == q.target) return;

  DistanceField fs, ft;
  BfsOptions fwd;
  fwd.blocked = q.target;
  fwd.max_depth = k;
  fs.Compute(g, Direction::kForward, q.source, fwd);
  BfsOptions bwd;
  bwd.blocked = q.source;
  bwd.max_depth = k;
  ft.Compute(g, Direction::kBackward, q.target, bwd);

  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);

  // Membership.
  uint32_t expected_members = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const uint32_t ds = fs.Distance(v);
    const uint32_t dt = ft.Distance(v);
    const bool in_x =
        ds != kInfDistance && dt != kInfDistance && ds + dt <= k;
    EXPECT_EQ(idx.Contains(v), in_x) << "vertex " << v;
    if (in_x) expected_members++;
  }
  ASSERT_EQ(idx.num_vertices(), expected_members);

  // Distances, then the adjacency for every vertex and bound, in order and
  // with edge ids.
  for (uint32_t slot = 0; slot < idx.num_vertices(); ++slot) {
    const VertexId v = idx.VertexAt(slot);
    EXPECT_EQ(idx.DistFromSource(slot), fs.Distance(v));
    EXPECT_EQ(idx.DistToTarget(slot), ft.Distance(v));
  }
  ExpectOrderedAdjacency(g, idx, nullptr, "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexRandomTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Meet-in-the-middle builds vs the two-full-ball reference.
// ---------------------------------------------------------------------------

/// Forward hop distances from `s` over `g` (kInfDistance: unreachable).
std::vector<uint32_t> ForwardDistances(const Graph& g, VertexId s) {
  DistanceField field;
  field.Compute(g, Direction::kForward, s);
  std::vector<uint32_t> dist(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) dist[v] = field.Distance(v);
  return dist;
}

TEST(IndexTest, MeetInTheMiddleMatchesTwoFullBalls) {
  const Graph graphs[] = {
      testing::WithDeadEnds(ErdosRenyi(60, 200, /*seed=*/71)),
      testing::WithDeadEnds(
          BarabasiAlbert(60, 2, /*back_prob=*/0.3, /*seed=*/73)),
      testing::WithDeadEnds(LayeredGraph(/*layers=*/4, /*width=*/3)),
      // Hub-heavy: most X-only levels run bottom-up from their candidates.
      testing::WithDeadEnds(
          RMat(/*scale=*/7, /*num_edges=*/1200, /*seed=*/75)),
  };
  // Drops about one edge in seven; keyed on the endpoints only, because a
  // view's touched vertices carry no edge ids.
  const EdgeFilter filter = [](VertexId u, VertexId v, EdgeId) {
    return (u * 3 + v) % 7 != 0;
  };
  IndexBuilder builder;
  IndexBuilder reference_builder;
  // X-only levels, and rows of H_t, run each way across the
  // meet-in-the-middle builds.
  uint64_t bottom_up = 0, top_down = 0;
  uint64_t bottom_up_rows = 0, top_down_rows = 0;
  const auto count_levels = [&](const LightweightIndex& idx) {
    const LightweightIndex::BuildStats& bs = idx.build_stats();
    bottom_up += bs.bottom_up_levels;
    top_down += bs.x_only_levels - bs.bottom_up_levels;
    bottom_up_rows += bs.bottom_up_rows;
    top_down_rows += NonEmptyRows(idx) - bs.bottom_up_rows;
  };
  for (size_t gi = 0; gi < std::size(graphs); ++gi) {
    const Graph& g = graphs[gi];
    const VertexId n = g.num_vertices();
    const VertexId dead = n - 3, fresh = n - 2, pendant = n - 1;
    std::mt19937_64 rng(gi + 1);
    std::uniform_int_distribution<VertexId> pick(0, dead - 1);
    GraphDelta delta;
    for (int i = 0; i < 16; ++i) {
      const VertexId u = pick(rng);
      const VertexId v = pick(rng);
      if (u == v) continue;
      if (i % 2 == 0) {
        delta.Insert(u, v);
      } else {
        delta.Delete(u, v);
      }
    }
    const GraphView view = GraphView(g).Apply(delta, 1);
    const Graph folded = view.Materialize();

    for (uint32_t k = 1; k <= 8; ++k) {
      std::vector<Query> queries = {
          {pendant, dead, k}, {fresh, dead, k},   {fresh, pendant, k},
          {dead, pick(rng), k}, {pick(rng), fresh, k},
      };
      // Pairs at every distance from 1 to k + 1 on the base graph. Below
      // k - 1, the blocked endpoint sits on a level that expands into an
      // X-only one.
      for (int round = 0; round < 3; ++round) {
        const VertexId s = pick(rng);
        const std::vector<uint32_t> ds = ForwardDistances(g, s);
        for (uint32_t want = 1; want <= k + 1; ++want) {
          for (VertexId t = 0; t < n; ++t) {
            if (ds[t] == want) {
              queries.push_back({s, t, k});
              break;
            }
          }
        }
      }
      for (const Query& q : queries) {
        if (q.source == q.target) continue;
        for (const bool filtered : {false, true}) {
          IndexBuildOptions opts;
          if (filtered) opts.filter = &filter;
          IndexBuildOptions ref_opts = opts;
          ref_opts.prune_forward_bfs = false;
          const std::string at =
              "graph " + std::to_string(gi) + " q(" +
              std::to_string(q.source) + "," + std::to_string(q.target) +
              "," + std::to_string(k) + ")" + (filtered ? " filtered" : "");
          const LightweightIndex plain = builder.Build(g, q, opts);
          count_levels(plain);
          testing::ExpectSameIndex(
              plain, reference_builder.Build(g, q, ref_opts), at);
          ExpectOrderedAdjacency(g, plain, opts.filter, at);
          const LightweightIndex overlay = builder.Build(view, q, opts);
          count_levels(overlay);
          testing::ExpectSameIndex(
              overlay, reference_builder.Build(view, q, ref_opts),
              at + " view");
          testing::ExpectSameIndex(overlay,
                                   reference_builder.Build(folded, q, opts),
                                   at + " view vs materialized");
          ExpectOrderedAdjacency(view, overlay, opts.filter, at + " view");
        }
      }
    }
  }
  EXPECT_GT(bottom_up, 0u);
  EXPECT_GT(top_down, 0u);
  EXPECT_GT(bottom_up_rows, 0u);
  EXPECT_GT(top_down_rows, 0u);
}

TEST(IndexTest, UnionOfShardViewsMatchesTheMaterializedGraph) {
  // The shard router's build: each vertex's out-list from its owner's
  // view, its in-list as every view's in-span in turn, over overlay views
  // after churn. Both the meet-in-the-middle build and the two-full-ball
  // reference over the union build the materialized graph's index, with
  // each slot's adjacency in (v'.t, vertex id) order and no edge ids.
  const Graph graphs[] = {
      testing::WithDeadEnds(ErdosRenyi(60, 200, /*seed=*/71)),
      testing::WithDeadEnds(
          BarabasiAlbert(60, 2, /*back_prob=*/0.3, /*seed=*/73)),
      // Hub-heavy: most X-only levels run bottom-up from their candidates.
      testing::WithDeadEnds(
          RMat(/*scale=*/7, /*num_edges=*/1200, /*seed=*/75)),
  };
  IndexBuilder builder;
  IndexBuilder reference_builder;
  uint64_t bottom_up = 0, bottom_up_rows = 0;
  for (size_t gi = 0; gi < std::size(graphs); ++gi) {
    const Graph& g = graphs[gi];
    const VertexId n = g.num_vertices();
    const VertexId dead = n - 3, fresh = n - 2, pendant = n - 1;
    for (const uint32_t shards : {2u, 4u, 8u}) {
      PartitionOptions popts;
      popts.num_shards = shards;
      GraphPartition part = GraphPartitioner::Partition(g, popts);
      std::mt19937_64 rng(10 * gi + shards);
      std::uniform_int_distribution<VertexId> pick(0, dead - 1);
      GraphDelta delta;
      std::vector<GraphDelta> per_shard(shards);
      for (int i = 0; i < 16; ++i) {
        const VertexId u = pick(rng);
        const VertexId v = pick(rng);
        if (u == v) continue;
        if (i % 2 == 0) {
          delta.Insert(u, v);
          per_shard[part.ShardOf(u)].Insert(u, v);
        } else {
          delta.Delete(u, v);
          per_shard[part.ShardOf(u)].Delete(u, v);
        }
      }
      std::vector<std::shared_ptr<const GraphView>> views;
      for (uint32_t p = 0; p < shards; ++p) {
        const GraphView view(
            std::make_shared<const Graph>(part.TakeShardGraph(p)), nullptr, 0);
        views.push_back(
            std::make_shared<const GraphView>(view.Apply(per_shard[p], 1)));
      }
      const UnionView both(views, part.shard_map());
      const Graph materialized = GraphView(g).Apply(delta, 1).Materialize();

      for (uint32_t k = 1; k <= 8; ++k) {
        std::vector<Query> queries = {
            {pendant, dead, k}, {fresh, dead, k},   {fresh, pendant, k},
            {dead, pick(rng), k}, {pick(rng), fresh, k},
        };
        for (int i = 0; i < 6; ++i) queries.push_back({pick(rng), pick(rng), k});
        for (const Query& q : queries) {
          if (q.source == q.target) continue;
          const std::string at = "graph " + std::to_string(gi) + " shards " +
                                 std::to_string(shards) + " q(" +
                                 std::to_string(q.source) + "," +
                                 std::to_string(q.target) + "," +
                                 std::to_string(k) + ")";
          const LightweightIndex want = reference_builder.Build(materialized, q);
          const LightweightIndex got = builder.Build(both, q);
          bottom_up += got.build_stats().bottom_up_levels;
          bottom_up_rows += got.build_stats().bottom_up_rows;
          testing::ExpectSameIndex(got, want, at);
          ExpectOrderedAdjacency(both, got, nullptr, at);
          for (uint32_t j = 0; j < k; ++j) {
            EXPECT_EQ(got.LevelCount(j), want.LevelCount(j)) << at;
            EXPECT_EQ(got.LevelItSum(j), want.LevelItSum(j)) << at;
          }
          IndexBuildOptions full_balls;
          full_balls.prune_forward_bfs = false;
          testing::ExpectSameIndex(builder.Build(both, q, full_balls), want,
                                   at + " full balls");
        }
      }
    }
  }
  EXPECT_GT(bottom_up, 0u);
  EXPECT_GT(bottom_up_rows, 0u);
}

/// A thin out-path from vertex 0 and a wide two-level in-tree into
/// vertex 1: 0 -> p0 -> ... -> p5, each p_i also into leaf i of hub i, and
/// kHubs hubs into 1, each fed by kHubs leaves. `reversed` flips every
/// edge, so the path leads into 0 and the tree fans out of 1.
constexpr VertexId kPathLength = 6, kHubs = 12;
constexpr VertexId kPath = 2, kHub = kPath + kPathLength,
                   kLeaf = kHub + kHubs;

Graph ThinPathIntoWideTree(bool reversed) {
  GraphBuilder b(kLeaf + kHubs * kHubs);
  const auto add = [&](VertexId u, VertexId v) {
    reversed ? b.AddEdge(v, u) : b.AddEdge(u, v);
  };
  add(0, kPath);
  for (VertexId i = 0; i < kPathLength; ++i) {
    if (i + 1 < kPathLength) add(kPath + i, kPath + i + 1);
    add(kPath + i, kLeaf + i * kHubs + i);
  }
  for (VertexId h = 0; h < kHubs; ++h) {
    add(kHub + h, 1);
    for (VertexId j = 0; j < kHubs; ++j) add(kLeaf + h * kHubs + j, kHub + h);
  }
  return b.Build();
}

/// Adjacency entries a fixed ⌊k/2⌋ split scans at least for k >= 4: it
/// expands levels 0 and 1 of s's out-ball and of t's in-ball in full.
uint64_t FixedSplitFloor(const Graph& g, VertexId s, VertexId t) {
  uint64_t scan = g.OutDegree(s) + g.InDegree(t);
  for (const VertexId v : g.OutNeighbors(s)) {
    if (v != t) scan += g.OutDegree(v);
  }
  for (const VertexId v : g.InNeighbors(t)) {
    if (v != s) scan += g.InDegree(v);
  }
  return scan;
}

TEST(IndexTest, AdmitAllLevelsGoToTheCheaperSide) {
  // On the thin side each admit-all level scans a handful of entries, on
  // the wide side the hubs' lists alone scan kHubs^2, so a cost-chosen
  // split stays below what any fixed ⌊k/2⌋ split must scan, in either
  // orientation, on a Graph, an overlay view after churn and a 2-shard
  // union, and builds the two-full-ball reference's index.
  IndexBuilder builder;
  IndexBuilder reference_builder;
  IndexBuildOptions full_balls;
  full_balls.prune_forward_bfs = false;
  for (const bool reversed : {false, true}) {
    const Graph g = ThinPathIntoWideTree(reversed);
    const VertexId s = reversed ? 1 : 0;
    const VertexId t = reversed ? 0 : 1;
    GraphDelta delta;
    const auto churn = [&](VertexId u, VertexId v, bool insert) {
      if (reversed) std::swap(u, v);
      if (insert) {
        delta.Insert(u, v);
      } else {
        delta.Delete(u, v);
      }
    };
    churn(kPath + 3, kHub + 7, /*insert=*/true);
    churn(kLeaf + 2 * kHubs, kHub + 2, /*insert=*/false);
    churn(kPath + 1, kLeaf + kHubs + 1, /*insert=*/false);
    const GraphView view = GraphView(g).Apply(delta, 1);
    PartitionOptions popts;
    popts.num_shards = 2;
    GraphPartition part = GraphPartitioner::Partition(g, popts);
    std::vector<std::shared_ptr<const GraphView>> views;
    for (uint32_t p = 0; p < popts.num_shards; ++p) {
      views.push_back(std::make_shared<const GraphView>(
          std::make_shared<const Graph>(part.TakeShardGraph(p)), nullptr, 0));
    }
    const UnionView both(views, part.shard_map());

    const auto check = [&](const auto& form, const Graph& materialized,
                           const std::string& name) {
      for (uint32_t k = 4; k <= 6; ++k) {
        const Query q{s, t, k};
        const std::string at = name + (reversed ? " reversed" : "") +
                               " k=" + std::to_string(k);
        const LightweightIndex idx = builder.Build(form, q);
        EXPECT_GT(idx.num_vertices(), 0u) << at;
        EXPECT_LT(idx.build_stats().edges_scanned,
                  FixedSplitFloor(materialized, s, t))
            << at;
        testing::ExpectSameIndex(
            idx, reference_builder.Build(form, q, full_balls), at);
      }
    };
    check(g, g, "graph");
    check(view, view.Materialize(), "view");
    check(both, g, "union");
  }
}

TEST(IndexTest, SlabSizeIsIndependentOfTheVertexCount) {
  // The paper example's 9-vertex X, built on the example graph and on the
  // same graph padded with 1,000,000 isolated vertices: the slab holds
  // O(|X|) entries, so the padding adds nothing.
  const Graph g = testing::PaperExampleGraph();
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId w : g.OutNeighbors(u)) edges.push_back({u, w});
  }
  const Graph padded = Graph::FromEdges(g.num_vertices() + 1'000'000, edges);
  IndexBuilder builder;
  const LightweightIndex small = builder.Build(g, testing::PaperExampleQuery());
  const LightweightIndex large =
      builder.Build(padded, testing::PaperExampleQuery());
  EXPECT_EQ(large.num_vertices(), small.num_vertices());
  EXPECT_EQ(large.MemoryBytes(), small.MemoryBytes());
  for (VertexId v = g.num_vertices(); v < padded.num_vertices(); ++v) {
    ASSERT_EQ(large.SlotOf(v), kInvalidSlot) << "padded vertex " << v;
  }
}

}  // namespace
}  // namespace pathenum
