// Differential tests for the batched multi-source build path (DESIGN.md
// §11): BatchedDistanceField vs K solo ComputeWith runs, BuildBatch vs K
// solo Builds, and the engine-level batched prebuild vs the unbatched
// engine. The batched path must be invisible except in the counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/control.h"
#include "core/index.h"
#include "core/path_enum.h"
#include "core/sink.h"
#include "engine/query_engine.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "test_util.h"
#include "workload/query_gen.h"

namespace pathenum {
namespace {

using testing::ToSet;

// Asserts every member of the fused sweep reproduces its solo run exactly:
// identical distances on every vertex (kInfDistance included), the same
// reached count, and the solo run's edge-touch count as covered_edges.
void ExpectBatchMatchesSolo(
    const Graph& g, Direction dir,
    const std::vector<BatchedDistanceField::Member>& members) {
  BatchedDistanceField batch;
  batch.Compute(g, dir, members);
  for (uint32_t m = 0; m < members.size(); ++m) {
    DistanceField solo;
    BfsOptions opts;
    opts.blocked = members[m].blocked;
    opts.max_depth = members[m].max_depth;
    solo.Compute(g, dir, members[m].source, opts);
    ASSERT_EQ(batch.interrupted(m), DistanceField::Interrupt::kNone);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(batch.Distance(m, v), solo.Distance(v))
          << "member " << m << " vertex " << v;
    }
    EXPECT_EQ(batch.Reached(m).size(), solo.Reached().size());
    EXPECT_EQ(batch.covered_edges(m), solo.edges_scanned())
        << "member " << m << " solo-equivalent edge count drifted";
  }
}

std::vector<BatchedDistanceField::Member> SpreadSources(const Graph& g,
                                                        uint32_t k,
                                                        uint64_t salt) {
  std::vector<BatchedDistanceField::Member> members(k);
  const VertexId n = g.num_vertices();
  for (uint32_t m = 0; m < k; ++m) {
    members[m].source = static_cast<VertexId>((m * 37 + salt * 13) % n);
  }
  return members;
}

TEST(BatchedDistanceFieldTest, MatchesSoloOnRandomGraphs) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const Graph er = ErdosRenyi(300, 2400, seed);
    const Graph ba = BarabasiAlbert(300, 3, seed, 0.3);
    for (const Graph* g : {&er, &ba}) {
      for (const Direction dir : {Direction::kForward, Direction::kBackward}) {
        auto members = SpreadSources(*g, 12, seed);
        for (uint32_t m = 0; m < members.size(); ++m) {
          // Mixed per-member hop caps, including unlimited.
          members[m].max_depth = m % 3 == 0 ? kInfDistance : 2 + m % 4;
          // Some members carry a blocked endpoint (never their own source).
          if (m % 2 == 0) {
            members[m].blocked =
                static_cast<VertexId>((members[m].source + 7) % g->num_vertices());
          }
        }
        ExpectBatchMatchesSolo(*g, dir, members);
      }
    }
  }
}

TEST(BatchedDistanceFieldTest, UnreachableMembersMatchSolo) {
  // 0->1->2 and the isolated 3,4: members seeded at 2 (dead end), 3 and 4
  // (isolated) reach nothing beyond their sources, exactly like solo.
  const Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}});
  std::vector<BatchedDistanceField::Member> members(4);
  members[0].source = 0;
  members[1].source = 2;
  members[2].source = 3;
  members[3].source = 4;
  ExpectBatchMatchesSolo(g, Direction::kForward, members);

  BatchedDistanceField batch;
  batch.Compute(g, Direction::kForward, members);
  EXPECT_EQ(batch.Distance(1, 0), kInfDistance);
  EXPECT_EQ(batch.Reached(2).size(), 1u);  // just its own source
  EXPECT_EQ(batch.covered_edges(3), 0u);
}

TEST(BatchedDistanceFieldTest, ReusedFieldMatchesAcrossComputes) {
  // One field object across graphs, directions and member counts: the
  // epoch/token stamping must fully isolate successive sweeps.
  const Graph a = ErdosRenyi(200, 1200, 9);
  const Graph b = GridGraph(10, 10);
  BatchedDistanceField batch;
  for (int round = 0; round < 3; ++round) {
    for (const Graph* g : {&a, &b}) {
      auto members = SpreadSources(*g, round % 2 == 0 ? 5 : 17,
                                   static_cast<uint64_t>(round));
      batch.Compute(*g, Direction::kForward, members);
      for (uint32_t m = 0; m < members.size(); ++m) {
        DistanceField solo;
        solo.Compute(*g, Direction::kForward, members[m].source);
        for (VertexId v = 0; v < g->num_vertices(); ++v) {
          ASSERT_EQ(batch.Distance(m, v), solo.Distance(v));
        }
      }
    }
  }
}

TEST(BatchedDistanceFieldTest, CancelledMemberDropsOutWithoutDisturbingOthers) {
  const Graph g = ErdosRenyi(300, 2400, 4);
  auto members = SpreadSources(g, 8, 4);
  const CancelToken cancelled = CancelToken::Cancellable();
  cancelled.Cancel();
  members[3].cancel = cancelled.flag();

  BatchedDistanceField batch;
  batch.Compute(g, Direction::kForward, members);
  EXPECT_EQ(batch.interrupted(3), DistanceField::Interrupt::kCancelled);
  for (uint32_t m = 0; m < members.size(); ++m) {
    if (m == 3) continue;
    ASSERT_EQ(batch.interrupted(m), DistanceField::Interrupt::kNone);
    DistanceField solo;
    solo.Compute(g, Direction::kForward, members[m].source);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(batch.Distance(m, v), solo.Distance(v))
          << "survivor " << m << " perturbed by the cancelled member";
    }
  }
}

TEST(BatchedDistanceFieldTest, ExpiredDeadlineMemberDropsOutAlone) {
  const Graph g = ErdosRenyi(300, 2400, 5);
  auto members = SpreadSources(g, 6, 5);
  members[0].deadline = Deadline::AfterMs(0.0);  // already expired

  BatchedDistanceField batch;
  batch.Compute(g, Direction::kForward, members);
  EXPECT_EQ(batch.interrupted(0), DistanceField::Interrupt::kDeadline);
  for (uint32_t m = 1; m < members.size(); ++m) {
    ASSERT_EQ(batch.interrupted(m), DistanceField::Interrupt::kNone);
    DistanceField solo;
    solo.Compute(g, Direction::kForward, members[m].source);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(batch.Distance(m, v), solo.Distance(v));
    }
  }
}

TEST(BatchedDistanceFieldTest, SharedSweepScansEachListOnce) {
  // On a connected graph the member frontiers overlap after a wave or two,
  // so the shared scan count must be strictly below the solo-equivalent
  // sum — that inequality IS the optimization.
  const Graph g = ErdosRenyi(400, 3600, 6);
  const auto members = SpreadSources(g, 16, 6);
  BatchedDistanceField batch;
  batch.Compute(g, Direction::kForward, members);
  uint64_t solo_sum = 0;
  for (uint32_t m = 0; m < members.size(); ++m) {
    solo_sum += batch.covered_edges(m);
  }
  EXPECT_LT(batch.edges_scanned(), solo_sum);
  EXPECT_GT(batch.edges_scanned(), 0u);
}

// ---------------------------------------------------------------------------
// IndexBuilder::BuildBatch vs solo Build.
// ---------------------------------------------------------------------------

/// Enumerates q's paths over g through a prebuilt index.
std::set<std::vector<VertexId>> PathsVia(const Graph& g,
                                         const LightweightIndex& idx) {
  PathEnumerator enumerator{GraphView(g)};
  CollectingSink sink;
  enumerator.RunWithIndex(idx, sink);
  return ToSet(sink.paths());
}

TEST(BuildBatchTest, MatchesSoloBuilds) {
  const Graph g = ErdosRenyi(200, 1600, 7);
  QueryGenOptions qopts;
  qopts.count = 8;
  qopts.hops = 4;
  qopts.seed = 7;
  const std::vector<Query> queries = GenerateQueries(g, qopts);
  ASSERT_GE(queries.size(), 4u);

  std::vector<BatchBuildRequest> reqs;
  for (const Query& q : queries) reqs.push_back({q});
  IndexBuilder batch_builder;
  const std::vector<LightweightIndex> built =
      batch_builder.BuildBatch(g, reqs);
  ASSERT_EQ(built.size(), queries.size());

  uint64_t solo_sum = 0;
  IndexBuilder solo_builder;
  for (size_t i = 0; i < queries.size(); ++i) {
    const LightweightIndex solo = solo_builder.Build(g, queries[i]);
    ASSERT_FALSE(built[i].build_stats().interrupted);
    EXPECT_TRUE(built[i].build_stats().batched);
    EXPECT_FALSE(solo.build_stats().batched);
    // Identical structure and identical enumeration output.
    EXPECT_EQ(built[i].num_vertices(), solo.num_vertices());
    EXPECT_EQ(built[i].num_edges(), solo.num_edges());
    EXPECT_EQ(PathsVia(g, built[i]), PathsVia(g, solo));
    // The member's solo-equivalent edge count is exactly what its own two
    // BFS passes cost; the shared count is the same on every member.
    EXPECT_EQ(built[i].build_stats().edges_scanned,
              solo.build_stats().edges_scanned);
    EXPECT_EQ(built[i].build_stats().batch_edges_scanned,
              built[0].build_stats().batch_edges_scanned);
    solo_sum += solo.build_stats().edges_scanned;
  }
  // Acceptance criterion: fused sweeps touch strictly fewer adjacency
  // entries than the same builds run solo.
  EXPECT_LT(built[0].build_stats().batch_edges_scanned, solo_sum);
}

TEST(BuildBatchTest, UnreachablePairYieldsSameEmptyIndex) {
  // v7 has no out-edges in the paper graph: q(v7, t, 4) has no results.
  const Graph g = testing::PaperExampleGraph();
  std::vector<BatchBuildRequest> reqs;
  reqs.push_back({testing::PaperExampleQuery()});
  reqs.push_back({Query{testing::kV7, testing::kT, 4}});
  IndexBuilder builder;
  const auto built = builder.BuildBatch(g, reqs);
  const LightweightIndex solo0 = builder.Build(g, reqs[0].query);
  const LightweightIndex solo1 = builder.Build(g, reqs[1].query);
  EXPECT_EQ(PathsVia(g, built[0]), PathsVia(g, solo0));
  EXPECT_EQ(built[1].num_edges(), solo1.num_edges());
  EXPECT_TRUE(PathsVia(g, built[1]).empty());
}

TEST(BuildBatchTest, CancelledMemberGetsInterruptedStubOnly) {
  const Graph g = ErdosRenyi(200, 1600, 8);
  QueryGenOptions qopts;
  qopts.count = 4;
  qopts.hops = 4;
  qopts.seed = 8;
  const std::vector<Query> queries = GenerateQueries(g, qopts);
  ASSERT_GE(queries.size(), 2u);

  const CancelToken cancelled = CancelToken::Cancellable();
  cancelled.Cancel();
  std::vector<BatchBuildRequest> reqs;
  reqs.push_back({queries[0]});
  reqs.push_back({queries[1], cancelled.flag()});
  IndexBuilder builder;
  const auto built = builder.BuildBatch(g, reqs);

  EXPECT_TRUE(built[1].build_stats().interrupted);
  EXPECT_TRUE(built[1].build_stats().interrupted_by_cancel);
  EXPECT_EQ(built[1].num_vertices(), 0u);  // empty but well-formed
  ASSERT_FALSE(built[0].build_stats().interrupted);
  const LightweightIndex solo = builder.Build(g, queries[0]);
  EXPECT_EQ(PathsVia(g, built[0]), PathsVia(g, solo));
}

// ---------------------------------------------------------------------------
// Engine-level batched prebuild.
// ---------------------------------------------------------------------------

TEST(EngineBatchedPrebuildTest, MatchesUnbatchedEngine) {
  const Graph g = ErdosRenyi(300, 2400, 11);
  QueryGenOptions qopts;
  qopts.count = 24;
  qopts.hops = 4;
  qopts.seed = 11;
  std::vector<Query> queries = GenerateQueries(g, qopts);
  // Distinct keys only: the prebuild groups by key, duplicates dedup away.
  std::sort(queries.begin(), queries.end(), [](const Query& a, const Query& b) {
    return std::tie(a.source, a.target) < std::tie(b.source, b.target);
  });
  queries.erase(std::unique(queries.begin(), queries.end(),
                            [](const Query& a, const Query& b) {
                              return a.source == b.source &&
                                     a.target == b.target;
                            }),
                queries.end());
  ASSERT_GE(queries.size(), 4u);

  EngineOptions on;
  on.num_workers = 4;
  on.enable_cache = true;
  on.batch_build_min = 4;
  EngineOptions off = on;
  off.batch_build_min = 0;
  QueryEngine engine_on(g, on);
  QueryEngine engine_off(g, off);
  const BatchResult r_on = engine_on.CountBatch(queries);
  const BatchResult r_off = engine_off.CountBatch(queries);
  ASSERT_TRUE(r_on.ok());
  ASSERT_TRUE(r_off.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r_on.stats[i].counters.num_results,
              r_off.stats[i].counters.num_results)
        << "query " << i;
  }
  // A cold cache with >= batch_build_min distinct missing keys must batch.
  EXPECT_GT(r_on.batched_builds, 0u);
  EXPECT_EQ(r_off.batched_builds, 0u);
  EXPECT_LT(r_on.batched_edges_scanned, r_on.batched_solo_edges);

  // The prebuilt indexes are real cache entries: a second pass is all hits
  // with no further batched builds.
  const BatchResult again = engine_on.CountBatch(queries);
  EXPECT_EQ(again.batched_builds, 0u);
  EXPECT_EQ(again.cache.index_misses, 0u);
}

TEST(EngineBatchedPrebuildTest, UnsatisfiableGroupsNeverReachThePrebuild) {
  // A batch mixing satisfiable and oracle-certified-unsatisfiable queries:
  // the admission pre-pass sheds the unsatisfiable ones before grouping,
  // so they finish as kUnsatisfiable and only the satisfiable groups are
  // counted in the fused prebuild, whose co-members stay exact.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 19; ++v) edges.push_back({v, v + 1});
  for (VertexId v = 20; v < 39; ++v) edges.push_back({v, v + 1});
  const Graph g = Graph::FromEdges(40, edges);
  const LiveDistanceOracle oracle(g);

  std::vector<Query> queries;
  for (VertexId s = 0; s < 4; ++s) {
    queries.push_back(Query{s, static_cast<VertexId>(s + 5), 6});   // sat
    queries.push_back(Query{s, static_cast<VertexId>(s + 25), 6});  // unsat
  }
  EngineOptions opts;
  opts.num_workers = 2;
  opts.enable_cache = true;
  opts.batch_build_min = 2;
  QueryEngine engine(g, opts);
  engine.SetLiveOracle(&oracle);
  const BatchResult r = engine.CountBatch(queries);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.batched_builds, 4u);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(r.states[i], QueryState::kOk) << "query " << i;
      EXPECT_EQ(r.stats[i].counters.num_results, 1u) << "query " << i;
    } else {
      EXPECT_EQ(r.states[i], QueryState::kUnsatisfiable) << "query " << i;
      EXPECT_EQ(r.stats[i].counters.num_results, 0u) << "query " << i;
    }
  }
}

}  // namespace
}  // namespace pathenum
