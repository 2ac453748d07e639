// Tests for the PathEnum driver (Fig. 2): strategy selection, the τ
// threshold, stats bookkeeping, validation and calibration.
#include <gtest/gtest.h>

#include <cmath>

#include "core/path_enum.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

TEST(PathEnumeratorTest, ValidatesQueries) {
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CountingSink sink;
  EXPECT_THROW(pe.Run({0, 0, 4}, sink), std::logic_error);   // s == t
  EXPECT_THROW(pe.Run({0, 99, 4}, sink), std::logic_error);  // out of range
  EXPECT_THROW(pe.Run({0, 9, 0}, sink), std::logic_error);   // k == 0
  EXPECT_THROW(pe.Run({0, 9, kMaxHops + 1}, sink), std::logic_error);
}

TEST(PathEnumeratorTest, AutoMatchesForcedStrategies) {
  const Graph g = ErdosRenyi(60, 600, 4);
  PathEnumerator pe(g);
  const Query q{0, 1, 5};
  CollectingSink a, b, c;
  EnumOptions dfs_opts;
  dfs_opts.method = Method::kDfs;
  pe.Run(q, a, dfs_opts);
  EnumOptions join_opts;
  join_opts.method = Method::kJoin;
  pe.Run(q, b, join_opts);
  pe.Run(q, c, {});
  EXPECT_EQ(ToSet(a.paths()), ToSet(b.paths()));
  EXPECT_EQ(ToSet(a.paths()), ToSet(c.paths()));
  EXPECT_EQ(ToSet(a.paths()), ToSet(BruteForcePaths(g, q)));
}

TEST(PathEnumeratorTest, SmallSearchSpaceUsesDfsWithoutOptimizing) {
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CountingSink sink;
  const QueryStats stats = pe.Run(testing::PaperExampleQuery(), sink);
  EXPECT_EQ(stats.method, Method::kDfs);
  EXPECT_GT(stats.preliminary_estimate, 0.0);
  EXPECT_LE(stats.preliminary_estimate, 1e5);
  EXPECT_EQ(stats.optimize_ms, 0.0) << "optimizer must be skipped below tau";
  EXPECT_EQ(sink.count(), 5u);
}

TEST(PathEnumeratorTest, TinyTauForcesFullOptimizer) {
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CountingSink sink;
  EnumOptions opts;
  opts.tau = 0.0;  // everything exceeds the threshold
  const QueryStats stats = pe.Run(testing::PaperExampleQuery(), sink, opts);
  EXPECT_GT(stats.t_dfs_cost, 0.0);
  EXPECT_GT(stats.t_join_cost, 0.0);
  EXPECT_EQ(sink.count(), 5u);
}

TEST(PathEnumeratorTest, DisablingPreliminaryAlwaysOptimizes) {
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CountingSink sink;
  EnumOptions opts;
  opts.tau = -1.0;  // no estimate is <= -1: Alg. 5 always runs
  const QueryStats stats = pe.Run(testing::PaperExampleQuery(), sink, opts);
  EXPECT_GT(stats.t_dfs_cost, 0.0);
}

TEST(PathEnumeratorTest, CostModelDecidesJoinOnJoinFriendlyTopology) {
  // Wide bipartite middle: |Q[0:1]| and |Q[2:3]|... a bowtie where cutting
  // in the middle is far cheaper than left-deep expansion. Left fan,
  // bottleneck, right fan: s -> a_i -> m -> b_j -> t.
  GraphBuilder b(24);
  const VertexId s = 0, m = 11, t = 23;
  for (VertexId a = 1; a <= 10; ++a) {
    b.AddEdge(s, a);
    b.AddEdge(a, m);
  }
  for (VertexId w = 12; w <= 22; ++w) {
    b.AddEdge(m, w);
    b.AddEdge(w, t);
  }
  const Graph g = b.Build();
  PathEnumerator pe(g);
  CountingSink sink;
  EnumOptions opts;
  opts.tau = 0.0;
  const QueryStats stats = pe.Run({s, t, 4}, sink, opts);
  EXPECT_EQ(sink.count(), 110u);  // 10 * 11 paths
  EXPECT_GT(stats.t_dfs_cost, 0.0);
  EXPECT_GT(stats.t_join_cost, 0.0);
  if (stats.method == Method::kJoin) {
    EXPECT_GE(stats.cut_position, 1u);
    EXPECT_LT(stats.cut_position, 4u);
  }
}

TEST(PathEnumeratorTest, KEqualsOneNeverJoins) {
  const Graph g = Graph::FromEdges(3, {{0, 2}, {0, 1}, {1, 2}});
  PathEnumerator pe(g);
  CollectingSink sink;
  EnumOptions opts;
  opts.method = Method::kJoin;  // must silently degrade to DFS
  const QueryStats stats = pe.Run({0, 2, 1}, sink, opts);
  EXPECT_EQ(stats.method, Method::kDfs);
  EXPECT_EQ(ToSet(sink.paths()), (PathSet{{0, 2}}));
}

TEST(PathEnumeratorTest, StatsBreakdownIsCoherent) {
  const Graph g = MakeDataset("tw", 0.1);
  PathEnumerator pe(g);
  QueryGenOptions qopts;
  qopts.count = 5;
  qopts.hops = 6;
  qopts.seed = 3;
  for (const Query& q : GenerateQueries(g, qopts)) {
    CountingSink sink;
    const QueryStats stats = pe.Run(q, sink);
    EXPECT_GE(stats.index_ms, stats.bfs_ms);
    EXPECT_GE(stats.total_ms,
              stats.index_ms + stats.optimize_ms + stats.enumerate_ms - 1.0);
    EXPECT_EQ(stats.counters.num_results, sink.count());
    EXPECT_GT(stats.index_vertices, 0u);
    EXPECT_GT(stats.index_bytes, 0u);
    EXPECT_LE(stats.response_ms, stats.total_ms + 1e-9);
  }
}

TEST(PathEnumeratorTest, ResponseTimeUsesPreprocessingOffset) {
  const Graph g = LayeredGraph(3, 5);  // 125 paths
  PathEnumerator pe(g);
  const Query q{0, static_cast<VertexId>(g.num_vertices() - 1), 4};
  CountingSink sink;
  EnumOptions opts;
  opts.response_target = 50;
  const QueryStats stats = pe.Run(q, sink, opts);
  EXPECT_EQ(sink.count(), 125u);
  // Target reached: response time is below total query time but includes
  // the preprocessing phases.
  EXPECT_GT(stats.response_ms, 0.0);
  EXPECT_LE(stats.response_ms, stats.total_ms + 1e-9);
  EXPECT_GE(stats.response_ms, stats.index_ms - 1e-9);
}

TEST(PathEnumeratorTest, UnreachableQueryReportsEmptyIndex) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  PathEnumerator pe(g);
  CountingSink sink;
  const QueryStats stats = pe.Run({0, 3, 6}, sink);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(stats.index_vertices, 0u);
  EXPECT_EQ(stats.counters.num_results, 0u);
  EXPECT_TRUE(stats.counters.completed());
}

TEST(PathEnumeratorTest, TimeLimitIsReported) {
  const Graph g = CompleteDigraph(32);
  PathEnumerator pe(g);
  CountingSink sink;
  EnumOptions opts;
  opts.time_limit_ms = 1.0;
  const QueryStats stats = pe.Run({0, 31, 8}, sink, opts);
  // K_32 has over 10^11 paths of at most 8 hops: a run that ignored its
  // deadline would not return here before the test timeout.
  EXPECT_TRUE(stats.counters.timed_out);
  EXPECT_FALSE(stats.counters.completed());
  EXPECT_EQ(stats.counters.TerminalState(), QueryState::kDeadlineExceeded);
  EXPECT_EQ(stats.counters.num_results, sink.count());
}

TEST(CalibrateTauTest, ReturnsPowerOfTenInRange) {
  const Graph g = MakeDataset("tw", 0.1);
  QueryGenOptions qopts;
  qopts.count = 8;
  qopts.hops = 5;
  qopts.seed = 17;
  const auto queries = GenerateQueries(g, qopts);
  const double tau = CalibrateTau(g, queries);
  EXPECT_GE(tau, 10.0);
  EXPECT_LE(tau, 1e8);
  const double log10tau = std::log10(tau);
  EXPECT_NEAR(log10tau, std::round(log10tau), 1e-9);
}

TEST(CalibrateTauTest, EmptySampleFallsBackToPaperDefault) {
  const Graph g = testing::PaperExampleGraph();
  EXPECT_DOUBLE_EQ(CalibrateTau(g, {}), 1e5);
}

}  // namespace
}  // namespace pathenum
