// Tests for the pruned-landmark distance oracle (the §7.5 global index).
#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/distance_oracle.h"
#include "graph/generators.h"
#include "test_util.h"
#include "workload/query_gen.h"

namespace pathenum {
namespace {

TEST(DistanceOracleTest, PathGraphDistances) {
  const Graph g = PathGraph(8);
  const auto pll = PrunedLandmarkIndex::Build(g);
  for (VertexId s = 0; s < 8; ++s) {
    for (VertexId t = 0; t < 8; ++t) {
      const uint32_t expected = t >= s ? t - s : kInfDistance;
      EXPECT_EQ(pll.Distance(s, t), expected) << s << "->" << t;
    }
  }
}

TEST(DistanceOracleTest, DirectionalityRespected) {
  // 0 -> 1 -> 2, plus 2 -> 0 closing a cycle: asymmetric distances.
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  const auto pll = PrunedLandmarkIndex::Build(g);
  EXPECT_EQ(pll.Distance(0, 2), 2u);
  EXPECT_EQ(pll.Distance(2, 0), 1u);
  EXPECT_EQ(pll.Distance(1, 0), 2u);
}

TEST(DistanceOracleTest, UnreachableIsInfinite) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const auto pll = PrunedLandmarkIndex::Build(g);
  EXPECT_EQ(pll.Distance(0, 3), kInfDistance);
  EXPECT_FALSE(pll.Within(0, 3, 1000));
  EXPECT_TRUE(pll.Within(0, 1, 1));
  EXPECT_TRUE(pll.Within(2, 2, 0));
}

TEST(DistanceOracleTest, PaperExampleDistances) {
  const Graph g = testing::PaperExampleGraph();
  const auto pll = PrunedLandmarkIndex::Build(g);
  EXPECT_EQ(pll.Distance(testing::kS, testing::kT), 2u);
  EXPECT_EQ(pll.Distance(testing::kV3, testing::kT), 3u);
  EXPECT_EQ(pll.Distance(testing::kV7, testing::kT), kInfDistance);
}

class OracleRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleRandomTest, AgreesWithBfsEverywhere) {
  const uint64_t seed = GetParam();
  const Graph g = seed % 2 == 0 ? ErdosRenyi(120, 700, seed)
                                : RMat(7, 600, seed);
  const auto pll = PrunedLandmarkIndex::Build(g);
  DistanceField bfs;
  // Exhaustive from a handful of sources.
  for (VertexId s = 0; s < g.num_vertices(); s += 17) {
    bfs.Compute(g, Direction::kForward, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      EXPECT_EQ(pll.Distance(s, t), bfs.Distance(t))
          << "seed=" << seed << " " << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleRandomTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(DistanceOracleTest, BuildStatsPopulated) {
  const Graph g = ErdosRenyi(200, 1200, 3);
  const auto pll = PrunedLandmarkIndex::Build(g);
  EXPECT_GT(pll.build_stats().avg_label_entries, 0.0);
  EXPECT_GT(pll.MemoryBytes(), 0u);
  EXPECT_EQ(pll.num_vertices(), 200u);
}

TEST(DistanceOracleTest, RejectsOutOfRangeQuery) {
  const Graph g = PathGraph(3);
  const auto pll = PrunedLandmarkIndex::Build(g);
  EXPECT_THROW(pll.Distance(0, 5), std::logic_error);
}

// --- Integration with the workload generator -------------------------------

TEST(OracleIntegrationTest, QueryGenWithOracleMatchesBfsProbe) {
  const Graph g = ErdosRenyi(300, 2400, 8);
  const auto pll = PrunedLandmarkIndex::Build(g);
  QueryGenOptions opts;
  opts.count = 12;
  opts.hops = 5;
  opts.seed = 4;
  const auto plain = GenerateQueries(g, opts);
  opts.oracle = &pll;
  const auto oracled = GenerateQueries(g, opts);
  // Identical RNG stream + identical accept/reject decisions => identical
  // query sets.
  ASSERT_EQ(plain.size(), oracled.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].source, oracled[i].source);
    EXPECT_EQ(plain[i].target, oracled[i].target);
  }
}

}  // namespace
}  // namespace pathenum
