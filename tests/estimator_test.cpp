// Tests for the preliminary estimator (Eq. 5), the full-fledged join-order
// optimizer (Alg. 5) and the measured pricing of its two plans.
// Key property: the "full-fledged estimator" is *exact* walk counting over
// the index, so |Q| must equal delta_W.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/index.h"
#include "core/path_enum.h"
#include "core/reference.h"
#include "graph/bfs.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "test_util.h"

namespace pathenum {
namespace {

JoinPlan PlanFor(const Graph& g, const Query& q) {
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  return OptimizeJoinOrder(idx);
}

TEST(FullEstimatorTest, PaperExampleWalkCount) {
  // Hand count on Figure 1a with q(s,t,4): the 5 paths plus the walk
  // (s, v0, v6, v0, t) of Example 3.2 — delta_W = 6.
  const Graph g = testing::PaperExampleGraph();
  const Query q = testing::PaperExampleQuery();
  const JoinPlan plan = PlanFor(g, q);
  EXPECT_DOUBLE_EQ(plan.TotalWalks(), 6.0);
  EXPECT_DOUBLE_EQ(CountWalksDp(g, q), 6.0);
  EXPECT_EQ(BruteForceWalks(g, q).size(), 6u);
}

TEST(FullEstimatorTest, Figure5G1WalkGap) {
  // Example 5.2's G1: delta_W = 6 but delta_P = 1.
  const Graph g = testing::Figure5G1();
  const Query q{0, 7, 4};
  EXPECT_DOUBLE_EQ(PlanFor(g, q).TotalWalks(), 6.0);
  EXPECT_DOUBLE_EQ(CountWalksDp(g, q), 6.0);
  EXPECT_EQ(CountPathsBruteForce(g, q), 1u);
}

TEST(FullEstimatorTest, LayeredGraphExactCounts) {
  // In a layered diamond every walk is a path: width^layers of them.
  const Graph g = LayeredGraph(3, 3);
  const Query q{0, static_cast<VertexId>(g.num_vertices() - 1), 4};
  const JoinPlan plan = PlanFor(g, q);
  EXPECT_DOUBLE_EQ(plan.TotalWalks(), 27.0);
}

TEST(FullEstimatorTest, ForwardBackwardConsistency) {
  // |Q[0:k]| computed forward must equal |Q[0:k]| computed backward.
  const Graph g = testing::PaperExampleGraph();
  const JoinPlan plan = PlanFor(g, testing::PaperExampleQuery());
  ASSERT_EQ(plan.forward_sizes.size(), 5u);
  EXPECT_DOUBLE_EQ(plan.forward_sizes.back(), plan.backward_sizes.front());
  EXPECT_DOUBLE_EQ(plan.forward_sizes.front(), 1.0);  // |Q[0:0]| = |{(s)}|
}

TEST(FullEstimatorTest, CutMinimizesLevelSum) {
  const Graph g = testing::PaperExampleGraph();
  const JoinPlan plan = PlanFor(g, testing::PaperExampleQuery());
  ASSERT_GE(plan.cut, 1u);
  ASSERT_LE(plan.cut, 3u);
  const double chosen =
      plan.forward_sizes[plan.cut] + plan.backward_sizes[plan.cut];
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_LE(chosen, plan.forward_sizes[i] + plan.backward_sizes[i]);
  }
}

TEST(FullEstimatorTest, CostFormulas) {
  const Graph g = testing::PaperExampleGraph();
  const JoinPlan plan = PlanFor(g, testing::PaperExampleQuery());
  double t_dfs = 0;
  for (uint32_t i = 1; i <= 4; ++i) t_dfs += plan.forward_sizes[i];
  EXPECT_DOUBLE_EQ(plan.t_dfs, t_dfs);
  double t_join = plan.backward_sizes[0];
  for (uint32_t i = 1; i <= plan.cut; ++i) t_join += plan.forward_sizes[i];
  for (uint32_t i = plan.cut; i <= 4; ++i) t_join += plan.backward_sizes[i];
  EXPECT_DOUBLE_EQ(plan.t_join, t_join);
}

TEST(FullEstimatorTest, EmptyIndexYieldsZeroPlan) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const JoinPlan plan = PlanFor(g, {0, 3, 4});
  EXPECT_EQ(plan.cut, 0u);
  EXPECT_DOUBLE_EQ(plan.TotalWalks(), 0.0);
  EXPECT_FALSE(plan.PreferJoin());
}

class EstimatorRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EstimatorRandomTest, ExactlyCountsWalks) {
  const uint64_t seed = GetParam();
  const Graph g = ErdosRenyi(40, 200, seed);
  for (uint32_t k = 2; k <= 6; ++k) {
    const Query q{static_cast<VertexId>(seed % 40),
                  static_cast<VertexId>((seed * 11 + 3) % 40), k};
    if (q.source == q.target) continue;
    const JoinPlan plan = PlanFor(g, q);
    const double expected = CountWalksDp(g, q);
    EXPECT_DOUBLE_EQ(plan.TotalWalks(), expected)
        << "seed=" << seed << " k=" << k;
    EXPECT_DOUBLE_EQ(plan.forward_sizes.back(), plan.backward_sizes.front());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorRandomTest,
                         ::testing::Range<uint64_t>(1, 16));

// --- Level sizes against the graph -------------------------------------------

/// |Q[0:i]| and |Q[i:k]| for i = 0..k, counted on the graph alone — no
/// index and no distance field. A tuple of Q is a padded walk
/// s = v_0, ..., v_k = t whose steps are edges of the graph that never
/// enter s, except that t only steps to itself (the (t,t) padding).
/// Q[0:i] holds the i-step prefixes whose last vertex can still reach t in
/// k - i steps; Q[i:k] the (k - i)-step suffixes whose first vertex a walk
/// from s reaches in at most i steps.
struct LevelSizes {
  std::vector<double> forward;
  std::vector<double> backward;
};

LevelSizes CountLevelSizesOnGraph(const Graph& g, const Query& q) {
  const uint32_t k = q.hops;
  const VertexId n = g.num_vertices();
  // from_s[j][v] / to_t[j][v]: padded walks of exactly j steps s -> v /
  // v -> t.
  std::vector<std::vector<double>> from_s(k + 1, std::vector<double>(n));
  std::vector<std::vector<double>> to_t(k + 1, std::vector<double>(n));
  from_s[0][q.source] = 1.0;
  to_t[0][q.target] = 1.0;
  for (uint32_t j = 1; j <= k; ++j) {
    for (VertexId u = 0; u < n; ++u) {
      const auto step = [&](VertexId w) {
        from_s[j][w] += from_s[j - 1][u];
        to_t[j][u] += to_t[j - 1][w];
      };
      if (u == q.target) {
        step(q.target);
        continue;
      }
      for (const VertexId w : g.OutNeighbors(u)) {
        if (w != q.source) step(w);
      }
    }
  }
  // Walks reaching v within j steps from s (v.s <= j), and reaching t from
  // v within j steps (v.t <= j).
  const auto within = [&](const std::vector<std::vector<double>>& walks,
                          uint32_t j, VertexId v) {
    for (uint32_t l = 0; l <= j; ++l) {
      if (walks[l][v] > 0.0) return true;
    }
    return false;
  };
  LevelSizes sizes{std::vector<double>(k + 1), std::vector<double>(k + 1)};
  for (uint32_t i = 0; i <= k; ++i) {
    for (VertexId v = 0; v < n; ++v) {
      if (within(to_t, k - i, v)) sizes.forward[i] += from_s[i][v];
      if (within(from_s, i, v)) sizes.backward[i] += to_t[k - i][v];
    }
  }
  return sizes;
}

TEST(FullEstimatorTest, LevelSizesMatchGraphWalkCounts) {
  // Every |Q[0:i]| of the forward DP and |Q[i:k]| of the backward DP, and
  // the cut and prices derived from them, against counts taken from the
  // graph — for pairs within k hops, at k + 1 hops, and at dead ends.
  const Graph graphs[] = {
      testing::WithDeadEnds(ErdosRenyi(60, 200, /*seed=*/71)),
      testing::WithDeadEnds(
          BarabasiAlbert(60, 2, /*back_prob=*/0.3, /*seed=*/73)),
      testing::WithDeadEnds(LayeredGraph(/*layers=*/4, /*width=*/3)),
  };
  IndexBuilder builder;
  for (size_t gi = 0; gi < std::size(graphs); ++gi) {
    const Graph& g = graphs[gi];
    const VertexId n = g.num_vertices();
    const VertexId dead = n - 3, fresh = n - 2, pendant = n - 1;
    std::mt19937_64 rng(gi + 1);
    std::uniform_int_distribution<VertexId> pick(0, dead - 1);
    for (uint32_t k = 2; k <= 6; ++k) {
      std::vector<Query> queries = {
          {pendant, dead, k}, {fresh, dead, k},   {fresh, pendant, k},
          {dead, pick(rng), k}, {pick(rng), fresh, k},
      };
      // One pair at each distance 1..k + 1 from three sources.
      for (int round = 0; round < 3; ++round) {
        const VertexId s = pick(rng);
        for (uint32_t want = 1; want <= k + 1; ++want) {
          for (VertexId t = 0; t < n; ++t) {
            if (WithinDistance(g, s, t, want) &&
                !WithinDistance(g, s, t, want - 1)) {
              queries.push_back({s, t, k});
              break;
            }
          }
        }
      }
      for (const Query& q : queries) {
        if (q.source == q.target) continue;
        const std::string at = "graph " + std::to_string(gi) + " q(" +
                               std::to_string(q.source) + "," +
                               std::to_string(q.target) + "," +
                               std::to_string(k) + ")";
        const LevelSizes want = CountLevelSizesOnGraph(g, q);
        const JoinPlan plan = OptimizeJoinOrder(builder.Build(g, q));
        ASSERT_EQ(plan.forward_sizes.size(), k + 1) << at;
        ASSERT_EQ(plan.backward_sizes.size(), k + 1) << at;
        for (uint32_t i = 0; i <= k; ++i) {
          EXPECT_DOUBLE_EQ(plan.forward_sizes[i], want.forward[i])
              << at << " i=" << i;
          EXPECT_DOUBLE_EQ(plan.backward_sizes[i], want.backward[i])
              << at << " i=" << i;
        }
        if (want.forward[0] == 0.0) {  // s cannot reach t: an empty plan
          EXPECT_EQ(plan.cut, 0u) << at;
          EXPECT_DOUBLE_EQ(plan.t_dfs, 0.0) << at;
          EXPECT_DOUBLE_EQ(plan.t_join, 0.0) << at;
          continue;
        }
        uint32_t cut = 1;
        for (uint32_t i = 2; i < k; ++i) {
          if (want.forward[i] + want.backward[i] <
              want.forward[cut] + want.backward[cut]) {
            cut = i;
          }
        }
        double t_dfs = 0.0;
        for (uint32_t i = 1; i <= k; ++i) t_dfs += want.forward[i];
        double t_join = want.backward[0];
        for (uint32_t i = 1; i <= cut; ++i) t_join += want.forward[i];
        for (uint32_t i = cut; i <= k; ++i) t_join += want.backward[i];
        EXPECT_EQ(plan.cut, cut) << at;
        EXPECT_DOUBLE_EQ(plan.t_dfs, t_dfs) << at;
        EXPECT_DOUBLE_EQ(plan.t_join, t_join) << at;
      }
    }
  }
}

// --- Measured pricing: Eq. 1 in DFS-partial time -------------------------

/// A plan with hand-set Eq. 1 sizes.
JoinPlan SizedPlan(double t_dfs, double t_join, uint32_t cut = 2) {
  JoinPlan plan;
  plan.cut = cut;
  plan.t_dfs = t_dfs;
  plan.t_join = t_join;
  return plan;
}

TEST(PlanPricingTest, JoinTupleCostsKJoinTupleCostDfsPartials) {
  // The choice is T_DFS against kJoinTupleCost · T_JOIN: a size ratio
  // T_DFS / T_JOIN below the constant keeps IDX-DFS, one above it picks
  // IDX-JOIN.
  const double t_join = 1000.0;
  const JoinPlan below = SizedPlan(0.9 * kJoinTupleCost * t_join, t_join);
  const JoinPlan above = SizedPlan(1.1 * kJoinTupleCost * t_join, t_join);
  EXPECT_LT(below.t_join, below.t_dfs);  // unit prices would have joined
  EXPECT_FALSE(below.PreferJoin());
  EXPECT_TRUE(above.PreferJoin());
}

TEST(PlanPricingTest, NoCutNeverJoins) {
  // Without a proper cut there is no bushy plan, however cheap its sizes.
  EXPECT_FALSE(SizedPlan(1e9, 1.0, /*cut=*/0).PreferJoin());
  const JoinPlan one_hop =
      PlanFor(testing::PaperExampleGraph(),
              {testing::PaperExampleQuery().source,
               testing::PaperExampleQuery().target, 1});
  EXPECT_EQ(one_hop.cut, 0u);
  EXPECT_FALSE(one_hop.PreferJoin());
}

TEST(PlanPricingTest, PlanExecutionJoinsPastTheConstant) {
  // s fans out to 60 vertices that meet at m, which fans out to 60 chains
  // of 17 vertices into t: k = 20, |Q| = 3600. Every DFS level past the
  // second fan holds all 3600 partials, while the cut at m joins two
  // 60-wide halves, so T_DFS / T_JOIN is about 13.5. Since
  // T_DFS <= k · T_JOIN, only a k above kJoinTupleCost can get there.
  constexpr VertexId kFan = 60, kChain = 17;
  const VertexId m = kFan + 1, t = m + kFan * kChain + 1;
  GraphBuilder b(t + 1);
  for (VertexId a = 1; a <= kFan; ++a) {
    b.AddEdge(0, a);
    b.AddEdge(a, m);
  }
  for (VertexId j = 0; j < kFan; ++j) {
    VertexId prev = m;
    for (VertexId c = 0; c < kChain; ++c) {
      const VertexId v = m + 1 + j * kChain + c;
      b.AddEdge(prev, v);
      prev = v;
    }
    b.AddEdge(prev, t);
  }
  const Graph g = b.Build();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, {0, t, 20});
  const JoinPlan plan = OptimizeJoinOrder(idx);
  ASSERT_DOUBLE_EQ(plan.TotalWalks(), 3600.0);
  ASSERT_GT(plan.t_dfs, 1.5 * kJoinTupleCost * plan.t_join);

  EnumOptions opts;
  opts.tau = 0.0;  // always run the full optimizer
  QueryStats stats;
  const auto chosen = PathEnumerator::PlanExecution(idx, opts, stats);
  EXPECT_EQ(chosen.method, Method::kJoin);
  EXPECT_EQ(chosen.cut, plan.cut);
  EXPECT_DOUBLE_EQ(stats.t_dfs_cost, plan.t_dfs);  // raw Eq. 1 sizes
  EXPECT_DOUBLE_EQ(stats.t_join_cost, plan.t_join);

  // The result limit does not move the plan, so a result-cache replay
  // emits what a fresh run at another limit would.
  opts.result_limit = 100;
  QueryStats limited_stats;
  EXPECT_EQ(PathEnumerator::PlanExecution(idx, opts, limited_stats).method,
            Method::kJoin);
}

// --- Preliminary estimator ---------------------------------------------------

TEST(PreliminaryEstimatorTest, ZeroWhenIndexEmpty) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, {0, 3, 4});
  EXPECT_DOUBLE_EQ(EstimateSearchSpace(idx), 0.0);
}

TEST(PreliminaryEstimatorTest, ExactOnUniformFanout) {
  // Layered diamond: every level has identical fan-out, so the average-based
  // estimate is exact: sum_i width^i ... with the final hop to the sink.
  const Graph g = LayeredGraph(2, 3);
  IndexBuilder builder;
  const LightweightIndex idx =
      builder.Build(g, {0, static_cast<VertexId>(g.num_vertices() - 1), 3});
  // Levels: |M1| = 3 (first layer), |M2| = 9, |M3| = 9 (all reach t).
  EXPECT_DOUBLE_EQ(EstimateSearchSpace(idx), 3 + 9 + 9);
}

TEST(PreliminaryEstimatorTest, PositiveAndFiniteOnExample) {
  const Graph g = testing::PaperExampleGraph();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, testing::PaperExampleQuery());
  const double t_hat = EstimateSearchSpace(idx);
  EXPECT_GT(t_hat, 0.0);
  EXPECT_TRUE(std::isfinite(t_hat));
  // A crude sanity bound: the estimate is within two orders of magnitude of
  // the true search-space size (sum over levels of |~M_i| <= k * delta_W).
  EXPECT_LT(t_hat, 100.0 * 4 * 6);
}

TEST(PreliminaryEstimatorTest, GrowsWithHopBudget) {
  const Graph g = ErdosRenyi(200, 3000, 5);
  IndexBuilder builder;
  double prev = 0.0;
  for (uint32_t k = 3; k <= 6; ++k) {
    const LightweightIndex idx = builder.Build(g, {0, 100, k});
    const double t_hat = EstimateSearchSpace(idx);
    EXPECT_GE(t_hat, prev * 0.5) << "estimate should broadly grow with k";
    prev = t_hat;
  }
}

}  // namespace
}  // namespace pathenum
