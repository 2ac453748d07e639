// Tests for the Appendix-E constraint extensions: edge predicates,
// accumulative values (Alg. 7) and label-sequence automata (Alg. 8),
// validated against filtered brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/path_enum.h"
#include "core/reference.h"
#include "graph/builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

/// A weighted+labeled diamond-ish fixture:
///   0 -> 1 (w=1, risky) -> 3 (w=1, safe)
///   0 -> 2 (w=5, safe)  -> 3 (w=5, risky)
///   1 -> 2 (w=1, risky), 0 -> 3 (w=10, safe)
/// labels: 0 = safe, 1 = risky.
Graph MoneyGraph() {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0, 1);
  b.AddEdge(1, 3, 1.0, 0);
  b.AddEdge(0, 2, 5.0, 0);
  b.AddEdge(2, 3, 5.0, 1);
  b.AddEdge(1, 2, 1.0, 1);
  b.AddEdge(0, 3, 10.0, 0);
  return b.Build();
}

double PathWeight(const Graph& g, const std::vector<VertexId>& p) {
  double w = 0;
  for (size_t i = 1; i < p.size(); ++i) {
    w += g.EdgeWeight(g.FindEdge(p[i - 1], p[i]));
  }
  return w;
}

TEST(EdgePredicateTest, FiltersDuringIndexBuild) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  // Keep only edges with weight < 4: kills 0->2, 2->3, 0->3.
  const EdgeFilter filter = [&](VertexId, VertexId, EdgeId e) {
    return g.EdgeWeight(e) < 4.0;
  };
  PathConstraints constraints;
  constraints.edge_filter = &filter;
  CollectingSink sink;
  pe.RunConstrained({0, 3, 3}, constraints, sink);
  EXPECT_EQ(ToSet(sink.paths()), (PathSet{{0, 1, 3}}));
}

TEST(EdgePredicateTest, NoFilterEqualsPlainRun) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  PathConstraints none;
  CollectingSink a, b;
  pe.RunConstrained({0, 3, 3}, none, a);
  pe.Run({0, 3, 3}, b);
  EXPECT_EQ(ToSet(a.paths()), ToSet(b.paths()));
  EXPECT_EQ(a.paths().size(), 4u);  // 0-3, 0-1-3, 0-2-3, 0-1-2-3
}

TEST(AccumulativeTest, SumAboveThreshold) {
  // The money-laundering motivation: total risk (weight) >= 6.
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  AccumulativeConstraint acc;
  acc.init = 0.0;
  acc.combine = [](double a, double b) { return a + b; };
  acc.accept = [](double v) { return v >= 6.0; };
  PathConstraints constraints;
  constraints.accumulative = &acc;
  CollectingSink sink;
  pe.RunConstrained({0, 3, 3}, constraints, sink);
  for (const auto& p : sink.paths()) {
    EXPECT_GE(PathWeight(g, p), 6.0);
  }
  // 0-3 (10), 0-2-3 (10), 0-1-2-3 (7) pass; 0-1-3 (2) fails.
  EXPECT_EQ(sink.paths().size(), 3u);
}

TEST(AccumulativeTest, SumBelowThresholdWithMonotonePruning) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  AccumulativeConstraint acc;
  acc.init = 0.0;
  acc.combine = [](double a, double b) { return a + b; };
  acc.accept = [](double v) { return v <= 4.0; };
  // Nonnegative weights: a partial sum already above the bound can never
  // recover — Alg. 7's pruning discussion.
  acc.prune = [](double v) { return v > 4.0; };
  PathConstraints constraints;
  constraints.accumulative = &acc;
  CollectingSink sink;
  const QueryStats stats = pe.RunConstrained({0, 3, 3}, constraints, sink);
  EXPECT_EQ(ToSet(sink.paths()), (PathSet{{0, 1, 3}}));
  // Pruning must cut the search below the unconstrained partial count.
  CollectingSink unpruned;
  PathConstraints none;
  const QueryStats base = pe.RunConstrained({0, 3, 3}, none, unpruned);
  EXPECT_LT(stats.counters.partials, base.counters.partials);
}

TEST(AccumulativeTest, MultiplicativeCombine) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  AccumulativeConstraint acc;
  acc.init = 1.0;
  acc.combine = [](double a, double b) { return a * b; };
  acc.accept = [](double v) { return v >= 25.0; };
  PathConstraints constraints;
  constraints.accumulative = &acc;
  CollectingSink sink;
  pe.RunConstrained({0, 3, 3}, constraints, sink);
  // Products: 0-3: 10; 0-1-3: 1; 0-2-3: 25; 0-1-2-3: 5.
  EXPECT_EQ(ToSet(sink.paths()), (PathSet{{0, 2, 3}}));
}

TEST(AccumulativeTest, RequiresWeights) {
  const Graph g = testing::PaperExampleGraph();  // unweighted
  PathEnumerator pe(g);
  AccumulativeConstraint acc;
  acc.combine = [](double a, double b) { return a + b; };
  acc.accept = [](double) { return true; };
  PathConstraints constraints;
  constraints.accumulative = &acc;
  CollectingSink sink;
  EXPECT_THROW(
      pe.RunConstrained(testing::PaperExampleQuery(), constraints, sink),
      std::logic_error);
}

// --- Label automata ---------------------------------------------------------

TEST(LabelAutomatonTest, ExactSequence) {
  const std::vector<uint32_t> seq{1, 0};
  const LabelAutomaton a = LabelAutomaton::ExactSequence(seq, 2);
  EXPECT_EQ(a.num_states(), 3u);
  EXPECT_EQ(a.start_state(), 0u);
  uint32_t state = a.start_state();
  state = a.Next(state, 1);
  ASSERT_NE(state, LabelAutomaton::kDead);
  EXPECT_FALSE(a.IsAccepting(state));
  state = a.Next(state, 0);
  ASSERT_NE(state, LabelAutomaton::kDead);
  EXPECT_TRUE(a.IsAccepting(state));
  EXPECT_EQ(a.Next(state, 0), LabelAutomaton::kDead);
  EXPECT_EQ(a.Next(a.start_state(), 0), LabelAutomaton::kDead);
}

TEST(LabelAutomatonTest, AtLeastCountSaturates) {
  const LabelAutomaton a = LabelAutomaton::AtLeastCount(1, 2, 3);
  uint32_t state = a.start_state();
  EXPECT_FALSE(a.IsAccepting(state));
  state = a.Next(state, 1);
  EXPECT_FALSE(a.IsAccepting(state));
  state = a.Next(state, 0);  // other labels self-loop
  EXPECT_FALSE(a.IsAccepting(state));
  state = a.Next(state, 1);
  EXPECT_TRUE(a.IsAccepting(state));
  state = a.Next(state, 1);  // saturation
  EXPECT_TRUE(a.IsAccepting(state));
}

TEST(LabelAutomatonTest, SequenceConstraintOnPaths) {
  // Paths whose label sequence is exactly (risky, safe): only 0-1-3.
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  const std::vector<uint32_t> seq{1, 0};
  const LabelAutomaton a = LabelAutomaton::ExactSequence(seq, 2);
  PathConstraints constraints;
  constraints.automaton = &a;
  CollectingSink sink;
  pe.RunConstrained({0, 3, 3}, constraints, sink);
  EXPECT_EQ(ToSet(sink.paths()), (PathSet{{0, 1, 3}}));
}

TEST(LabelAutomatonTest, AtLeastCountConstraintOnPaths) {
  // Paths with at least two risky edges: 0-1-2-3 (risky,risky,risky... the
  // labels are 1,1,1) and 0-2-3 has exactly one risky edge -> excluded.
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  const LabelAutomaton a = LabelAutomaton::AtLeastCount(1, 2, 2);
  PathConstraints constraints;
  constraints.automaton = &a;
  CollectingSink sink;
  pe.RunConstrained({0, 3, 3}, constraints, sink);
  EXPECT_EQ(ToSet(sink.paths()), (PathSet{{0, 1, 2, 3}}));
}

TEST(LabelAutomatonTest, DeadStatePrunesSearch) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  // Sequence (safe, safe): no path matches (0-3 is length 1: sequence
  // (safe) only; 0-2-3 is (safe, risky)).
  const std::vector<uint32_t> seq{0, 0};
  const LabelAutomaton a = LabelAutomaton::ExactSequence(seq, 2);
  PathConstraints constraints;
  constraints.automaton = &a;
  CollectingSink sink;
  pe.RunConstrained({0, 3, 3}, constraints, sink);
  EXPECT_TRUE(sink.paths().empty());
}

TEST(LabelAutomatonTest, RequiresLabels) {
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  const LabelAutomaton a = LabelAutomaton::AtLeastCount(0, 1, 1);
  PathConstraints constraints;
  constraints.automaton = &a;
  CollectingSink sink;
  EXPECT_THROW(
      pe.RunConstrained(testing::PaperExampleQuery(), constraints, sink),
      std::logic_error);
}

TEST(CombinedConstraintsTest, PredicatePlusAccumulativePlusAutomaton) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  const EdgeFilter filter = [&](VertexId, VertexId, EdgeId e) {
    return g.EdgeWeight(e) < 8.0;  // kills the direct 0->3
  };
  AccumulativeConstraint acc;
  acc.init = 0.0;
  acc.combine = [](double a, double b) { return a + b; };
  acc.accept = [](double v) { return v >= 5.0; };
  const LabelAutomaton a = LabelAutomaton::AtLeastCount(1, 1, 2);
  PathConstraints constraints;
  constraints.edge_filter = &filter;
  constraints.accumulative = &acc;
  constraints.automaton = &a;
  CollectingSink sink;
  pe.RunConstrained({0, 3, 3}, constraints, sink);
  // Survivors of all three: 0-2-3 (w=10, risky edge) and 0-1-2-3 (w=7,
  // risky edges).
  EXPECT_EQ(ToSet(sink.paths()), (PathSet{{0, 2, 3}, {0, 1, 2, 3}}));
}

TEST(ConstrainedCountersTest, ResponseAndLimits) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  PathConstraints none;
  EnumOptions opts;
  opts.result_limit = 2;
  CollectingSink sink;
  const QueryStats stats = pe.RunConstrained({0, 3, 3}, none, sink, opts);
  EXPECT_EQ(stats.counters.num_results, 2u);
  EXPECT_TRUE(stats.counters.hit_result_limit);
}

// --- Randomized equivalence against filtered brute force --------------------

/// Random weighted + labeled graph: weights in (0, 1], labels in {0, 1, 2}.
Graph RandomAttributedGraph(uint64_t seed, VertexId n, uint64_t m) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (uint64_t i = 0; i < m; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    b.AddEdge(u, v, 0.05 + rng.NextDouble(),
              static_cast<uint32_t>(rng.NextBounded(3)));
  }
  return b.Build();
}

double SumWeights(const Graph& g, const std::vector<VertexId>& p) {
  double w = 0;
  for (size_t i = 1; i < p.size(); ++i) {
    w += g.EdgeWeight(g.FindEdge(p[i - 1], p[i]));
  }
  return w;
}

uint32_t CountLabel(const Graph& g, const std::vector<VertexId>& p,
                    uint32_t label) {
  uint32_t c = 0;
  for (size_t i = 1; i < p.size(); ++i) {
    if (g.EdgeLabel(g.FindEdge(p[i - 1], p[i])) == label) ++c;
  }
  return c;
}

class ConstraintRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConstraintRandomTest, PredicateEqualsFilteredBruteForce) {
  const uint64_t seed = GetParam();
  const Graph g = RandomAttributedGraph(seed, 30, 170);
  const Query q{static_cast<VertexId>(seed % 30),
                static_cast<VertexId>((seed * 7 + 11) % 30), 4};
  if (q.source == q.target) return;
  // Predicate: drop heavy edges.
  const EdgeFilter filter = [&](VertexId, VertexId, EdgeId e) {
    return g.EdgeWeight(e) <= 0.6;
  };
  PathEnumerator pe(g);
  PathConstraints constraints;
  constraints.edge_filter = &filter;
  CollectingSink sink;
  pe.RunConstrained(q, constraints, sink);
  PathSet expected;
  for (const auto& p : BruteForcePaths(g, q)) {
    bool ok = true;
    for (size_t i = 1; i < p.size() && ok; ++i) {
      ok = g.EdgeWeight(g.FindEdge(p[i - 1], p[i])) <= 0.6;
    }
    if (ok) expected.insert(p);
  }
  EXPECT_EQ(ToSet(sink.paths()), expected) << "seed=" << seed;
}

TEST_P(ConstraintRandomTest, AccumulativeEqualsFilteredBruteForce) {
  const uint64_t seed = GetParam();
  const Graph g = RandomAttributedGraph(seed, 28, 150);
  const Query q{static_cast<VertexId>((seed * 3) % 28),
                static_cast<VertexId>((seed * 13 + 5) % 28), 5};
  if (q.source == q.target) return;
  const double threshold = 1.2;
  AccumulativeConstraint acc;
  acc.init = 0.0;
  acc.combine = [](double a, double b) { return a + b; };
  acc.accept = [&](double v) { return v <= threshold; };
  acc.prune = [&](double v) { return v > threshold; };  // nonneg weights
  PathEnumerator pe(g);
  PathConstraints constraints;
  constraints.accumulative = &acc;
  CollectingSink sink;
  pe.RunConstrained(q, constraints, sink);
  PathSet expected;
  for (const auto& p : BruteForcePaths(g, q)) {
    if (SumWeights(g, p) <= threshold) expected.insert(p);
  }
  EXPECT_EQ(ToSet(sink.paths()), expected) << "seed=" << seed;
}

TEST_P(ConstraintRandomTest, AutomatonEqualsFilteredBruteForce) {
  const uint64_t seed = GetParam();
  const Graph g = RandomAttributedGraph(seed, 26, 140);
  const Query q{static_cast<VertexId>((seed * 5) % 26),
                static_cast<VertexId>((seed * 17 + 3) % 26), 5};
  if (q.source == q.target) return;
  const LabelAutomaton a = LabelAutomaton::AtLeastCount(1, 2, 3);
  PathEnumerator pe(g);
  PathConstraints constraints;
  constraints.automaton = &a;
  CollectingSink sink;
  pe.RunConstrained(q, constraints, sink);
  PathSet expected;
  for (const auto& p : BruteForcePaths(g, q)) {
    if (CountLabel(g, p, 1) >= 2) expected.insert(p);
  }
  EXPECT_EQ(ToSet(sink.paths()), expected) << "seed=" << seed;
}

TEST_P(ConstraintRandomTest, AllThreeCombinedEqualsFilteredBruteForce) {
  const uint64_t seed = GetParam();
  const Graph g = RandomAttributedGraph(seed, 24, 130);
  const Query q{static_cast<VertexId>((seed * 11) % 24),
                static_cast<VertexId>((seed * 19 + 7) % 24), 4};
  if (q.source == q.target) return;
  const EdgeFilter filter = [&](VertexId, VertexId, EdgeId e) {
    return g.EdgeWeight(e) <= 0.9;
  };
  AccumulativeConstraint acc;
  acc.init = 0.0;
  acc.combine = [](double a, double b) { return a + b; };
  acc.accept = [](double v) { return v >= 0.3; };
  const LabelAutomaton a = LabelAutomaton::AtLeastCount(2, 1, 3);
  PathEnumerator pe(g);
  PathConstraints constraints;
  constraints.edge_filter = &filter;
  constraints.accumulative = &acc;
  constraints.automaton = &a;
  CollectingSink sink;
  pe.RunConstrained(q, constraints, sink);
  PathSet expected;
  for (const auto& p : BruteForcePaths(g, q)) {
    bool light = true;
    for (size_t i = 1; i < p.size() && light; ++i) {
      light = g.EdgeWeight(g.FindEdge(p[i - 1], p[i])) <= 0.9;
    }
    if (light && SumWeights(g, p) >= 0.3 && CountLabel(g, p, 2) >= 1) {
      expected.insert(p);
    }
  }
  EXPECT_EQ(ToSet(sink.paths()), expected) << "seed=" << seed;
}

TEST_P(ConstraintRandomTest, JoinSideExtensionMatchesDfsAtEveryCut) {
  // Appendix E's join-side evaluation: accumulative values merged across
  // halves, automaton replayed post-join. Must equal the constrained DFS.
  const uint64_t seed = GetParam();
  const Graph g = RandomAttributedGraph(seed, 26, 150);
  const Query q{static_cast<VertexId>((seed * 9) % 26),
                static_cast<VertexId>((seed * 23 + 1) % 26), 5};
  if (q.source == q.target) return;
  AccumulativeConstraint acc;
  acc.init = 0.0;  // identity of + : required by the join-side fold
  acc.combine = [](double a, double b) { return a + b; };
  acc.accept = [](double v) { return v >= 0.8; };
  const LabelAutomaton a = LabelAutomaton::AtLeastCount(0, 1, 3);
  PathConstraints constraints;
  constraints.accumulative = &acc;
  constraints.automaton = &a;

  IndexBuilder builder;
  IndexBuildOptions build_opts;  // defaults keep the edge ids both read
  const LightweightIndex idx = builder.Build(g, q, build_opts);
  ConstrainedDfsEnumerator dfs(g, idx, constraints);
  CollectingSink dfs_sink;
  dfs.Run(dfs_sink, {});
  const PathSet expected = ToSet(dfs_sink.paths());

  for (uint32_t cut = 1; cut < q.hops; ++cut) {
    ConstrainedJoinEnumerator join(g, idx, constraints);
    CollectingSink join_sink;
    join.Run(cut, join_sink, {});
    EXPECT_EQ(ToSet(join_sink.paths()), expected)
        << "seed=" << seed << " cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstraintRandomTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ConstrainedJoinTest, DriverHonorsForcedJoin) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  AccumulativeConstraint acc;
  acc.init = 0.0;
  acc.combine = [](double a, double b) { return a + b; };
  acc.accept = [](double v) { return v >= 6.0; };
  PathConstraints constraints;
  constraints.accumulative = &acc;
  CollectingSink dfs_sink, join_sink;
  pe.RunConstrained({0, 3, 3}, constraints, dfs_sink);
  EnumOptions join_opts;
  join_opts.method = Method::kJoin;
  const QueryStats stats =
      pe.RunConstrained({0, 3, 3}, constraints, join_sink, join_opts);
  EXPECT_EQ(stats.method, Method::kJoin);
  EXPECT_GE(stats.cut_position, 1u);
  EXPECT_EQ(ToSet(join_sink.paths()), ToSet(dfs_sink.paths()));
}

TEST(ConstrainedJoinTest, PredicatePushdownWorksThroughJoin) {
  const Graph g = MoneyGraph();
  PathEnumerator pe(g);
  const EdgeFilter filter = [&](VertexId, VertexId, EdgeId e) {
    return g.EdgeWeight(e) < 8.0;
  };
  PathConstraints constraints;
  constraints.edge_filter = &filter;
  CollectingSink sink;
  EnumOptions opts;
  opts.method = Method::kJoin;
  pe.RunConstrained({0, 3, 3}, constraints, sink, opts);
  EXPECT_EQ(ToSet(sink.paths()),
            (PathSet{{0, 1, 3}, {0, 2, 3}, {0, 1, 2, 3}}));
}

}  // namespace
}  // namespace pathenum
