// Tests for the split IDX-DFS fan-out — one query run through
// QueryEngine::RunBatch with split_branches, its first-level branches
// drained by every worker of the engine — and the triggered-cycle API.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/cycles.h"
#include "core/dfs_enumerator.h"
#include "core/path_enum.h"
#include "core/reference.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "test_util.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

/// Runs `q` as one split IDX-DFS query on a `workers`-worker engine (the
/// engine caps the count at the host's cores) into `sink`.
QueryStats RunSplitDfs(const Graph& g, const Query& q, uint32_t workers,
                       PathSink& sink, const EnumOptions& opts = {}) {
  QueryEngine engine(g, {.num_workers = workers});
  BatchOptions batch;
  batch.query = opts;
  batch.query.method = Method::kDfs;  // the branch fan-out under test
  batch.split_branches = true;
  PathSink* sinks[] = {&sink};
  const BatchResult result =
      engine.RunBatch(std::span<const Query>{&q, 1}, sinks, batch);
  EXPECT_TRUE(result.ok()) << result.errors[0];
  EXPECT_EQ(result.stats[0].method, Method::kDfs);
  return result.stats[0];
}

/// The split run's paths as a set; every path is delivered exactly once.
PathSet SplitCollect(const Graph& g, const Query& q, uint32_t workers,
                     QueryStats* out_stats = nullptr,
                     const EnumOptions& opts = {}) {
  CollectingSink sink;
  const QueryStats stats = RunSplitDfs(g, q, workers, sink, opts);
  if (out_stats != nullptr) *out_stats = stats;
  const PathSet merged = ToSet(sink.paths());
  EXPECT_EQ(sink.paths().size(), merged.size())
      << "branches must deliver disjoint path sets";
  return merged;
}

class SplitDfsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SplitDfsTest, MatchesSequentialOnExample) {
  const Graph g = testing::PaperExampleGraph();
  const Query q = testing::PaperExampleQuery();
  const PathSet expected = ToSet(BruteForcePaths(g, q));
  EXPECT_EQ(SplitCollect(g, q, GetParam()), expected);
}

TEST_P(SplitDfsTest, MatchesSequentialOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = RMat(6, 300, seed * 7);
    const Query q{static_cast<VertexId>(seed % 64),
                  static_cast<VertexId>((seed * 37 + 5) % 64), 5};
    if (q.source == q.target) continue;
    IndexBuilder builder;
    const LightweightIndex idx = builder.Build(g, q);
    DfsEnumerator sequential(idx);
    CollectingSink seq_sink;
    sequential.Run(seq_sink, {});
    EXPECT_EQ(SplitCollect(g, q, GetParam()), ToSet(seq_sink.paths()))
        << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, SplitDfsTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(SplitDfsTest, CountersAgreeWithSequential) {
  const Graph g = CompleteDigraph(10);
  const Query q{0, 9, 4};
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  DfsEnumerator sequential(idx);
  CountingSink seq_sink;
  const EnumCounters seq = sequential.Run(seq_sink, {});
  CountingSink split_sink;
  const QueryStats split = RunSplitDfs(g, q, 4, split_sink);
  EXPECT_EQ(split.counters.num_results, seq.num_results);
  EXPECT_EQ(split_sink.count(), seq.num_results);
  EXPECT_EQ(split.counters.partials, seq.partials);
  EXPECT_EQ(split.counters.edges_accessed, seq.edges_accessed);
}

TEST(SplitDfsTest, ResultLimitIsExactAcrossWorkers) {
  const Graph g = LayeredGraph(3, 5);  // 125 paths
  const Query q{0, static_cast<VertexId>(g.num_vertices() - 1), 4};
  EnumOptions opts;
  opts.result_limit = 40;
  QueryStats stats;
  const PathSet got = SplitCollect(g, q, 4, &stats, opts);
  EXPECT_EQ(got.size(), 40u);
  EXPECT_TRUE(stats.counters.hit_result_limit);
}

TEST(SplitDfsTest, ExactLimitBoundaryNeverOvershoots) {
  // The merge-barrier regression: at limits exactly at / one under the
  // full result count, delivered must equal the limit — never limit + 1 —
  // and the truncation flags must match the sequential enumerator's.
  const Graph g = LayeredGraph(3, 5);  // 125 paths
  const Query q{0, static_cast<VertexId>(g.num_vertices() - 1), 4};
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  for (const uint64_t limit : {125u, 124u, 1u}) {
    EnumOptions opts;
    opts.result_limit = limit;
    DfsEnumerator sequential(idx);
    CountingSink seq_sink;
    const EnumCounters seq = sequential.Run(seq_sink, opts);
    QueryStats stats;
    const PathSet got = SplitCollect(g, q, 4, &stats, opts);
    EXPECT_EQ(got.size(), limit) << "limit=" << limit;
    EXPECT_EQ(stats.counters.num_results, seq.num_results);
    EXPECT_EQ(stats.counters.hit_result_limit, seq.hit_result_limit)
        << "limit=" << limit;
    EXPECT_EQ(stats.counters.stopped_by_sink, seq.stopped_by_sink)
        << "limit=" << limit;
  }
}

TEST(SplitDfsTest, ResponseTargetRecordedOnce) {
  const Graph g = LayeredGraph(3, 5);
  const Query q{0, static_cast<VertexId>(g.num_vertices() - 1), 4};
  EnumOptions opts;
  opts.response_target = 50;
  CountingSink sink;
  const QueryStats stats = RunSplitDfs(g, q, 4, sink, opts);
  EXPECT_EQ(stats.counters.num_results, 125u);
  EXPECT_GE(stats.counters.response_ms, 0.0);
}

TEST(SplitDfsTest, EmptyIndexYieldsNothing) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  CountingSink sink;
  const QueryStats stats = RunSplitDfs(g, {0, 3, 4}, 4, sink);
  EXPECT_EQ(stats.counters.num_results, 0u);
  EXPECT_EQ(sink.count(), 0u);
  // No fan-out ran: not even the root partial was charged.
  EXPECT_EQ(stats.counters.partials, 0u);
  EXPECT_EQ(stats.counters.edges_accessed, 0u);
}

TEST(SplitDfsTest, WorkBudgetIsPerQuery) {
  // s -> 500 middle vertices -> 20 leaves each -> t: 10,000 paths of three
  // hops over 500 small branches (about 41 edges each). A 5,000-edge
  // budget truncates the serial run, and must truncate the split one too:
  // each branch alone stays far inside the budget, the query does not.
  constexpr VertexId kMiddle = 500, kLeaves = 20;
  const VertexId s = 0, t = 1 + kMiddle + kMiddle * kLeaves;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId m = 1; m <= kMiddle; ++m) {
    edges.push_back({s, m});
    for (VertexId j = 0; j < kLeaves; ++j) {
      const VertexId leaf = 1 + kMiddle + (m - 1) * kLeaves + j;
      edges.push_back({m, leaf});
      edges.push_back({leaf, t});
    }
  }
  const Graph g = Graph::FromEdges(t + 1, edges);
  const Query q{s, t, 3};
  EnumOptions opts;
  opts.method = Method::kDfs;
  opts.work_budget_edges = 5000;

  PathEnumerator serial(g);
  CountingSink serial_sink;
  const QueryStats serial_stats = serial.Run(q, serial_sink, opts);
  EXPECT_EQ(serial_stats.counters.TerminalState(), QueryState::kTruncated);
  EXPECT_LT(serial_sink.count(), 10'000u);

  for (const uint32_t workers : {1u, 4u}) {
    CountingSink sink;
    const QueryStats stats = RunSplitDfs(g, q, workers, sink, opts);
    EXPECT_TRUE(stats.counters.work_exceeded) << workers << " workers";
    EXPECT_EQ(stats.counters.TerminalState(), QueryState::kTruncated)
        << workers << " workers";
    EXPECT_LT(sink.count(), 10'000u) << workers << " workers";
  }
  // Without a budget the same split query delivers every path.
  CountingSink all;
  EXPECT_EQ(RunSplitDfs(g, q, 4, all).counters.TerminalState(),
            QueryState::kOk);
  EXPECT_EQ(all.count(), 10'000u);
}

TEST(SplitDfsTest, DirectEdgeBranchHandled) {
  // t itself is a first-level branch when the edge (s, t) exists.
  const Graph g = Graph::FromEdges(3, {{0, 2}, {0, 1}, {1, 2}});
  EXPECT_EQ(SplitCollect(g, {0, 2, 2}, 2), (PathSet{{0, 2}, {0, 1, 2}}));
}

// --- Triggered cycles ---------------------------------------------------------

TEST(CycleApiTest, ClosesThePaperExamplePaths) {
  // Cycles through a hypothetical edge (t, s): each s-t path plus that
  // edge, emitted as (t, s, ..., t).
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CollectingSink sink;
  EnumerateTriggeredCycles(pe, testing::kT, testing::kS, 5, sink);
  ASSERT_EQ(sink.paths().size(), 5u);
  for (const auto& c : sink.paths()) {
    EXPECT_EQ(c.front(), testing::kT);
    EXPECT_EQ(c.back(), testing::kT);
    EXPECT_EQ(c[1], testing::kS);
    EXPECT_LE(c.size(), 6u + 1u);
    std::set<VertexId> interior(c.begin() + 1, c.end() - 1);
    EXPECT_EQ(interior.size(), c.size() - 2) << "cycle must be simple";
  }
}

TEST(CycleApiTest, MatchesManualReduction) {
  const Graph g = RMat(5, 150, 44);
  PathEnumerator pe(g);
  for (VertexId u = 0; u < 8; ++u) {
    for (const VertexId v : g.OutNeighbors(u)) {
      CountingSink cycles;
      EnumerateTriggeredCycles(pe, u, v, 5, cycles);
      EXPECT_EQ(cycles.count(), CountPathsBruteForce(g, {v, u, 4}))
          << u << "->" << v;
      break;  // one edge per source suffices
    }
  }
}

TEST(CycleApiTest, SelfLoopYieldsNothing) {
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CountingSink sink;
  const QueryStats stats = EnumerateTriggeredCycles(pe, 3, 3, 6, sink);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(stats.counters.num_results, 0u);
}

TEST(CycleApiTest, HopBoundRespected) {
  const Graph g = CycleGraph(6);
  PathEnumerator pe(g);
  // The ring is one 6-cycle; asking through edge (0,1) with max 6 finds
  // it, with max 5 does not.
  CountingSink found;
  EnumerateTriggeredCycles(pe, 0, 1, 6, found);
  EXPECT_EQ(found.count(), 1u);
  CountingSink missed;
  EnumerateTriggeredCycles(pe, 0, 1, 5, missed);
  EXPECT_EQ(missed.count(), 0u);
  EXPECT_THROW(EnumerateTriggeredCycles(pe, 0, 1, 1, missed),
               std::logic_error);
}

}  // namespace
}  // namespace pathenum
