// End-to-end integration tests: catalog datasets driven through the full
// PathEnum pipeline and the baselines, the dynamic-graph (cycle detection)
// scenario of Fig. 8, and consistency across repeated sessions.
#include <gtest/gtest.h>

#include <set>

#include "baselines/algorithm.h"
#include "core/path_enum.h"
#include "graph/builder.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

/// Shared scaled-down dataset for the heavier tests.
const Graph& EpGraph() {
  static const Graph* g = new Graph(MakeDataset("ep", 0.1));
  return *g;
}

TEST(IntegrationTest, EpWorkloadAllAlgorithmsAgree) {
  const Graph& g = EpGraph();
  QueryGenOptions qopts;
  qopts.count = 6;
  qopts.hops = 4;
  qopts.seed = 5;
  const auto queries = GenerateQueries(g, qopts);
  ASSERT_GT(queries.size(), 0u);
  EnumOptions opts;
  opts.result_limit = 200000;
  for (const Query& q : queries) {
    PathSet reference;
    bool first = true;
    // Fast algorithms only (T-DFS/Yen are checked on small graphs).
    for (const std::string name :
         {"GenericDFS", "BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN",
          "PathEnum"}) {
      const auto algo = MakeAlgorithm(name, g);
      CollectingSink sink;
      const QueryStats stats = algo->Run(q, sink, opts);
      if (stats.counters.hit_result_limit) return;  // too dense to compare
      const PathSet got = ToSet(sink.paths());
      if (first) {
        reference = got;
        first = false;
      } else {
        EXPECT_EQ(got.size(), reference.size()) << name;
        EXPECT_EQ(got, reference) << name;
      }
    }
  }
}

TEST(IntegrationTest, SessionReuseIsConsistent) {
  const Graph& g = EpGraph();
  PathEnumerator pe(g);
  QueryGenOptions qopts;
  qopts.count = 10;
  qopts.hops = 4;
  qopts.seed = 21;
  const auto queries = GenerateQueries(g, qopts);
  EnumOptions opts;
  opts.result_limit = 50000;
  // Interleave the same queries twice through one session: counts match.
  std::vector<uint64_t> first_counts;
  for (const Query& q : queries) {
    CountingSink sink;
    pe.Run(q, sink, opts);
    first_counts.push_back(sink.count());
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    CountingSink sink;
    pe.Run(queries[i], sink, opts);
    EXPECT_EQ(sink.count(), first_counts[i]) << "query " << i;
  }
}

TEST(IntegrationTest, ThroughputAndResponseMetricsPopulated) {
  const Graph& g = EpGraph();
  PathEnumerator pe(g);
  QueryGenOptions qopts;
  qopts.count = 3;
  qopts.hops = 5;
  qopts.seed = 8;
  EnumOptions opts;
  opts.time_limit_ms = 2000.0;
  for (const Query& q : GenerateQueries(g, qopts)) {
    CountingSink sink;
    const QueryStats stats = pe.Run(q, sink, opts);
    if (stats.counters.num_results > 0) {
      EXPECT_GT(stats.ThroughputPerSec(), 0.0);
    }
    EXPECT_GT(stats.total_ms, 0.0);
  }
}

// The Fig. 8 scenario: remove 10% of edges as "updates"; for each update
// edge (v, v'), enumerate the cycles it would close via q(v', v, k-1) on
// the current graph, then apply the update by rebuilding.
TEST(IntegrationTest, DynamicCycleDetectionScenario) {
  const Graph full = MakeDataset("tw", 0.05);
  Rng rng(31);
  // Collect and split the edge set.
  std::vector<std::pair<VertexId, VertexId>> updates;
  GraphBuilder base(full.num_vertices());
  for (VertexId u = 0; u < full.num_vertices(); ++u) {
    for (const VertexId v : full.OutNeighbors(u)) {
      if (updates.size() < 20 && rng.NextBool(0.1)) {
        updates.push_back({u, v});
      } else {
        base.AddEdge(u, v);
      }
    }
  }
  ASSERT_GT(updates.size(), 5u);
  Graph current = base.Build();
  EnumOptions opts;
  opts.result_limit = 10000;
  uint64_t total_cycles = 0;
  for (const auto& [u, v] : updates) {
    // Cycles closed by inserting (u, v): paths v -> u of length <= k-1.
    PathEnumerator pe(current);
    CollectingSink sink;
    if (u != v) {
      pe.Run({v, u, 5}, sink, opts);
      for (const auto& p : sink.paths()) {
        EXPECT_EQ(p.front(), v);
        EXPECT_EQ(p.back(), u);
        EXPECT_LE(p.size(), 6u);
      }
      total_cycles += sink.paths().size();
    }
    // Apply the update (batch rebuild — the supported dynamic pattern).
    GraphBuilder next(current.num_vertices());
    next.AddGraph(current);
    next.AddEdge(u, v);
    current = next.Build();
  }
  EXPECT_EQ(current.num_edges(), full.num_edges());
  (void)total_cycles;  // workload-dependent; zero is legitimate
}

TEST(IntegrationTest, CatalogSmokeAllSmallDatasets) {
  // Every catalog graph (at a small scale) runs one PathEnum query
  // end-to-end without error.
  for (const DatasetSpec& spec : PaperCatalog()) {
    if (spec.name == "tm") continue;  // the scalability graph is big
    const Graph g = MakeDataset(spec, 0.02);
    if (g.num_vertices() < 10) continue;
    QueryGenOptions qopts;
    qopts.count = 1;
    qopts.hops = 4;
    qopts.seed = 13;
    const auto queries = GenerateQueries(g, qopts);
    if (queries.empty()) continue;
    PathEnumerator pe(g);
    CountingSink sink;
    EnumOptions opts;
    opts.time_limit_ms = 2000.0;
    const QueryStats stats = pe.Run(queries[0], sink, opts);
    EXPECT_GE(stats.counters.num_results, 1u)
        << spec.name << ": dist(s,t) <= 3 guarantees a result";
  }
}

TEST(IntegrationTest, HardQueryRespectsTimeLimitAcrossAlgorithms) {
  const Graph g = MakeDataset("ye", 0.05);
  QueryGenOptions qopts;
  qopts.count = 1;
  qopts.hops = 8;
  qopts.seed = 2;
  const auto queries = GenerateQueries(g, qopts);
  if (queries.empty()) GTEST_SKIP() << "no query found";
  // The query has over 10^8 paths: finishing inside the 100 ms deadline
  // would take 10^9 paths a second. So every algorithm must stop at the
  // deadline and report it. One that ignored its deadline would run on to
  // completion and fail here, or hang into the suite's ctest TIMEOUT.
  {
    PathEnumerator pe(g);
    CountingSink sink;
    EnumOptions probe;
    probe.result_limit = 100'000'000;
    ASSERT_TRUE(pe.Run(queries[0], sink, probe).counters.hit_result_limit);
  }
  EnumOptions opts;
  opts.time_limit_ms = 100.0;
  for (const std::string& name : Table3AlgorithmNames()) {
    const auto algo = MakeAlgorithm(name, g);
    CountingSink sink;
    const QueryStats stats = algo->Run(queries[0], sink, opts);
    const EnumCounters& c = stats.counters;
    EXPECT_FALSE(c.completed()) << name;
    EXPECT_TRUE(c.timed_out) << name << " did not report its deadline";
    EXPECT_EQ(c.TerminalState(), QueryState::kDeadlineExceeded) << name;
  }
}

}  // namespace
}  // namespace pathenum
