// Tests for the split IDX-DFS fan-out — one query run through
// QueryEngine::RunBatch with split_branches, its first-level branches
// drained by every worker of the engine — and the triggered-cycle API.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
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

/// Runs `q` as one split IDX-DFS query on `engine` into `sink`.
QueryStats RunSplitDfs(QueryEngine& engine, const Query& q, PathSink& sink,
                       const EnumOptions& opts = {}) {
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

/// Runs `q` as one split IDX-DFS query on a `workers`-worker engine (the
/// engine caps the count at the host's cores) into `sink`.
QueryStats RunSplitDfs(const Graph& g, const Query& q, uint32_t workers,
                       PathSink& sink, const EnumOptions& opts = {}) {
  QueryEngine engine(g, {.num_workers = workers});
  return RunSplitDfs(engine, q, sink, opts);
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

// --- Deferral under forced contention ------------------------------------------

/// The caller's sink for the contention differential: collects every path
/// in arrival order, but burns about 20 us per block, so a split query's
/// participants find one another inside it and defer their blocks. It
/// refuses its `refuse_at`-th path when that is non-zero, and notes any call
/// after the refusal.
class SlowCollectingSink : public PathSink {
 public:
  explicit SlowCollectingSink(uint64_t refuse_at = 0)
      : refuse_at_(refuse_at) {}

  bool OnPath(std::span<const VertexId> path) override {
    if (refused_) called_after_refusal = true;
    paths.emplace_back(path.begin(), path.end());
    refused_ = paths.size() == refuse_at_;
    return !refused_;
  }

  BlockResult OnBlock(const PathBlockView& block) override {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
    return ForEachPathInBlock(block, [this](std::span<const VertexId> p) {
      return SlowCollectingSink::OnPath(p);
    });
  }

  std::vector<std::vector<VertexId>> paths;
  bool called_after_refusal = false;

 private:
  const uint64_t refuse_at_;
  bool refused_ = false;
};

/// `got` interleaves per-branch prefixes of the serial IDX-DFS output
/// `serial`: grouped by first-level branch (a path's second vertex), each
/// branch's paths arrive in serial order, all of them when `complete`.
void ExpectSerialOrderPerBranch(
    const std::vector<std::vector<VertexId>>& serial,
    const std::vector<std::vector<VertexId>>& got, bool complete,
    const std::string& at) {
  std::map<VertexId, std::vector<const std::vector<VertexId>*>> by_branch;
  for (const std::vector<VertexId>& p : serial) by_branch[p[1]].push_back(&p);
  std::map<VertexId, size_t> next;
  for (const std::vector<VertexId>& p : got) {
    ASSERT_GE(p.size(), 2u) << at;
    const auto& expected = by_branch[p[1]];
    size_t& i = next[p[1]];
    ASSERT_LT(i, expected.size()) << at << ": extra path on branch " << p[1];
    ASSERT_EQ(p, *expected[i]) << at << ": branch " << p[1]
                               << " left serial order at its path " << i;
    ++i;
  }
  if (!complete) return;
  for (const auto& [branch, paths] : by_branch) {
    EXPECT_EQ(next[branch], paths.size()) << at << ": branch " << branch;
  }
}

/// The first query at `k` on `g`, in a fixed scan order, whose complete
/// answer has 2,000 to 40,000 paths: several blocks, and more paths than
/// the largest tested limit.
std::optional<Query> HeavyQuery(const Graph& g, uint32_t k) {
  constexpr uint64_t kMin = 2000, kMax = 40000;
  PathEnumerator pe(g);
  const VertexId n = g.num_vertices();
  for (VertexId i = 0; i < n * n; ++i) {
    const Query q{i % n, (i / n * 7 + i) % n, k};
    if (q.source == q.target) continue;
    CountingSink count;
    EnumOptions opts;
    opts.result_limit = kMax + 1;
    pe.Run(q, count, opts);
    if (count.count() >= kMin && count.count() <= kMax) return q;
  }
  return std::nullopt;
}

TEST(SplitDfsTest, DeferralUnderContentionKeepsSerialSemantics) {
  // Four workers split each query into a sink slow enough that a block
  // usually finds another participant inside it: the deferral path runs,
  // and the answers, per-branch orders, counters, limits and refusals must
  // still be the serial IDX-DFS's.
  struct Case {
    const char* name;
    Graph g;
    std::vector<uint32_t> ks;  // denser graphs for shorter bounds
  };
  const Case cases[] = {
      {"er dense", ErdosRenyi(60, 1200, 5), {4}},
      {"er sparse", ErdosRenyi(120, 1500, 5), {5, 6}},
      {"ba dense", BarabasiAlbert(80, 12, 7, /*back_prob=*/0.5), {4}},
      {"ba sparse", BarabasiAlbert(150, 6, 7, /*back_prob=*/0.5), {5, 6}}};
  EngineOptions four_workers;
  four_workers.num_workers = 4;
  uint64_t deferred = 0;
  uint32_t workers = 0;
  for (const Case& c : cases) {
    const Graph& g = c.g;
    QueryEngine engine(g, four_workers);
    workers = engine.num_workers();
    for (const uint32_t k : c.ks) {
      const std::optional<Query> heavy = HeavyQuery(g, k);
      ASSERT_TRUE(heavy.has_value()) << c.name << " k=" << k;
      const Query q = *heavy;
      const std::string at = std::string(c.name) + " " +
                             std::to_string(q.source) + "->" +
                             std::to_string(q.target) + " k=" +
                             std::to_string(k);
      EnumOptions dfs;
      dfs.method = Method::kDfs;
      PathEnumerator serial_pe(g);
      CollectingSink serial_sink;
      const EnumCounters serial =
          serial_pe.Run(q, serial_sink, dfs).counters;
      const std::vector<std::vector<VertexId>>& serial_paths =
          serial_sink.paths();

      SlowCollectingSink all;
      const EnumCounters split = RunSplitDfs(engine, q, all).counters;
      EXPECT_EQ(split.TerminalState(), QueryState::kOk) << at;
      EXPECT_EQ(all.paths.size(), serial_paths.size()) << at;
      EXPECT_EQ(ToSet(all.paths), ToSet(serial_paths)) << at;
      ExpectSerialOrderPerBranch(serial_paths, all.paths, true, at);
      EXPECT_EQ(split.num_results, serial.num_results) << at;
      EXPECT_EQ(split.partials, serial.partials) << at;
      EXPECT_EQ(split.edges_accessed, serial.edges_accessed) << at;
      deferred += split.deferred_blocks;

      for (const uint64_t limit : {255u, 256u, 257u, 1000u}) {
        EnumOptions opts;
        opts.result_limit = limit;
        SlowCollectingSink sink;
        const EnumCounters c = RunSplitDfs(engine, q, sink, opts).counters;
        const std::string at_limit = at + " limit=" + std::to_string(limit);
        EXPECT_EQ(sink.paths.size(), limit) << at_limit;
        EXPECT_EQ(c.num_results, limit) << at_limit;
        EXPECT_TRUE(c.hit_result_limit) << at_limit;
        EXPECT_FALSE(c.stopped_by_sink) << at_limit;
        EXPECT_EQ(c.TerminalState(), QueryState::kTruncated) << at_limit;
        ExpectSerialOrderPerBranch(serial_paths, sink.paths, false, at_limit);
        deferred += c.deferred_blocks;
      }

      // Refusing the last path is a refusal all the same; it is often seen
      // only at a participant's final flush, after every branch has ended.
      for (const uint64_t refuse_at :
           {uint64_t{1}, uint64_t{300}, uint64_t{1000}, serial.num_results}) {
        SlowCollectingSink sink(refuse_at);
        const EnumCounters c = RunSplitDfs(engine, q, sink).counters;
        const std::string at_refusal =
            at + " refusing path " + std::to_string(refuse_at);
        EXPECT_EQ(sink.paths.size(), refuse_at) << at_refusal;
        EXPECT_FALSE(sink.called_after_refusal) << at_refusal;
        EXPECT_EQ(c.num_results, refuse_at) << at_refusal;
        EXPECT_TRUE(c.stopped_by_sink) << at_refusal;
        EXPECT_FALSE(c.hit_result_limit) << at_refusal;
        EXPECT_EQ(c.TerminalState(), QueryState::kTruncated) << at_refusal;
        ExpectSerialOrderPerBranch(serial_paths, sink.paths, false,
                                   at_refusal);
        deferred += c.deferred_blocks;
      }
    }
  }
  // On a host with one core the engine runs one worker, which never finds
  // the gate busy.
  if (workers >= 2) {
    EXPECT_GT(deferred, 0u) << "the contention never made a block defer";
  }
  std::printf("%llu blocks deferred over %u workers\n",
              static_cast<unsigned long long>(deferred), workers);
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
