// Cross-cutting property tests tying the paper's analysis to the
// implementation: the search-tree bounds of §5.2, the index-vs-baseline
// edge-access claim behind Fig. 6, failure-injection for the join memory
// cap, and dynamic-update consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>

#include "baselines/algorithm.h"
#include "core/dfs_enumerator.h"
#include "core/estimator.h"
#include "core/index.h"
#include "core/join_enumerator.h"
#include "core/parallel_dfs.h"
#include "core/path_enum.h"
#include "core/reference.h"
#include "engine/query_engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "live/async_engine.h"
#include "test_util.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

class SearchTreeBoundTest : public ::testing::TestWithParam<uint64_t> {};

// Equation 4: the IDX-DFS running time (measured as partials) is bounded
// by k * delta_W + 1, because each partial result of the relaxed search
// appears in some walk.
TEST_P(SearchTreeBoundTest, PartialsBoundedByKTimesWalks) {
  const uint64_t seed = GetParam();
  const Graph g = ErdosRenyi(40, 240, seed);
  for (uint32_t k = 2; k <= 6; ++k) {
    const Query q{static_cast<VertexId>(seed % 40),
                  static_cast<VertexId>((seed * 23 + 1) % 40), k};
    if (q.source == q.target) continue;
    IndexBuilder builder;
    const LightweightIndex idx = builder.Build(g, q);
    DfsEnumerator dfs(idx);
    CountingSink sink;
    const EnumCounters c = dfs.Run(sink, {});
    const double walks = CountWalksDp(g, q);
    EXPECT_LE(static_cast<double>(c.partials),
              static_cast<double>(k) * walks + 1.0)
        << "seed=" << seed << " k=" << k;
    // Edges accessed are bounded the same way (each partial's fan-out sums
    // to the next level's relaxed size).
    EXPECT_LE(static_cast<double>(c.edges_accessed),
              static_cast<double>(k) * walks + 1.0);
    // And results can never exceed walks.
    EXPECT_LE(static_cast<double>(c.num_results), walks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchTreeBoundTest,
                         ::testing::Range<uint64_t>(1, 11));

class EdgeAccessTest : public ::testing::TestWithParam<uint64_t> {};

// The Fig. 6 claim, as an invariant: IDX-DFS never accesses more edges
// than GenericDFS (Alg. 1) on the same completed query — the index serves
// exactly the neighbors the generic framework would have to filter.
TEST_P(EdgeAccessTest, IndexNeverAccessesMoreEdgesThanGenericDfs) {
  const uint64_t seed = GetParam();
  const Graph g = RMat(6, 300, seed * 97);
  for (uint32_t k = 3; k <= 6; ++k) {
    const Query q{static_cast<VertexId>(seed % 64),
                  static_cast<VertexId>((seed * 29 + 17) % 64), k};
    if (q.source == q.target) continue;
    const auto generic = MakeAlgorithm("GenericDFS", g);
    const auto idx = MakeAlgorithm("IDX-DFS", g);
    CountingSink s1, s2;
    const QueryStats gs = generic->Run(q, s1, EnumOptions{});
    const QueryStats is = idx->Run(q, s2, EnumOptions{});
    ASSERT_EQ(s1.count(), s2.count());
    EXPECT_LE(is.counters.edges_accessed, gs.counters.edges_accessed)
        << "seed=" << seed << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeAccessTest,
                         ::testing::Range<uint64_t>(1, 9));

// --- Failure injection -------------------------------------------------------

TEST(JoinMemoryCapTest, TinyBudgetReportsOutOfMemory) {
  const Graph g = CompleteDigraph(16);
  const Query q{0, 15, 5};
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  JoinEnumerator join(idx);
  CountingSink sink;
  EnumOptions opts;
  opts.partial_memory_limit_bytes = 256;  // absurdly small
  const EnumCounters c = join.Run(2, sink, opts);
  EXPECT_TRUE(c.out_of_memory);
  EXPECT_FALSE(c.completed());
}

TEST(JoinMemoryCapTest, BcJoinHonorsTheCapToo) {
  const Graph g = CompleteDigraph(16);
  const auto bc = MakeAlgorithm("BC-JOIN", g);
  CountingSink sink;
  EnumOptions opts;
  opts.partial_memory_limit_bytes = 256;
  const QueryStats s = bc->Run({0, 15, 5}, sink, opts);
  EXPECT_TRUE(s.counters.out_of_memory);
}

TEST(JoinMemoryCapTest, DefaultBudgetIsAmple) {
  const Graph g = CompleteDigraph(10);
  const Query q{0, 9, 4};
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  JoinEnumerator join(idx);
  CountingSink sink;
  const EnumCounters c = join.Run(2, sink, {});
  EXPECT_FALSE(c.out_of_memory);
  EXPECT_TRUE(c.completed());
}

// --- Dynamic updates ---------------------------------------------------------

TEST(DynamicUpdateTest, InsertionGrowsResultSetMonotonically) {
  // Adding edges can only add paths (for fixed q): verify along a random
  // insertion sequence.
  const Graph full = ErdosRenyi(30, 180, 77);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < full.num_vertices(); ++u) {
    for (const VertexId v : full.OutNeighbors(u)) edges.push_back({u, v});
  }
  const Query q{1, 2, 4};
  uint64_t prev = 0;
  for (size_t keep = edges.size() / 2; keep <= edges.size();
       keep += edges.size() / 6) {
    GraphBuilder b(full.num_vertices());
    for (size_t i = 0; i < keep && i < edges.size(); ++i) {
      b.AddEdge(edges[i].first, edges[i].second);
    }
    const Graph g = b.Build();
    PathEnumerator pe(g);
    CountingSink sink;
    pe.Run(q, sink);
    EXPECT_GE(sink.count(), prev) << "insertions lost paths";
    EXPECT_EQ(sink.count(), CountPathsBruteForce(g, q));
    prev = sink.count();
  }
}

TEST(DynamicUpdateTest, DeletionInvalidatesExactlyTheAffectedPaths) {
  const Graph g = testing::PaperExampleGraph();
  const Query q = testing::PaperExampleQuery();
  // Remove v2 -> t: exactly the two paths through that edge disappear.
  GraphBuilder b(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.OutNeighbors(u)) {
      if (!(u == testing::kV2 && v == testing::kT)) b.AddEdge(u, v);
    }
  }
  const Graph g2 = b.Build();
  PathEnumerator pe(g2);
  CollectingSink sink;
  pe.Run(q, sink);
  // Of the five original paths, exactly the two traversing (v2, t) vanish;
  // (s, v1, v2, v0, t) leaves v2 through v0 and survives.
  const PathSet expected = {
      {testing::kS, testing::kV0, testing::kT},
      {testing::kS, testing::kV1, testing::kV2, testing::kV0, testing::kT},
      {testing::kS, testing::kV3, testing::kV4, testing::kV5, testing::kT},
  };
  EXPECT_EQ(ToSet(sink.paths()), expected);
}

// --- Intra-query splitting differentials (DESIGN.md §8) ----------------------

/// Runs q through RunBatch with the given split setting and returns the
/// collected paths plus stats.
QueryStats RunOne(QueryEngine& engine, const Query& q, bool split,
                  const EnumOptions& query_opts, CollectingSink& sink) {
  PathSink* sinks[] = {&sink};
  BatchOptions opts;
  opts.split_branches = split;
  opts.query = query_opts;
  const BatchResult result =
      engine.RunBatch(std::span<const Query>{&q, 1}, sinks, opts);
  EXPECT_TRUE(result.ok()) << result.errors[0];
  return result.stats[0];
}

/// The same query as an AsyncEngine split ticket (IDX-DFS branches fanned
/// out over idle workers).
QueryStats RunAsyncSplit(AsyncEngine& engine, const Query& q,
                         const EnumOptions& query_opts, CollectingSink& sink) {
  const QueryTicket ticket = engine.Submit(
      q, sink, SubmitOptions{.query = query_opts, .split_branches = true});
  const QueryStats stats = ticket.Wait();
  EXPECT_TRUE(ticket.ok()) << ticket.error();
  EXPECT_EQ(stats.method, Method::kDfs) << "async split runs IDX-DFS";
  return stats;
}

AsyncEngineOptions FourWorkers() {
  AsyncEngineOptions opts;
  opts.num_workers = 4;
  return opts;
}

TEST(SplitDifferentialTest, RunBatchSplitOnOffAgreeOnRandomGraphs) {
  // The split/serial differential: identical path sets (unordered) and
  // identical num_results on randomized graphs, across the methods the
  // planner can pick.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = RMat(6, 320, seed * 13);
    QueryEngine engine(g, {.num_workers = 4});
    AsyncEngine async(g, FourWorkers());
    for (uint32_t k = 4; k <= 6; ++k) {
      const Query q{static_cast<VertexId>((seed * 11) % 64),
                    static_cast<VertexId>((seed * 31 + 7) % 64), k};
      if (q.source == q.target) continue;
      CollectingSink serial, split;
      const QueryStats serial_stats = RunOne(engine, q, false, {}, serial);
      const QueryStats split_stats = RunOne(engine, q, true, {}, split);
      EXPECT_EQ(ToSet(split.paths()), ToSet(serial.paths()))
          << "seed=" << seed << " k=" << k;
      EXPECT_EQ(split_stats.counters.num_results,
                serial_stats.counters.num_results);
      EXPECT_EQ(split_stats.method, serial_stats.method)
          << "split must plan like the serial pipeline";

      CollectingSink ticket;
      const QueryStats ticket_stats = RunAsyncSplit(async, q, {}, ticket);
      EXPECT_EQ(ToSet(ticket.paths()), ToSet(serial.paths()))
          << "async split ticket, seed=" << seed << " k=" << k;
      EXPECT_EQ(ticket_stats.counters.num_results,
                serial_stats.counters.num_results);
      EXPECT_EQ(ticket_stats.counters.hit_result_limit,
                serial_stats.counters.hit_result_limit);
      EXPECT_EQ(ticket_stats.counters.stopped_by_sink,
                serial_stats.counters.stopped_by_sink);
    }
  }
}

TEST(SplitDifferentialTest, TruncationFlagsAgreeAtTightLimits) {
  // At limits right at / under the full result count the split path must
  // report exactly the serial truncation outcome: delivered == limit (the
  // merge-barrier regression — never limit + 1), hit_result_limit and
  // stopped_by_sink bit-identical.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = ErdosRenyi(48, 430, seed * 7 + 1);
    QueryEngine engine(g, {.num_workers = 4});
    AsyncEngine async(g, FourWorkers());
    const Query q{static_cast<VertexId>(seed % 48),
                  static_cast<VertexId>((seed * 19 + 3) % 48), 5};
    if (q.source == q.target) continue;
    CollectingSink full;
    RunOne(engine, q, false, {}, full);
    const uint64_t count = full.paths().size();
    if (count < 2) continue;
    for (const uint64_t limit :
         {count, count - 1, (count + 1) / 2, uint64_t{1}}) {
      EnumOptions opts;
      opts.result_limit = limit;
      CollectingSink serial, split;
      const QueryStats serial_stats = RunOne(engine, q, false, opts, serial);
      const QueryStats split_stats = RunOne(engine, q, true, opts, split);
      ASSERT_EQ(split.paths().size(), limit)
          << "seed=" << seed << " limit=" << limit << " (never limit + 1)";
      EXPECT_EQ(split_stats.counters.num_results,
                serial_stats.counters.num_results);
      EXPECT_EQ(split_stats.counters.hit_result_limit,
                serial_stats.counters.hit_result_limit)
          << "seed=" << seed << " limit=" << limit;
      EXPECT_EQ(split_stats.counters.stopped_by_sink,
                serial_stats.counters.stopped_by_sink)
          << "seed=" << seed << " limit=" << limit;
      // Whatever subset the nondeterministic interleaving delivered, it is
      // a subset of the true result set.
      const PathSet full_set = ToSet(full.paths());
      for (const auto& p : split.paths()) {
        EXPECT_TRUE(full_set.count(p) > 0);
      }

      // The same query as an async split ticket: the same limit outcome,
      // and again a subset of the true result set.
      CollectingSink ticket;
      const QueryStats ticket_stats = RunAsyncSplit(async, q, opts, ticket);
      ASSERT_EQ(ticket.paths().size(), limit)
          << "async split ticket, seed=" << seed << " limit=" << limit;
      EXPECT_EQ(ticket_stats.counters.num_results,
                serial_stats.counters.num_results);
      EXPECT_EQ(ticket_stats.counters.hit_result_limit,
                serial_stats.counters.hit_result_limit)
          << "async split ticket, seed=" << seed << " limit=" << limit;
      EXPECT_EQ(ticket_stats.counters.stopped_by_sink,
                serial_stats.counters.stopped_by_sink)
          << "async split ticket, seed=" << seed << " limit=" << limit;
      for (const auto& p : ticket.paths()) {
        EXPECT_TRUE(full_set.count(p) > 0);
      }
    }
  }
}

TEST(SplitDifferentialTest, ParallelDfsMatchesSequentialOnRandomGraphs) {
  // Post-migration guarantee for the standalone parallel enumerator:
  // identical path sets without limits, identical counts and truncation
  // flags at tight limits.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = RMat(6, 300, seed * 29 + 5);
    const Query q{static_cast<VertexId>(seed % 64),
                  static_cast<VertexId>((seed * 41 + 3) % 64), 5};
    if (q.source == q.target) continue;
    IndexBuilder builder;
    const LightweightIndex idx = builder.Build(g, q);
    DfsEnumerator sequential(idx);
    CollectingSink seq_sink;
    const EnumCounters seq_full = sequential.Run(seq_sink, {});

    ParallelDfsEnumerator parallel(idx, 4);
    std::vector<std::vector<VertexId>> merged;
    std::mutex mutex;
    const ParallelEnumResult par_full = parallel.Run([&] {
      return std::make_unique<CallbackSink>(
          [&](std::span<const VertexId> p) {
            const std::lock_guard<std::mutex> lock(mutex);
            merged.emplace_back(p.begin(), p.end());
            return true;
          });
    });
    EXPECT_EQ(ToSet(merged), ToSet(seq_sink.paths())) << "seed=" << seed;
    EXPECT_EQ(par_full.counters.num_results, seq_full.num_results);

    const uint64_t count = seq_full.num_results;
    if (count < 2) continue;
    for (const uint64_t limit : {count, count - 1, uint64_t{1}}) {
      EnumOptions opts;
      opts.result_limit = limit;
      CountingSink seq_ltd;
      const EnumCounters seq = sequential.Run(seq_ltd, opts);
      const ParallelEnumResult par = parallel.CountAll(opts);
      EXPECT_EQ(par.counters.num_results, seq.num_results)
          << "seed=" << seed << " limit=" << limit;
      EXPECT_EQ(par.counters.hit_result_limit, seq.hit_result_limit);
      EXPECT_EQ(par.counters.stopped_by_sink, seq.stopped_by_sink);
    }
  }
}

// --- Determinism -------------------------------------------------------------

TEST(DeterminismTest, IdxDfsEmissionOrderIsStable) {
  const Graph g = RMat(6, 260, 5);
  const Query q{1, 3, 5};
  auto run = [&] {
    IndexBuilder builder;
    const LightweightIndex idx = builder.Build(g, q);
    DfsEnumerator dfs(idx);
    std::vector<std::vector<VertexId>> order;
    CallbackSink sink([&](std::span<const VertexId> p) {
      order.emplace_back(p.begin(), p.end());
      return true;
    });
    dfs.Run(sink, {});
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(DeterminismTest, IdxDfsEmitsShorterDetoursFirstPerBranch) {
  // Neighbor lists are sorted by distance-to-target, so the first emitted
  // path is always a shortest path.
  const Graph g = testing::PaperExampleGraph();
  IndexBuilder builder;
  const LightweightIndex idx =
      builder.Build(g, testing::PaperExampleQuery());
  DfsEnumerator dfs(idx);
  std::vector<size_t> lengths;
  CallbackSink sink([&](std::span<const VertexId> p) {
    lengths.push_back(p.size() - 1);
    return true;
  });
  dfs.Run(sink, {});
  ASSERT_FALSE(lengths.empty());
  EXPECT_EQ(lengths.front(), 2u) << "first result must be a shortest path";
}

}  // namespace
}  // namespace pathenum
