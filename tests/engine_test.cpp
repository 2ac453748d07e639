// Tests for the batch QueryEngine subsystem: batch-vs-sequential result
// equivalence (serial and split queries), context reuse across hundreds of
// queries, per-query limit isolation, and the zero-allocation steady state
// of the pooled scratch.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/path_enum.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/memory.h"
#include "workload/query_gen.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

// ---------------------------------------------------------------------------
// BumpArena
// ---------------------------------------------------------------------------

TEST(BumpArenaTest, AllocationsAreAlignedAndDisjoint) {
  BumpArena arena;
  auto a = arena.AllocateSpan<uint8_t>(3);
  auto b = arena.AllocateSpan<uint64_t>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % alignof(uint64_t), 0u);
  std::fill(a.begin(), a.end(), uint8_t{0xaa});
  std::fill(b.begin(), b.end(), uint64_t{42});
  EXPECT_EQ(a[2], 0xaa);
  EXPECT_EQ(b[0], 42u);
}

TEST(BumpArenaTest, SteadyStateStopsAllocating) {
  BumpArena arena;
  auto workload = [&] {
    arena.Reset();
    arena.AllocateSpan<uint32_t>(1000);
    arena.AllocateSpan<uint8_t>(5000);
    arena.AllocateSpan<uint64_t>(300);
  };
  workload();
  workload();  // consolidation may allocate once more
  const uint64_t warm = arena.chunk_allocations();
  const size_t capacity = arena.capacity_bytes();
  for (int i = 0; i < 50; ++i) workload();
  EXPECT_EQ(arena.chunk_allocations(), warm)
      << "arena kept allocating in steady state";
  EXPECT_EQ(arena.capacity_bytes(), capacity);
}

TEST(BumpArenaTest, GrowthKeepsEarlierAllocationsValid) {
  BumpArena arena;
  auto first = arena.AllocateSpan<uint32_t>(100);
  std::iota(first.begin(), first.end(), 0u);
  arena.AllocateSpan<uint32_t>(1 << 20);  // forces a new chunk
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(first[i], i);
}

// ---------------------------------------------------------------------------
// QueryEngine result equivalence
// ---------------------------------------------------------------------------

std::vector<Query> MixedQueries(const Graph& g) {
  // A deterministic spread of endpoints and hop counts, endpoints valid for
  // any graph with >= 40 vertices.
  std::vector<Query> queries;
  for (VertexId s = 0; s < 8; ++s) {
    for (uint32_t k = 2; k <= 5; ++k) {
      const VertexId t = (s + 17 + k) % g.num_vertices();
      if (s == t) continue;
      queries.push_back({s, t, k});
    }
  }
  return queries;
}

TEST(QueryEngineTest, BatchMatchesSequentialPathSets) {
  const Graph g = ErdosRenyi(60, 600, 4);
  const std::vector<Query> queries = MixedQueries(g);

  PathEnumerator sequential(g);
  std::vector<PathSet> expected;
  for (const Query& q : queries) {
    CollectingSink sink;
    sequential.Run(q, sink);
    expected.push_back(ToSet(sink.paths()));
  }

  for (const uint32_t workers : {1u, 2u, 4u}) {
    QueryEngine engine(g, {.num_workers = workers});
    std::vector<CollectingSink> collected(queries.size());
    std::vector<PathSink*> sinks;
    for (auto& c : collected) sinks.push_back(&c);
    const BatchResult result = engine.RunBatch(queries, sinks);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.stats.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(ToSet(collected[i].paths()), expected[i])
          << "query " << i << " at " << workers << " workers";
    }
  }
}

TEST(QueryEngineTest, SplitBranchesMatchesSequentialPathSets) {
  const Graph g = ErdosRenyi(50, 500, 11);
  const std::vector<Query> queries = {{0, 20, 5}, {3, 40, 4}, {7, 13, 6}};

  PathEnumerator sequential(g);
  QueryEngine engine(g, {.num_workers = 3});
  std::vector<CollectingSink> collected(queries.size());
  std::vector<PathSink*> sinks;
  for (auto& c : collected) sinks.push_back(&c);
  BatchOptions opts;
  opts.split_branches = true;
  const BatchResult result = engine.RunBatch(queries, sinks, opts);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    CollectingSink expected;
    sequential.Run(queries[i], expected);
    EXPECT_EQ(ToSet(collected[i].paths()), ToSet(expected.paths()))
        << "split query " << i;
    EXPECT_EQ(result.stats[i].counters.num_results, expected.paths().size());
  }
}

TEST(QueryEngineTest, SplitJoinMatchesSequentialPathSets) {
  // Forced IDX-JOIN through split mode runs the serial join on the
  // claiming worker, so it must emit exactly the serial join's paths, in
  // the serial join's order.
  const Graph g = ErdosRenyi(50, 500, 11);
  const std::vector<Query> queries = {{0, 20, 5}, {3, 40, 4}, {7, 13, 6}};

  PathEnumerator sequential(g);
  for (const uint32_t workers : {1u, 3u}) {
    QueryEngine engine(g, {.num_workers = workers});
    std::vector<CollectingSink> collected(queries.size());
    std::vector<PathSink*> sinks;
    for (auto& c : collected) sinks.push_back(&c);
    BatchOptions opts;
    opts.split_branches = true;
    opts.query.method = Method::kJoin;
    const BatchResult result = engine.RunBatch(queries, sinks, opts);
    ASSERT_TRUE(result.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      CollectingSink expected;
      EnumOptions seq_opts;
      seq_opts.method = Method::kJoin;
      sequential.Run(queries[i], expected, seq_opts);
      EXPECT_EQ(collected[i].paths(), expected.paths())
          << "split join query " << i << " at " << workers << " workers";
      EXPECT_EQ(result.stats[i].counters.num_results,
                expected.paths().size());
      EXPECT_EQ(result.stats[i].method, Method::kJoin);
    }
  }
}

TEST(QueryEngineTest, SplitModePlansLikeTheSerialPipeline) {
  // kAuto through split mode must pick the same method the serial pipeline
  // picks (the shared PlanExecution path) and return the same answers.
  const Graph g = ErdosRenyi(60, 700, 5);
  const std::vector<Query> queries = {{0, 30, 6}, {1, 45, 5}, {9, 50, 4}};

  PathEnumerator sequential(g);
  QueryEngine engine(g, {.num_workers = 3});
  std::vector<CollectingSink> collected(queries.size());
  std::vector<PathSink*> sinks;
  for (auto& c : collected) sinks.push_back(&c);
  BatchOptions opts;
  opts.split_branches = true;
  const BatchResult result = engine.RunBatch(queries, sinks, opts);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    CollectingSink expected;
    const QueryStats seq = sequential.Run(queries[i], expected);
    EXPECT_EQ(result.stats[i].method, seq.method) << "query " << i;
    EXPECT_EQ(ToSet(collected[i].paths()), ToSet(expected.paths()))
        << "query " << i;
  }
}

TEST(QueryEngineTest, SplitModeExactLimitNeverDeliversLimitPlusOne) {
  // The merge-barrier double-count regression, end to end: with the result
  // limit exactly at / one under the full count, the caller's sink must
  // see exactly `limit` paths — never limit + 1 — for both the DFS branch
  // fan-out and a split query's IDX-JOIN plan, and the truncation flags
  // must match the serial run's.
  const Graph g = ErdosRenyi(50, 500, 11);
  const Query q{0, 20, 5};
  PathEnumerator sequential(g);
  CountingSink full;
  sequential.Run(q, full);
  ASSERT_GT(full.count(), 3u);

  for (const Method method : {Method::kDfs, Method::kJoin}) {
    for (uint64_t limit : {full.count(), full.count() - 1, uint64_t{1}}) {
      QueryEngine engine(g, {.num_workers = 4});
      CountingSink sink;
      PathSink* sinks[] = {&sink};
      BatchOptions opts;
      opts.split_branches = true;
      opts.query.method = method;
      opts.query.result_limit = limit;
      const BatchResult result =
          engine.RunBatch(std::span<const Query>{&q, 1}, sinks, opts);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(sink.count(), limit)
          << MethodName(method) << " limit=" << limit;
      EXPECT_EQ(result.stats[0].counters.num_results, limit);
      CountingSink seq_sink;
      EnumOptions seq_opts;
      seq_opts.method = method;
      seq_opts.result_limit = limit;
      const QueryStats seq = sequential.Run(q, seq_sink, seq_opts);
      EXPECT_EQ(result.stats[0].counters.hit_result_limit,
                seq.counters.hit_result_limit)
          << MethodName(method) << " limit=" << limit;
      EXPECT_EQ(result.stats[0].counters.stopped_by_sink,
                seq.counters.stopped_by_sink)
          << MethodName(method) << " limit=" << limit;
    }
  }
}

TEST(QueryEngineTest, CountBatchMatchesReference) {
  const Graph g = testing::PaperExampleGraph();
  const Query q = testing::PaperExampleQuery();
  QueryEngine engine(g, {.num_workers = 2});
  const BatchResult result = engine.CountBatch(std::vector<Query>{q, q, q});
  ASSERT_TRUE(result.ok());
  CountingSink reference;
  PathEnumerator(g).Run(q, reference);
  for (const QueryStats& s : result.stats) {
    EXPECT_EQ(s.counters.num_results, reference.count());
  }
}

// ---------------------------------------------------------------------------
// Context reuse and isolation
// ---------------------------------------------------------------------------

TEST(QueryEngineTest, ContextsSurviveHundredsOfQueries) {
  const Graph g = BarabasiAlbert(120, 4, 9);
  std::vector<Query> queries;
  for (int rep = 0; rep < 10; ++rep) {
    for (const Query& q : MixedQueries(g)) queries.push_back(q);
  }
  ASSERT_GE(queries.size(), 100u);

  QueryEngine engine(g, {.num_workers = 2});
  const BatchResult batched = engine.CountBatch(queries);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(engine.Stats().queries_run, queries.size());

  PathEnumerator sequential(g);
  for (size_t i = 0; i < queries.size(); ++i) {
    CountingSink sink;
    sequential.Run(queries[i], sink);
    ASSERT_EQ(batched.stats[i].counters.num_results, sink.count())
        << "query " << i << " diverged after context reuse";
  }
}

/// A sink that gives up after `stop_after` paths — simulates a client
/// cancelling mid-query.
class QuittingSink : public PathSink {
 public:
  explicit QuittingSink(uint64_t stop_after) : remaining_(stop_after) {}
  bool OnPath(std::span<const VertexId>) override {
    return remaining_-- > 1;
  }

 private:
  uint64_t remaining_;
};

/// Fails the test if OnPath is ever invoked again after it returned false
/// (the documented PathSink stop contract; a real sink may tear down its
/// state on that signal).
class StopContractSink : public PathSink {
 public:
  bool OnPath(std::span<const VertexId>) override {
    EXPECT_FALSE(stopped_) << "OnPath called after it returned false";
    if (++count_ >= 3) {
      stopped_ = true;
      return false;
    }
    return true;
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
  bool stopped_ = false;
};

TEST(QueryEngineTest, SplitModeHonorsSinkStopContract) {
  const Graph g = ErdosRenyi(60, 700, 33);
  const Query heavy{0, 30, 6};
  QueryEngine engine(g, {.num_workers = 4});
  StopContractSink sink;
  PathSink* sinks[] = {&sink};
  BatchOptions opts;
  opts.split_branches = true;
  const BatchResult result =
      engine.RunBatch(std::span<const Query>{&heavy, 1}, sinks, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_TRUE(result.stats[0].counters.stopped_by_sink);
}

TEST(QueryEngineTest, SplitModeThrowingSinkIsCalledOnceAndFailsOnlyItsQuery) {
  // A sink throwing mid-fan-out fails its query as kError after exactly one
  // call — the serialized adapter latches the stop before the exception
  // leaves it, so no other participant calls the broken sink — and the
  // engine serves the next split batch normally, for both split methods.
  class ThrowingSink : public PathSink {
   public:
    bool OnPath(std::span<const VertexId>) override {
      ++calls;  // serialized by the fan-out's gate
      throw std::runtime_error("sink exploded");
    }
    int calls = 0;
  };
  const Graph g = LayeredGraph(6, 8);  // 8^6 paths of 7 hops
  const Query q{0, 6 * 8 + 1, 7};
  CountingSink ref;
  PathEnumerator(g).Run(q, ref);
  for (const Method method : {Method::kDfs, Method::kJoin}) {
    QueryEngine engine(g, {.num_workers = 4});
    BatchOptions opts;
    opts.split_branches = true;
    opts.query.method = method;
    ThrowingSink bad;
    PathSink* bad_sinks[] = {&bad};
    const BatchResult failed =
        engine.RunBatch(std::span<const Query>{&q, 1}, bad_sinks, opts);
    EXPECT_EQ(bad.calls, 1) << MethodName(method);
    EXPECT_EQ(failed.states[0], QueryState::kError) << MethodName(method);
    EXPECT_NE(failed.errors[0].find("sink exploded"), std::string::npos);

    CountingSink good;
    PathSink* good_sinks[] = {&good};
    const BatchResult next =
        engine.RunBatch(std::span<const Query>{&q, 1}, good_sinks, opts);
    ASSERT_TRUE(next.ok()) << MethodName(method);
    EXPECT_EQ(next.states[0], QueryState::kOk);
    EXPECT_EQ(good.count(), ref.count()) << MethodName(method);
  }
}

TEST(QueryEngineTest, LimitHitDoesNotPoisonLaterQueries) {
  const Graph g = ErdosRenyi(60, 700, 21);
  const Query heavy{0, 30, 6};
  const Query light{5, 25, 4};

  // Reference counts from a fresh sequential enumerator.
  CountingSink heavy_ref, light_ref;
  PathEnumerator(g).Run(heavy, heavy_ref);
  PathEnumerator(g).Run(light, light_ref);
  ASSERT_GT(heavy_ref.count(), 10u);
  ASSERT_GT(light_ref.count(), 0u);

  // One worker forces every query through the same context, in order:
  // result-limited, sink-stopped, then an unconstrained one.
  QueryEngine engine(g, {.num_workers = 1});

  std::vector<Query> queries = {heavy, heavy, light};
  CountingSink limited_sink, after_sink;
  QuittingSink quitting(3);
  std::vector<PathSink*> sinks = {&limited_sink, &quitting, &after_sink};
  BatchOptions opts;
  opts.query.result_limit = 5;
  BatchResult result = engine.RunBatch(queries, sinks, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.stats[0].counters.hit_result_limit);
  EXPECT_EQ(result.stats[0].counters.num_results, 5u);
  EXPECT_TRUE(result.stats[1].counters.stopped_by_sink);
  EXPECT_EQ(result.stats[2].counters.num_results,
            std::min<uint64_t>(light_ref.count(), 5u));
  EXPECT_FALSE(result.stats[2].counters.stopped_by_sink);

  // A later batch on the same (reused) contexts with no limits is exact.
  const BatchResult clean =
      engine.CountBatch(std::vector<Query>{heavy, light});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.stats[0].counters.num_results, heavy_ref.count());
  EXPECT_EQ(clean.stats[1].counters.num_results, light_ref.count());
  EXPECT_FALSE(clean.stats[0].counters.hit_result_limit);
}

TEST(QueryEngineTest, InvalidQueryReportsErrorWithoutPoisoningBatch) {
  const Graph g = ErdosRenyi(40, 300, 5);
  const std::vector<Query> queries = {{0, 10, 4},
                                      {2, 2, 4},    // s == t: invalid
                                      {1, 20, 3}};
  QueryEngine engine(g, {.num_workers = 2});
  const BatchResult result = engine.CountBatch(queries);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.errors[0].empty());
  EXPECT_FALSE(result.errors[1].empty());
  EXPECT_TRUE(result.errors[2].empty());

  CountingSink ref;
  PathEnumerator(g).Run(queries[2], ref);
  EXPECT_EQ(result.stats[2].counters.num_results, ref.count());
  // The rejected query never executed and must not be counted as served.
  EXPECT_EQ(engine.Stats().queries_run, 2u);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

TEST(QueryEngineTest, ScratchStopsGrowingAcrossRepeatedBatches) {
  const Graph g = ErdosRenyi(80, 900, 13);
  const std::vector<Query> queries = MixedQueries(g);
  // One worker makes the query->context assignment deterministic, so the
  // scratch footprint must be bit-stable once warmed (with stealing, which
  // context saw which query — and hence per-context capacity — can vary
  // run to run even though each context individually stops growing).
  QueryEngine engine(g, {.num_workers = 1});

  // Each pass also runs the queries split under IDX-DFS and forced
  // IDX-JOIN: a split join plan runs the serial join, whose tables come
  // from the context's arena, so a missed arena reset grows the scratch.
  BatchOptions split_dfs;
  split_dfs.split_branches = true;
  split_dfs.query.method = Method::kDfs;
  BatchOptions split_join = split_dfs;
  split_join.query.method = Method::kJoin;
  const auto pass = [&] {
    engine.CountBatch(queries);
    engine.CountBatch(queries, split_dfs);
    engine.CountBatch(queries, split_join);
  };

  // Warm-up: two passes let every buffer reach workload size and the
  // arenas consolidate.
  pass();
  pass();
  const size_t warm = engine.Stats().scratch_bytes;
  ASSERT_GT(warm, 0u);

  for (int rep = 0; rep < 5; ++rep) pass();
  EXPECT_EQ(engine.Stats().scratch_bytes, warm)
      << "per-query scratch kept growing after warm-up";
}

TEST(PathEnumeratorTest, SequentialScratchStableAcrossRepeats) {
  const Graph g = BarabasiAlbert(100, 5, 3);
  PathEnumerator pe(g);
  const std::vector<Query> queries = MixedQueries(g);

  std::vector<uint64_t> first_counts;
  for (int rep = 0; rep < 2; ++rep) {
    for (const Query& q : queries) {
      CountingSink sink;
      pe.Run(q, sink);
      if (rep == 0) first_counts.push_back(sink.count());
    }
  }
  const size_t warm = pe.ScratchBytes();
  size_t i = 0;
  for (const Query& q : queries) {
    CountingSink sink;
    pe.Run(q, sink);
    EXPECT_EQ(sink.count(), first_counts[i++]);
  }
  EXPECT_EQ(pe.ScratchBytes(), warm);
}

}  // namespace
}  // namespace pathenum
