// Tests for the cross-query cache subsystem (DESIGN.md §6): cached-vs-fresh
// result equivalence (bit-identical paths), LRU eviction under a byte
// budget, cross-thread single-flight builds on concurrent identical
// queries, invalidation on graph rebind, the never-cache-truncated-results
// rule, batch dedup fanout, and the active-worker clamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/path_enum.h"
#include "engine/index_cache.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "test_util.h"

namespace pathenum {
namespace {

std::vector<Query> SmallMixedQueries(const Graph& g) {
  std::vector<Query> queries;
  for (VertexId s = 0; s < 6; ++s) {
    for (uint32_t k = 2; k <= 5; ++k) {
      const VertexId t = (s + 17 + k) % g.num_vertices();
      if (s == t) continue;
      queries.push_back({s, t, k});
    }
  }
  return queries;
}

EngineOptions CachedEngineOptions(uint32_t workers) {
  EngineOptions opts;
  opts.num_workers = workers;
  opts.enable_cache = true;
  return opts;
}

// ---------------------------------------------------------------------------
// IndexCache primitive behavior
// ---------------------------------------------------------------------------

TEST(IndexCacheTest, ConcurrentIdenticalQueriesBuildOnce) {
  const Graph g = ErdosRenyi(60, 600, 4);
  const Query q{0, 10, 4};
  IndexCacheOptions opts;
  opts.shards = 4;
  IndexCache cache(opts);
  const CacheKey key{q.source, q.target, q.hops, 0};

  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const LightweightIndex>> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[i] = cache.GetOrBuild(key, [&] {
        builds.fetch_add(1);
        IndexBuilder builder;
        return builder.Build(g, q);
      });
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1) << "thundering herd: the key was built twice";
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get());
  }
  const IndexCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.index_misses, 1u);
  EXPECT_EQ(stats.index_hits + stats.coalesced_builds,
            static_cast<uint64_t>(kThreads - 1));
  EXPECT_GT(stats.index_bytes, 0u);
}

TEST(IndexCacheTest, EvictsLeastRecentlyUsedUnderTightByteBudget) {
  const Graph g = ErdosRenyi(60, 600, 4);
  const Query q{0, 10, 4};
  IndexBuilder builder;
  const size_t one_index_bytes = builder.Build(g, q).MemoryBytes();

  // Room for two entries (plus bookkeeping overhead), single shard so the
  // budget is not split.
  IndexCacheOptions opts;
  opts.shards = 1;
  opts.max_index_bytes = 2 * (one_index_bytes + 1024);
  IndexCache cache(opts);

  // Same query under distinct fingerprints: three equally-sized entries.
  const auto build = [&] {
    IndexBuilder b;
    return b.Build(g, q);
  };
  for (uint64_t fp = 0; fp < 3; ++fp) {
    cache.GetOrBuild({q.source, q.target, q.hops, fp}, build);
  }

  const IndexCacheStats stats = cache.Stats();
  EXPECT_GE(stats.index_evictions, 1u);
  EXPECT_LE(stats.index_bytes, opts.max_index_bytes);
  EXPECT_EQ(cache.PeekIndex({q.source, q.target, q.hops, 0}), nullptr)
      << "oldest entry should have been evicted";
  EXPECT_NE(cache.PeekIndex({q.source, q.target, q.hops, 2}), nullptr)
      << "newest entry must be retained";
}

TEST(IndexCacheTest, ClearDuringInflightBuildIsNotJoinedAndNotPublished) {
  const Graph g = ErdosRenyi(40, 300, 9);
  const Query q{0, 10, 3};
  IndexCache cache;
  const CacheKey key{q.source, q.target, q.hops, 0};

  std::promise<void> registered;
  std::promise<void> release;
  std::shared_future<void> release_f = release.get_future().share();
  std::thread stale([&] {
    cache.GetOrBuild(key, [&] {
      registered.set_value();  // the in-flight latch is now visible
      release_f.wait();        // ...and held until the end of the test
      IndexBuilder b;
      return b.Build(g, q);
    });
  });
  registered.get_future().wait();

  // The rebind path: everything cached (and in flight) is now stale.
  cache.Clear();

  // A post-Clear lookup of the same key must NOT wait for the stale build;
  // it builds fresh and completes while the stale build is still stuck.
  bool hit = true;
  const auto fresh = cache.GetOrBuild(
      key,
      [&] {
        IndexBuilder b;
        return b.Build(g, q);
      },
      &hit);
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(hit);

  release.set_value();
  stale.join();
  // The stale build finished for its caller but was not published over the
  // fresh entry.
  EXPECT_EQ(cache.PeekIndex(key).get(), fresh.get());
  EXPECT_EQ(cache.Stats().coalesced_builds, 0u);
}

TEST(IndexCacheTest, BuildFailurePropagatesAndDoesNotPoisonTheKey) {
  IndexCache cache;
  const CacheKey key{1, 2, 3, 0};
  EXPECT_THROW(cache.GetOrBuild(
                   key, []() -> LightweightIndex {
                     throw std::runtime_error("build exploded");
                   }),
               std::runtime_error);
  // The key is buildable again afterwards.
  const Graph g = ErdosRenyi(40, 300, 9);
  bool hit = true;
  const auto index = cache.GetOrBuild(
      {0, 10, 3, 0},
      [&] {
        IndexBuilder b;
        return b.Build(g, {0, 10, 3});
      },
      &hit);
  EXPECT_NE(index, nullptr);
  EXPECT_FALSE(hit);
}

// ---------------------------------------------------------------------------
// Engine integration: equivalence
// ---------------------------------------------------------------------------

TEST(EngineCacheTest, CachedResultsBitIdenticalToFresh) {
  const Graph g = ErdosRenyi(60, 600, 4);
  const std::vector<Query> queries = SmallMixedQueries(g);

  // Fresh sequential reference, same options.
  PathEnumerator fresh(g);
  std::vector<std::vector<std::vector<VertexId>>> expected;
  for (const Query& q : queries) {
    CollectingSink sink;
    fresh.Run(q, sink);
    expected.push_back(sink.paths());
  }

  QueryEngine engine(g, CachedEngineOptions(1));
  for (int round = 0; round < 3; ++round) {
    std::vector<CollectingSink> collected(queries.size());
    std::vector<PathSink*> sinks;
    for (auto& c : collected) sinks.push_back(&c);
    const BatchResult result = engine.RunBatch(queries, sinks);
    ASSERT_TRUE(result.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      // Bit-identical including order, not just set-equal.
      EXPECT_EQ(collected[i].paths(), expected[i])
          << "query " << i << " round " << round;
    }
    if (round > 0) {
      // Steady state: every query replays from the result cache.
      EXPECT_EQ(result.cache.result_hits, queries.size());
      uint64_t replayed = 0;
      for (const QueryStats& s : result.stats) {
        replayed += s.result_cache_hit ? 1 : 0;
      }
      EXPECT_EQ(replayed, queries.size());
    }
  }
}

TEST(EngineCacheTest, IndexOnlyCacheMatchesFreshCounts) {
  const Graph g = BarabasiAlbert(100, 4, 9);
  const std::vector<Query> queries = SmallMixedQueries(g);

  EngineOptions opts = CachedEngineOptions(2);
  opts.cache.max_result_bytes = 0;  // exercise the index-hit path alone
  QueryEngine engine(g, opts);

  const BatchResult first = engine.CountBatch(queries);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.cache.index_misses, 0u);
  EXPECT_EQ(first.cache.result_hits, 0u);

  const BatchResult second = engine.CountBatch(queries);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.cache.index_hits, 0u);
  EXPECT_EQ(second.cache.index_misses, 0u);

  PathEnumerator fresh(g);
  for (size_t i = 0; i < queries.size(); ++i) {
    CountingSink sink;
    fresh.Run(queries[i], sink);
    EXPECT_EQ(second.stats[i].counters.num_results, sink.count());
    EXPECT_TRUE(second.stats[i].index_cache_hit);
    EXPECT_FALSE(second.stats[i].result_cache_hit);
  }
}

// ---------------------------------------------------------------------------
// Truncated runs never enter the result cache
// ---------------------------------------------------------------------------

TEST(EngineCacheTest, TruncatedRunsNeverEnterResultCache) {
  const Graph g = ErdosRenyi(60, 700, 21);
  const Query heavy{0, 30, 6};

  CountingSink ref;
  PathEnumerator(g).Run(heavy, ref);
  ASSERT_GT(ref.count(), 5u) << "need a query with more results than the limit";

  QueryEngine engine(g, CachedEngineOptions(1));
  BatchOptions opts;
  opts.query.result_limit = 5;
  const std::vector<Query> queries = {heavy};

  for (int round = 0; round < 3; ++round) {
    const BatchResult r = engine.CountBatch(queries, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.stats[0].counters.num_results, 5u);
    EXPECT_TRUE(r.stats[0].counters.hit_result_limit);
    EXPECT_FALSE(r.stats[0].result_cache_hit);
    EXPECT_EQ(r.cache.result_inserts, 0u)
        << "a limit-truncated run was recorded";
  }

  // An untruncated batch on the same key does get cached — and replay under
  // a tighter limit re-applies that limit.
  const BatchResult full = engine.CountBatch(queries);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.stats[0].counters.num_results, ref.count());
  EXPECT_EQ(full.cache.result_inserts, 1u);
  const BatchResult replay_limited = engine.CountBatch(queries, opts);
  ASSERT_TRUE(replay_limited.ok());
  EXPECT_EQ(replay_limited.stats[0].counters.num_results, 5u);
  EXPECT_TRUE(replay_limited.stats[0].counters.hit_result_limit);
  EXPECT_TRUE(replay_limited.stats[0].result_cache_hit);
}

TEST(EngineCacheTest, SinkStoppedRunsNeverEnterResultCache) {
  const Graph g = ErdosRenyi(60, 700, 21);
  const Query heavy{0, 30, 6};
  QueryEngine engine(g, CachedEngineOptions(1));

  class Quitting : public PathSink {
   public:
    bool OnPath(std::span<const VertexId>) override { return ++n_ < 3; }
    uint64_t n_ = 0;
  };
  Quitting sink;
  PathSink* sinks[] = {&sink};
  const std::vector<Query> queries = {heavy};
  const BatchResult r = engine.RunBatch(queries, sinks);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.stats[0].counters.stopped_by_sink);
  EXPECT_EQ(r.cache.result_inserts, 0u);
  EXPECT_EQ(engine.cache()->Stats().result_inserts, 0u);
}

// ---------------------------------------------------------------------------
// Invalidation on graph rebind
// ---------------------------------------------------------------------------

TEST(EngineCacheTest, RebindToNewGraphInvalidatesCaches) {
  const Graph a = ErdosRenyi(50, 400, 1);
  const Graph b = ErdosRenyi(50, 550, 2);
  const std::vector<Query> queries = SmallMixedQueries(a);

  QueryEngine engine(a, CachedEngineOptions(2));
  const BatchResult on_a = engine.CountBatch(queries);
  ASSERT_TRUE(on_a.ok());
  ASSERT_GT(engine.cache()->Stats().index_bytes, 0u);

  engine.RebindGraph(b);
  EXPECT_EQ(engine.cache()->Stats().index_bytes, 0u);
  EXPECT_EQ(engine.cache()->Stats().result_bytes, 0u);
  EXPECT_EQ(&engine.graph(), &b);

  const BatchResult on_b = engine.CountBatch(queries);
  ASSERT_TRUE(on_b.ok());
  PathEnumerator fresh(b);
  for (size_t i = 0; i < queries.size(); ++i) {
    CountingSink sink;
    fresh.Run(queries[i], sink);
    ASSERT_EQ(on_b.stats[i].counters.num_results, sink.count())
        << "stale cached answer served after rebind (query " << i << ")";
  }
}

// ---------------------------------------------------------------------------
// Batch dedup and worker clamping
// ---------------------------------------------------------------------------

/// Split mode interleaves branch units, so paths arrive in no fixed order:
/// compare sorted (duplicates kept).
std::vector<std::vector<VertexId>> Sorted(
    std::vector<std::vector<VertexId>> paths) {
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(EngineCacheTest, DuplicateQueriesInBatchFanOutToEverySink) {
  const Graph g = testing::PaperExampleGraph();
  const Query q = testing::PaperExampleQuery();
  const std::vector<Query> queries = {q, q, q};

  CollectingSink expected;
  PathEnumerator(g).Run(q, expected);

  for (const bool split : {false, true}) {
    for (const bool with_cache : {false, true}) {
      EngineOptions eopts;
      eopts.num_workers = 2;
      eopts.enable_cache = with_cache;
      QueryEngine engine(g, eopts);
      std::vector<CollectingSink> collected(queries.size());
      std::vector<PathSink*> sinks;
      for (auto& c : collected) sinks.push_back(&c);
      BatchOptions bopts;
      bopts.split_branches = split;
      const BatchResult result = engine.RunBatch(queries, sinks, bopts);
      ASSERT_TRUE(result.ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        if (split) {
          EXPECT_EQ(Sorted(collected[i].paths()), Sorted(expected.paths()))
              << "duplicate " << i << " (cache=" << with_cache << ", split)";
        } else {
          EXPECT_EQ(collected[i].paths(), expected.paths())
              << "duplicate " << i << " (cache=" << with_cache << ")";
        }
        EXPECT_EQ(result.stats[i].counters.num_results,
                  expected.paths().size());
      }
      // All three queries count as served even though the group ran once.
      EXPECT_EQ(engine.Stats().queries_run, queries.size());
    }
  }
}

TEST(EngineCacheTest, DedupRespectsPerSinkStopContract) {
  const Graph g = ErdosRenyi(60, 700, 33);
  const Query heavy{0, 30, 6};
  const std::vector<Query> queries = {heavy, heavy};

  class Quitting : public PathSink {
   public:
    bool OnPath(std::span<const VertexId>) override {
      EXPECT_FALSE(stopped_) << "OnPath called after it returned false";
      if (++n_ >= 3) {
        stopped_ = true;
        return false;
      }
      return true;
    }
    uint64_t n_ = 0;
    bool stopped_ = false;
  };

  CountingSink ref;
  PathEnumerator(g).Run(heavy, ref);
  for (const bool split : {false, true}) {
    for (const uint32_t workers : {1u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << "split=" << split << " workers=" << workers);
      CountingSink keeps_going;
      Quitting quits;
      std::vector<PathSink*> sinks = {&keeps_going, &quits};
      QueryEngine engine(g, {.num_workers = workers});
      BatchOptions bopts;
      bopts.split_branches = split;
      const BatchResult result = engine.RunBatch(queries, sinks, bopts);
      ASSERT_TRUE(result.ok());

      EXPECT_EQ(keeps_going.count(), ref.count())
          << "one duplicate quitting must not stop the others";
      EXPECT_EQ(quits.n_, 3u);
      EXPECT_TRUE(result.stats[1].counters.stopped_by_sink);
      EXPECT_EQ(result.stats[1].counters.num_results, 3u);
      EXPECT_FALSE(result.stats[0].counters.stopped_by_sink);
      EXPECT_EQ(result.stats[0].counters.num_results, ref.count());
    }
  }
}

TEST(EngineCacheTest, ActiveWorkersClampedToBatchAndHardware) {
  const Graph g = ErdosRenyi(40, 300, 5);
  QueryEngine engine(g, {.num_workers = 8});

  const std::vector<Query> two = {{0, 10, 3}, {1, 20, 3}};
  const BatchResult small = engine.CountBatch(two);
  ASSERT_TRUE(small.ok());
  EXPECT_LE(small.workers, 2u) << "more active workers than queries";
  EXPECT_GE(small.workers, 1u);

  const std::vector<Query> many = SmallMixedQueries(g);
  const BatchResult big = engine.CountBatch(many);
  ASSERT_TRUE(big.ok());
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 8;
  EXPECT_LE(big.workers, std::min(8u, hw));
}

}  // namespace
}  // namespace pathenum
