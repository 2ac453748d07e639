// The sharded serving tier (DESIGN.md §14): partition invariants, the
// per-shard cache-key salt, and randomized sharded-vs-unsharded
// differentials — static and under update churn — asserting identical
// result sets and exact limit accounting at the router's merge barrier.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/reference.h"
#include "engine/index_cache.h"
#include "graph/generators.h"
#include "graph/view.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "shard/shard_engine.h"
#include "shard/transport.h"
#include "test_util.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;

PathSet RouterCollect(ShardRouter& router, const Query& q,
                      const EnumOptions& opts = {},
                      RouterResult* result_out = nullptr) {
  CollectingSink sink;
  RouterResult r = router.Run(q, sink, opts);
  if (result_out != nullptr) *result_out = r;
  return ToSet(sink.paths());
}

// ---------------------------------------------------------------------------
// Partition invariants
// ---------------------------------------------------------------------------

TEST(GraphPartition, EveryEdgeExactlyOnceInTailShard) {
  const Graph g = ErdosRenyi(120, 700, /*seed=*/7);
  for (const uint32_t shards : {2u, 4u, 8u}) {
    PartitionOptions opts;
    opts.num_shards = shards;
    GraphPartition part = GraphPartitioner::Partition(g, opts);
    ASSERT_EQ(part.num_shards(), shards);
    ASSERT_EQ(part.num_vertices(), g.num_vertices());

    uint64_t total_edges = 0;
    uint64_t cut = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const uint32_t owner = part.ShardOf(u);
      ASSERT_LT(owner, shards);
      for (const VertexId v : g.OutNeighbors(u)) {
        // Tail ownership: (u, v) lives in owner(u)'s subgraph and nowhere
        // else; every shard graph spans the full vertex space.
        for (uint32_t s = 0; s < shards; ++s) {
          ASSERT_EQ(part.ShardGraph(s).num_vertices(), g.num_vertices());
          EXPECT_EQ(part.ShardGraph(s).HasEdge(u, v), s == owner)
              << "edge (" << u << "," << v << ") shard " << s;
        }
        ++total_edges;
        if (part.ShardOf(v) != owner) ++cut;
      }
    }
    uint64_t shard_edge_sum = 0;
    for (uint32_t s = 0; s < shards; ++s) shard_edge_sum += part.EdgesInShard(s);
    EXPECT_EQ(shard_edge_sum, total_edges);
    EXPECT_EQ(part.cut_edges().size(), cut);
  }
}

TEST(GraphPartition, CutListMatchesMapAndIsSorted) {
  const Graph g = BarabasiAlbert(150, 4, /*back_prob=*/0.3, /*seed=*/11);
  PartitionOptions opts;
  opts.num_shards = 4;
  GraphPartition part = GraphPartitioner::Partition(g, opts);
  const auto cut = part.cut_edges();
  for (size_t i = 0; i < cut.size(); ++i) {
    EXPECT_NE(cut[i].tail_shard, cut[i].head_shard);
    EXPECT_EQ(cut[i].tail_shard, part.ShardOf(cut[i].tail));
    EXPECT_EQ(cut[i].head_shard, part.ShardOf(cut[i].head));
    EXPECT_TRUE(g.HasEdge(cut[i].tail, cut[i].head));
    if (i > 0) {
      EXPECT_TRUE(cut[i - 1].tail < cut[i].tail ||
                  (cut[i - 1].tail == cut[i].tail &&
                   cut[i - 1].head < cut[i].head));
    }
  }
}

TEST(GraphPartition, RespectsBalanceCapacity) {
  const Graph g = ErdosRenyi(400, 2400, /*seed=*/3);
  PartitionOptions opts;
  opts.num_shards = 4;
  opts.balance_slack = 1.05;
  GraphPartition part = GraphPartitioner::Partition(g, opts);
  const VertexId cap = static_cast<VertexId>(
      opts.balance_slack * g.num_vertices() / opts.num_shards + 1);
  for (uint32_t s = 0; s < part.num_shards(); ++s) {
    EXPECT_LE(part.VerticesInShard(s), cap);
  }
}

TEST(GraphPartition, SingleShardHasEmptyCut) {
  const Graph g = ErdosRenyi(50, 200, /*seed=*/5);
  PartitionOptions opts;
  opts.num_shards = 1;
  GraphPartition part = GraphPartitioner::Partition(g, opts);
  EXPECT_TRUE(part.cut_edges().empty());
  EXPECT_EQ(part.num_boundary_vertices(), 0u);
  EXPECT_EQ(part.EdgesInShard(0), g.num_edges());
}

// ---------------------------------------------------------------------------
// Cache-key salting (satellite: no (s,t,k,options) aliasing across shards)
// ---------------------------------------------------------------------------

TEST(ShardCacheSalt, NonZeroAndInjective) {
  std::set<uint64_t> seen;
  for (uint64_t gen = 1; gen <= 4; ++gen) {
    for (uint32_t shard = 0; shard < 16; ++shard) {
      const uint64_t salt = ShardCacheSalt(shard, gen);
      EXPECT_NE(salt, 0u);
      EXPECT_TRUE(seen.insert(salt).second)
          << "salt collision at shard " << shard << " gen " << gen;
    }
  }
}

TEST(ShardCacheSalt, SaltedKeyInjectiveAcrossSalts) {
  CacheKey key{/*source=*/3, /*target=*/9, /*hops=*/5, /*fingerprint=*/42};
  // Salt 0 is the identity (unsharded engines are untouched).
  EXPECT_EQ(IndexCache::SaltedKey(key, 0), key);
  const CacheKey a = IndexCache::SaltedKey(key, ShardCacheSalt(0, 1));
  const CacheKey b = IndexCache::SaltedKey(key, ShardCacheSalt(1, 1));
  const CacheKey c = IndexCache::SaltedKey(key, ShardCacheSalt(0, 2));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  // s/t/k survive (epoch invalidation predicates match on them).
  EXPECT_EQ(a.source, key.source);
  EXPECT_EQ(a.target, key.target);
  EXPECT_EQ(a.hops, key.hops);
}

TEST(ShardRouter, ShardsGetDistinctSaltsAcrossGenerations) {
  const Graph g = ErdosRenyi(60, 240, /*seed=*/1);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter r1(g, opts);
  ShardRouter r2(g, opts);
  EXPECT_NE(r1.generation(), r2.generation());
  std::set<uint64_t> salts;
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(salts.insert(r1.shard(s).cache_key_salt()).second);
    EXPECT_TRUE(salts.insert(r2.shard(s).cache_key_salt()).second);
  }
}

// ---------------------------------------------------------------------------
// Sharded-vs-unsharded differentials
// ---------------------------------------------------------------------------

TEST(ShardRouter, MatchesBruteForceOnPaperExample) {
  const Graph g = testing::PaperExampleGraph();
  for (const uint32_t shards : {2u, 4u}) {
    RouterOptions opts;
    opts.partition.num_shards = shards;
    ShardRouter router(g, opts);
    RouterResult r;
    const PathSet got = RouterCollect(router, testing::PaperExampleQuery(),
                                      {}, &r);
    EXPECT_EQ(r.state, QueryState::kOk);
    EXPECT_EQ(got, ToSet(BruteForcePaths(g, testing::PaperExampleQuery())));
  }
}

TEST(ShardRouter, RandomizedStaticDifferential) {
  std::mt19937_64 rng(2024);
  const Graph graphs[] = {
      ErdosRenyi(80, 480, /*seed=*/13),
      BarabasiAlbert(90, 3, /*back_prob=*/0.4, /*seed=*/17),
      LayeredGraph(/*layers=*/3, /*width=*/4),
  };
  for (const Graph& g : graphs) {
    for (const uint32_t shards : {2u, 4u, 8u}) {
      RouterOptions opts;
      opts.partition.num_shards = shards;
      ShardRouter router(g, opts);
      std::uniform_int_distribution<VertexId> pick(0, g.num_vertices() - 1);
      for (int i = 0; i < 12; ++i) {
        Query q{pick(rng), pick(rng), static_cast<uint32_t>(3 + i % 4)};
        if (q.source == q.target) continue;
        RouterResult r;
        const PathSet got = RouterCollect(router, q, {}, &r);
        const PathSet want = ToSet(BruteForcePaths(g, q));
        EXPECT_EQ(got, want) << "q(" << q.source << "," << q.target << ","
                             << q.hops << ") shards=" << shards;
        if (r.state == QueryState::kUnsatisfiable) {
          EXPECT_TRUE(want.empty());
          EXPECT_TRUE(r.stats.counters.oracle_rejected);
        } else {
          EXPECT_EQ(r.state, QueryState::kOk);
        }
        EXPECT_EQ(r.stats.counters.num_results, want.size());
      }
    }
  }
}

TEST(ShardRouter, UpdateChurnDifferential) {
  std::mt19937_64 rng(555);
  const Graph base = ErdosRenyi(70, 380, /*seed=*/23);
  for (const uint32_t shards : {2u, 4u}) {
    RouterOptions opts;
    opts.partition.num_shards = shards;
    ShardRouter router(base, opts);
    GraphView reference(base);
    uint64_t version = 0;
    std::uniform_int_distribution<VertexId> pick(0, base.num_vertices() - 1);
    for (int round = 0; round < 8; ++round) {
      GraphDelta delta;
      for (int i = 0; i < 10; ++i) {
        const VertexId u = pick(rng);
        const VertexId v = pick(rng);
        if (u == v) continue;
        if (rng() % 2 == 0) {
          delta.Insert(u, v);
        } else {
          delta.Delete(u, v);
        }
      }
      ASSERT_TRUE(router.SubmitUpdate(delta).ok());
      reference = reference.Apply(delta, ++version);
      const Graph snapshot = reference.Materialize();
      for (int i = 0; i < 4; ++i) {
        Query q{pick(rng), pick(rng), static_cast<uint32_t>(3 + i)};
        if (q.source == q.target) continue;
        const PathSet got = RouterCollect(router, q);
        EXPECT_EQ(got, ToSet(BruteForcePaths(snapshot, q)))
            << "round " << round << " shards " << shards << " q("
            << q.source << "," << q.target << "," << q.hops << ")";
      }
    }
    EXPECT_EQ(router.stats().updates, 8u);
  }
}

TEST(ShardRouter, DeliveredEqualsLimitAtMergeBarrier) {
  // 4^4 = 256 paths of 5 edges each; the limit must be met exactly —
  // delivered() == limit, never limit +/- 1 — whether the query was
  // delegated or stitched.
  const Graph g = LayeredGraph(/*layers=*/4, /*width=*/4);
  const Query q{0, g.num_vertices() - 1, 5};
  for (const uint32_t shards : {2u, 4u, 8u}) {
    RouterOptions opts;
    opts.partition.num_shards = shards;
    ShardRouter router(g, opts);
    for (const uint64_t limit : {1u, 7u, 100u, 255u}) {
      EnumOptions eopts;
      eopts.result_limit = limit;
      RouterResult r;
      const PathSet got = RouterCollect(router, q, eopts, &r);
      EXPECT_EQ(got.size(), limit) << "shards=" << shards;
      EXPECT_EQ(r.stats.counters.num_results, limit);
      EXPECT_EQ(r.state, QueryState::kTruncated);
      EXPECT_TRUE(r.stats.counters.hit_result_limit);
    }
    // With headroom above the exact path count the run completes.
    EnumOptions eopts;
    eopts.result_limit = 300;
    RouterResult r;
    const PathSet got = RouterCollect(router, q, eopts, &r);
    EXPECT_EQ(got.size(), 256u);
    EXPECT_EQ(r.state, QueryState::kOk);
  }
}

TEST(ShardRouter, UnsatisfiableAndRejectedQueries) {
  // Two disconnected halves: any cross-half query is unsatisfiable.
  GraphBuilder b(20);
  for (VertexId v = 0; v + 1 < 10; ++v) b.AddEdge(v, v + 1);
  for (VertexId v = 10; v + 1 < 20; ++v) b.AddEdge(v, v + 1);
  const Graph g = b.Build();
  RouterOptions opts;
  opts.partition.num_shards = 2;
  ShardRouter router(g, opts);

  CollectingSink sink;
  RouterResult r = router.Run(Query{0, 15, 8}, sink);
  EXPECT_EQ(r.state, QueryState::kUnsatisfiable);
  EXPECT_TRUE(r.stats.counters.oracle_rejected);
  EXPECT_TRUE(sink.paths().empty());

  r = router.Run(Query{3, 3, 4}, sink);
  EXPECT_EQ(r.state, QueryState::kRejected);
  EXPECT_FALSE(r.error.empty());

  r = router.Run(Query{0, g.num_vertices(), 4}, sink);
  EXPECT_EQ(r.state, QueryState::kRejected);
  EXPECT_EQ(router.stats().rejected, 2u);
}

TEST(ShardRouter, PreCancelledStitchedQueryReportsCancelled) {
  const Graph g = ErdosRenyi(100, 900, /*seed=*/31);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(g, opts);
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<VertexId> pick(0, g.num_vertices() - 1);
  for (int i = 0; i < 20; ++i) {
    const Query q{pick(rng), pick(rng), 6};
    if (q.source == q.target) continue;
    CancelToken token = CancelToken::Cancellable();
    token.Cancel();
    EnumOptions eopts;
    eopts.cancel = token;
    CollectingSink sink;
    const RouterResult r = router.Run(q, sink, eopts);
    if (!r.delegated && r.state != QueryState::kUnsatisfiable) {
      EXPECT_EQ(r.state, QueryState::kCancelled);
      EXPECT_TRUE(sink.paths().empty());
    }
  }
}

TEST(ShardRouter, StitchedWorkShowsUpInShardAndRouterStats) {
  const Graph g = ErdosRenyi(120, 1100, /*seed=*/41);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(g, opts);
  EXPECT_GT(router.cut_size(), 0u);
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<VertexId> pick(0, g.num_vertices() - 1);
  uint64_t delivered = 0;
  for (int i = 0; i < 25; ++i) {
    const Query q{pick(rng), pick(rng), 5};
    if (q.source == q.target) continue;
    CountingSink sink;
    const RouterResult r = router.Run(q, sink);
    delivered += sink.count();
    EXPECT_EQ(sink.count(), r.stats.counters.num_results);
  }
  const ShardRouter::Stats rs = router.stats();
  EXPECT_GT(rs.queries, 0u);
  EXPECT_EQ(rs.queries, rs.delegated + rs.stitched + rs.unsatisfiable);
  if (rs.stitched > 0) {
    EXPECT_GT(rs.frames_sent, 0u);
    uint64_t emitted = 0;
    uint64_t frames = 0;
    for (uint32_t s = 0; s < router.num_shards(); ++s) {
      emitted += router.shard(s).stats().paths_emitted;
      frames += router.shard(s).stats().frames_processed;
    }
    EXPECT_GT(frames, 0u);
    EXPECT_LE(emitted, delivered);
  }
}

// ---------------------------------------------------------------------------
// Transport lifecycle and frame codec
// ---------------------------------------------------------------------------

TEST(ShardTransport, StartStopCyclesNeverHang) {
  // Regression: Stop() set its flag and notified without the endpoint
  // mutex, so a service thread between its predicate check and its wait
  // slept through the wake-up and Stop() never returned. Every cycle also
  // sends one frame: each frame Send accepts must be delivered, and a
  // stopped transport must accept none. A watchdog turns a hang into a
  // failure instead of stalling the suite.
  constexpr int kCycles = 20000;
  std::atomic<int> cycle{0};
  std::mutex mutex;
  std::condition_variable finished_cv;
  bool finished = false;
  std::thread watchdog([&] {
    // A hang is no progress for 30 s: one cycle takes microseconds, so this
    // holds however slowly a sanitizer build runs the whole loop.
    std::unique_lock<std::mutex> lock(mutex);
    int last = -1;
    while (!finished_cv.wait_for(lock, std::chrono::seconds(30),
                                 [&] { return finished; })) {
      const int now = cycle.load();
      if (now == last) {
        std::fprintf(stderr, "InProcessTransport::Stop hung in cycle %d\n",
                     now);
        std::_Exit(EXIT_FAILURE);
      }
      last = now;
    }
  });
  std::atomic<uint64_t> delivered{0};
  uint64_t accepted = 0;
  uint64_t accepted_after_stop = 0;
  for (; cycle.load() < kCycles; ++cycle) {
    InProcessTransport transport;
    transport.Start(4, [&](uint32_t, std::vector<uint8_t>) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    });
    accepted += transport.Send(cycle.load() % 4, {1, 2, 3});
    transport.Stop();
    accepted_after_stop += transport.Send(0, {1});
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    finished = true;
  }
  finished_cv.notify_all();
  watchdog.join();
  EXPECT_EQ(delivered.load(), accepted);
  EXPECT_EQ(accepted_after_stop, 0u);
}


TEST(ShardTransport, FrameCodecRoundTrips) {
  PathBlock block;
  const uint32_t p1[] = {0, 3, 7, 9};
  const uint32_t p2[] = {0, 3, 8};
  const uint32_t p3[] = {1, 2};
  block.Append(p1);
  block.Append(p2);
  block.Append(p3);
  const std::vector<uint8_t> frame =
      EncodeFrame(/*query_id=*/99, /*src_shard=*/2, PathBlockView(block));

  FrameHeader header;
  std::vector<PathBlock::Entry> entries;
  std::vector<VertexId> verts;
  ASSERT_TRUE(DecodeFrame(frame, header, entries, verts));
  EXPECT_EQ(header.query_id, 99u);
  EXPECT_EQ(header.src_shard, 2u);
  EXPECT_EQ(header.num_paths, 3u);

  std::vector<std::vector<VertexId>> decoded;
  ForEachPathInBlock(
      PathBlockView(entries.data(), verts.data(), header.num_paths,
                    header.total_path_verts),
      [&](std::span<const VertexId> p) {
        decoded.emplace_back(p.begin(), p.end());
        return true;
      });
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0], (std::vector<VertexId>{0, 3, 7, 9}));
  EXPECT_EQ(decoded[1], (std::vector<VertexId>{0, 3, 8}));
  EXPECT_EQ(decoded[2], (std::vector<VertexId>{1, 2}));

  // Truncated frames are rejected, not misread.
  std::vector<uint8_t> cut(frame.begin(), frame.end() - 1);
  EXPECT_FALSE(DecodeFrame(cut, header, entries, verts));
}

}  // namespace
}  // namespace pathenum
