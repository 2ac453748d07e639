// The sharded serving tier (DESIGN.md §14): partition invariants,
// randomized sharded-vs-unsharded differentials — static and under update
// churn — asserting identical result sets and exact limit accounting, the
// router's decision (unsatisfiable, delegated, the index's cross-shard edge
// count) against brute force, the live cut count under churn, stitched
// queries against the serial pipeline on the materialized graph, in order,
// the stitched span, a failing union-index build, and Run racing
// SubmitUpdate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/path_enum.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "graph/view.h"
#include "obs/metrics.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "shard/shard_engine.h"
#include "test_util.h"
#include "util/fault_injection.h"

namespace pathenum {
namespace {

using testing::PathSet;
using testing::ToSet;
using testing::WithDeadEnds;

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

TEST(ShardRouter, RoutersGetDistinctGenerations) {
  // The generation labels every shard's and the router's metrics, so two
  // routers over the same graph never share a metric series.
  const Graph g = ErdosRenyi(60, 240, /*seed=*/1);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter r1(g, opts);
  ShardRouter r2(g, opts);
  EXPECT_NE(r1.generation(), r2.generation());
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

TEST(ShardRouter, RunRacingSubmitUpdateAnswersOnePublishedVersion) {
  // Run and SubmitUpdate may run concurrently (router.h). One thread
  // submits 30 random deltas while this one runs queries; every answer
  // must be the brute-force answer of one version current while its Run
  // was in flight: at least the version published before Run began, at
  // most the last one whose SubmitUpdate had begun when Run returned.
  const Graph base = ErdosRenyi(40, 160, /*seed=*/61);
  constexpr int kUpdates = 30;
  std::mt19937_64 rng(97);
  std::uniform_int_distribution<VertexId> pick(0, base.num_vertices() - 1);
  std::vector<GraphDelta> deltas(kUpdates);
  std::vector<Graph> versions{base};  // versions[v]: after v deltas
  GraphView reference(base);
  for (int i = 0; i < kUpdates; ++i) {
    for (int op = 0; op < 6; ++op) {
      const VertexId u = pick(rng);
      const VertexId v = pick(rng);
      if (u == v) continue;
      if (rng() % 2 == 0) {
        deltas[i].Insert(u, v);
      } else {
        deltas[i].Delete(u, v);
      }
    }
    reference = reference.Apply(deltas[i], i + 1);
    versions.push_back(reference.Materialize());
  }

  struct Answer {
    Query q;
    int lo = 0;
    int hi = 0;
    RouterResult result;
    PathSet paths;
  };
  for (const uint32_t shards : {2u, 4u}) {
    RouterOptions opts;
    opts.partition.num_shards = shards;
    ShardRouter router(base, opts);
    std::atomic<int> begun{0};      // SubmitUpdate calls begun
    std::atomic<int> published{0};  // SubmitUpdate calls returned
    std::thread updater([&] {
      for (int i = 0; i < kUpdates; ++i) {
        begun.store(i + 1);
        EXPECT_TRUE(router.SubmitUpdate(deltas[i]).ok());
        published.store(i + 1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    std::vector<Answer> answers;
    for (uint32_t i = 0; published.load() < kUpdates || i < 60; ++i) {
      const Query q{pick(rng), pick(rng), 3 + i % 3};
      if (q.source == q.target) continue;
      Answer a;
      a.q = q;
      a.lo = published.load();
      a.paths = RouterCollect(router, q, {}, &a.result);
      a.hi = begun.load();
      answers.push_back(std::move(a));
    }
    updater.join();

    for (const Answer& a : answers) {
      const Query& q = a.q;
      bool matched = false;
      for (int v = a.lo; v <= a.hi && !matched; ++v) {
        matched = a.paths == ToSet(BruteForcePaths(versions[v], q));
      }
      EXPECT_TRUE(matched) << "shards " << shards << " q(" << q.source << ","
                           << q.target << "," << q.hops << ") in flight over "
                           << "versions " << a.lo << ".." << a.hi;
      EXPECT_TRUE(a.result.state == QueryState::kOk ||
                  a.result.state == QueryState::kUnsatisfiable);
      EXPECT_EQ(a.result.stats.counters.num_results, a.paths.size());
    }
    EXPECT_EQ(router.stats().updates, static_cast<uint64_t>(kUpdates));
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

// ---------------------------------------------------------------------------
// Decision exactness: the unsatisfiable verdict, the delegate decision and
// the index's cross-shard edge count against a brute force over the
// materialized graph
// ---------------------------------------------------------------------------

/// Unbounded BFS distances from `root` along out-edges (forward) or
/// in-edges (backward) that reach `blocked` but never leave it;
/// kInfDistance where unreachable.
std::vector<uint32_t> BfsDistances(const Graph& g, VertexId root,
                                   bool forward,
                                   VertexId blocked = kInvalidVertex) {
  std::vector<uint32_t> dist(g.num_vertices(), kInfDistance);
  std::vector<VertexId> queue{root};
  dist[root] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId x = queue[head];
    if (x == blocked) continue;
    for (const VertexId y : forward ? g.OutNeighbors(x) : g.InNeighbors(x)) {
      if (dist[y] == kInfDistance) {
        dist[y] = dist[x] + 1;
        queue.push_back(y);
      }
    }
  }
  return dist;
}

/// Runs q through the router and checks its decision against brute force
/// on `g`, the graph the router currently serves: kUnsatisfiable iff
/// dist(s, t) > k; otherwise the index's cross-shard edges are the edges
/// (u, w) with owner(u) != owner(w), u != t, w != s and
/// v.s(u) + 1 + v.t(w) <= k, on the index's distances (v.s avoids t
/// inside, v.t avoids s), and the query is delegated to owner(s) iff there
/// are none.
void ExpectExactPlan(ShardRouter& router, const Graph& g, const Query& q,
                     const std::string& where) {
  const std::vector<uint32_t> ds = BfsDistances(g, q.source, true, q.target);
  const std::vector<uint32_t> dt = BfsDistances(g, q.target, false, q.source);
  uint64_t feasible = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (u == q.target || ds[u] == kInfDistance) continue;
    for (const VertexId w : g.OutNeighbors(u)) {
      if (w != q.source && router.ShardOf(u) != router.ShardOf(w) &&
          dt[w] != kInfDistance && ds[u] + 1 + dt[w] <= q.hops) {
        ++feasible;
      }
    }
  }
  EnumOptions opts;
  opts.result_limit = 32;
  CountingSink sink;
  const RouterResult r = router.Run(q, sink, opts);
  const std::string at = where + " q(" + std::to_string(q.source) + "," +
                         std::to_string(q.target) + "," +
                         std::to_string(q.hops) + ")";
  if (dt[q.source] > q.hops) {
    EXPECT_EQ(r.state, QueryState::kUnsatisfiable) << at;
    return;
  }
  EXPECT_NE(r.state, QueryState::kUnsatisfiable) << at;
  EXPECT_EQ(r.delegated, feasible == 0) << at;
  EXPECT_EQ(r.feasible_cut_edges, feasible) << at;  // 0 when delegated
  if (r.delegated) {
    EXPECT_EQ(r.delegate_shard, router.ShardOf(q.source)) << at;
  }
}

TEST(ShardRouter, PlanMatchesBruteForce) {
  const Graph graphs[] = {
      WithDeadEnds(ErdosRenyi(60, 200, /*seed=*/71)),
      WithDeadEnds(BarabasiAlbert(60, 2, /*back_prob=*/0.3, /*seed=*/73)),
      WithDeadEnds(LayeredGraph(/*layers=*/4, /*width=*/3)),
      // Hub-heavy: most X-only levels run bottom-up from their candidates.
      WithDeadEnds(RMat(/*scale=*/7, /*num_edges=*/1200, /*seed=*/75)),
  };
  for (size_t gi = 0; gi < std::size(graphs); ++gi) {
    const Graph& base = graphs[gi];
    const VertexId n = base.num_vertices();
    const VertexId dead = n - 3, fresh = n - 2, pendant = n - 1;
    for (const uint32_t shards : {2u, 4u, 8u}) {
      RouterOptions opts;
      opts.partition.num_shards = shards;
      ShardRouter router(base, opts);
      GraphView reference(base);
      std::mt19937_64 rng(1000 * gi + shards);
      // Updates stay among the generated vertices, so the three added ones
      // keep their missing in- or out-edges in every round.
      std::uniform_int_distribution<VertexId> pick(0, dead - 1);
      for (uint32_t round = 0; round <= 3; ++round) {
        if (round > 0) {
          GraphDelta delta;
          for (int i = 0; i < 12; ++i) {
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
          reference = reference.Apply(delta, round);
        }
        const Graph g = reference.Materialize();
        const std::string where = "graph " + std::to_string(gi) +
                                  " shards " + std::to_string(shards) +
                                  " round " + std::to_string(round);
        for (uint32_t k = 1; k <= 6; ++k) {
          std::vector<Query> queries = {
              {pendant, dead, k}, {fresh, dead, k},   {fresh, pendant, k},
              {dead, pick(rng), k}, {pick(rng), fresh, k},
          };
          // Pairs at distance exactly k and k + 1, and one at random.
          const VertexId s = pick(rng);
          const std::vector<uint32_t> ds = BfsDistances(g, s, true);
          for (const uint32_t want : {k, k + 1}) {
            for (VertexId t = 0; t < n; ++t) {
              if (ds[t] == want) {
                queries.push_back({s, t, k});
                break;
              }
            }
          }
          queries.push_back({s, pick(rng), k});
          for (const Query& q : queries) {
            if (q.source != q.target) ExpectExactPlan(router, g, q, where);
          }
        }
      }
    }
  }
}

/// (count, sum_ms) of the histogram whose count value starts at `pos` in
/// the registry's JSON exposition.
std::pair<uint64_t, double> HistogramAt(const std::string& json, size_t pos) {
  const uint64_t count = std::strtoull(json.c_str() + pos, nullptr, 10);
  const size_t sum = json.find("\"sum_ms\":", pos);
  return {count, std::strtod(json.c_str() + sum + 9, nullptr)};
}

/// (count, sum_ms) of `router`'s pathenum_router_plan_ms histogram, read
/// from the registry's JSON exposition.
std::pair<uint64_t, double> PlanHistogram(const ShardRouter& router) {
  const std::string json = obs::DumpMetricsJson();
  const std::string head = "\"pathenum_router_plan_ms{router=\\\"";
  const std::string tail = "\\\",gen=\\\"" +
                           std::to_string(router.generation()) +
                           "\\\"}\":{\"count\":";
  for (size_t at = json.find(head); at != std::string::npos;
       at = json.find(head, at + 1)) {
    size_t pos = at + head.size();
    while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') ++pos;
    if (json.compare(pos, tail.size(), tail) != 0) continue;
    return HistogramAt(json, pos + tail.size());
  }
  return {0, 0.0};
}

/// (count, sum_ms) of the process-wide span histogram
/// pathenum_query_stage_ms for `stage`.
std::pair<uint64_t, double> StageHistogram(const char* stage) {
  const std::string json = obs::DumpMetricsJson();
  const std::string key = "\"pathenum_query_stage_ms{stage=\\\"" +
                          std::string(stage) + "\\\"}\":{\"count\":";
  const size_t at = json.find(key);
  return at == std::string::npos ? std::pair<uint64_t, double>{0, 0.0}
                                 : HistogramAt(json, at + key.size());
}

TEST(ShardRouter, DelegatedTimesStartBeforeThePlan) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  // A one-hop query over an edge inside one shard has that edge as its
  // whole index, so it delegates; its total and response times start at
  // Pin(), like a stitched or unsatisfiable result's, and so cover the
  // union build.
  const Graph g = ErdosRenyi(2000, 16000, /*seed=*/61);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(g, opts);
  int delegated = 0;
  for (VertexId u = 0; u < g.num_vertices() && delegated < 20; u += 97) {
    for (const VertexId w : g.OutNeighbors(u)) {
      if (router.ShardOf(u) != router.ShardOf(w)) continue;
      const auto before = PlanHistogram(router);
      CountingSink sink;
      const RouterResult r = router.Run(Query{u, w, 1}, sink);
      const auto after = PlanHistogram(router);
      ASSERT_TRUE(r.delegated);
      ASSERT_EQ(after.first, before.first + 1);
      // The registry keeps whole nanoseconds, rounded.
      const double plan_ms = after.second - before.second - 1e-6;
      EXPECT_GE(r.stats.total_ms, plan_ms);
      EXPECT_GE(r.stats.response_ms, plan_ms);
      ++delegated;
      break;
    }
  }
  EXPECT_EQ(delegated, 20);
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
  for (int i = 0; i < 25; ++i) {
    const Query q{pick(rng), pick(rng), 5};
    if (q.source == q.target) continue;
    CountingSink sink;
    const RouterResult r = router.Run(q, sink);
    EXPECT_EQ(sink.count(), r.stats.counters.num_results);
    if (!r.delegated && r.state != QueryState::kUnsatisfiable) {
      EXPECT_GT(r.feasible_cut_edges, 0u);
    }
  }
  const ShardRouter::Stats rs = router.stats();
  EXPECT_GT(rs.queries, 0u);
  EXPECT_EQ(rs.queries, rs.delegated + rs.stitched + rs.unsatisfiable);
}

TEST(ShardRouter, StitchedSpanCoversThePlanAsIndexAcquire) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  // A stitched query's span begins before Pin(), and the union build with
  // its cross-shard count (pathenum_router_plan_ms) is its index_acquire
  // stage, so that stage is at least as long as the histogram's own
  // observation.
  const Graph g = ErdosRenyi(120, 1100, /*seed=*/41);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(g, opts);
  std::mt19937_64 rng(78);
  std::uniform_int_distribution<VertexId> pick(0, g.num_vertices() - 1);
  EnumOptions eopts;
  eopts.result_limit = 64;
  int stitched = 0;
  for (int i = 0; i < 300 && stitched < 30; ++i) {
    const Query q{pick(rng), pick(rng), 4};
    if (q.source == q.target) continue;
    const auto plan_before = PlanHistogram(router);
    const auto stage_before = StageHistogram("index_acquire");
    CountingSink sink;
    const RouterResult r = router.Run(q, sink, eopts);
    if (r.delegated || r.state == QueryState::kUnsatisfiable) continue;
    const auto plan_after = PlanHistogram(router);
    const auto stage_after = StageHistogram("index_acquire");
    ASSERT_EQ(plan_after.first, plan_before.first + 1);
    EXPECT_EQ(stage_after.first, stage_before.first + 1);
    // The registry keeps whole nanoseconds, rounded.
    EXPECT_GE(stage_after.second - stage_before.second,
              plan_after.second - plan_before.second - 1e-6);
    ++stitched;
  }
  EXPECT_EQ(stitched, 30);
}

TEST(ShardRouter, StitchedSpanRecordsTheMethodThatRan) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  // A stitched span records the plan that ran (QuerySpan::SetPlan), so
  // each stitched query counts once in pathenum_query_method_total under
  // the method its result reports: IDX-DFS under kAuto at k = 4, IDX-JOIN
  // when forced.
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const auto ran = [&reg](Method method) {
    const std::string label = "method=\"" + std::string(MethodName(method)) +
                              "\"";
    return reg.GetCounter("pathenum_query_method_total", label)->Value();
  };
  const Graph g = ErdosRenyi(120, 1100, /*seed=*/41);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(g, opts);
  std::mt19937_64 rng(80);
  std::uniform_int_distribution<VertexId> pick(0, g.num_vertices() - 1);
  for (const Method method : {Method::kAuto, Method::kJoin}) {
    EnumOptions eopts;
    eopts.method = method;
    eopts.result_limit = 64;
    int stitched = 0;
    for (int i = 0; i < 300 && stitched < 10; ++i) {
      const Query q{pick(rng), pick(rng), 4};
      if (q.source == q.target) continue;
      const uint64_t dfs_before = ran(Method::kDfs);
      const uint64_t join_before = ran(Method::kJoin);
      CountingSink sink;
      const RouterResult r = router.Run(q, sink, eopts);
      if (r.delegated || r.state == QueryState::kUnsatisfiable) continue;
      const Method want = method == Method::kJoin ? Method::kJoin : Method::kDfs;
      EXPECT_EQ(r.stats.method, want);
      EXPECT_EQ(ran(Method::kDfs) - dfs_before, want == Method::kDfs ? 1u : 0u);
      EXPECT_EQ(ran(Method::kJoin) - join_before,
                want == Method::kJoin ? 1u : 0u);
      ++stitched;
    }
    EXPECT_EQ(stitched, 10);
  }
}

TEST(ShardRouter, ThrowingSinkFailsTheQueryNotTheRouter) {
  // A sink that throws fails its query as kError carrying the sink's
  // message, stitched or delegated alike; the router keeps answering.
  class Throwing : public PathSink {
   public:
    bool OnPath(std::span<const VertexId>) override {
      throw std::runtime_error("sink failed");
    }
  };
  const Graph g = BarabasiAlbert(400, 3, /*back_prob=*/0.5, /*seed=*/7);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(g, opts);
  // Fails `q` through a throwing sink, then checks the next run of it.
  const auto fail_then_answer = [&](const Query& q, bool delegated) {
    Throwing throwing;
    const RouterResult failed = router.Run(q, throwing);
    EXPECT_EQ(failed.delegated, delegated);
    EXPECT_EQ(failed.state, QueryState::kError);
    EXPECT_EQ(failed.error, "sink failed");
    EXPECT_EQ(RouterCollect(router, q), ToSet(BruteForcePaths(g, q)))
        << "q(" << q.source << ", " << q.target << ", " << q.hops << ")";
  };

  int stitched = 0;
  for (VertexId s = 0; s < g.num_vertices() && stitched < 3; s += 13) {
    const Query q{s, (s + 211) % g.num_vertices(), 4};
    CountingSink probe;
    const RouterResult r = router.Run(q, probe);
    if (r.delegated || probe.count() == 0) continue;
    fail_then_answer(q, /*delegated=*/false);
    ++stitched;
  }
  EXPECT_EQ(stitched, 3);

  // A one-hop query over an edge inside one shard has that edge as its
  // whole index, so it delegates, and its one path reaches the sink.
  int delegated = 0;
  for (VertexId u = 0; u < g.num_vertices() && delegated < 3; u += 17) {
    for (const VertexId w : g.OutNeighbors(u)) {
      if (router.ShardOf(u) != router.ShardOf(w)) continue;
      fail_then_answer(Query{u, w, 1}, /*delegated=*/true);
      ++delegated;
      break;
    }
  }
  EXPECT_EQ(delegated, 3);
}

TEST(ShardRouter, ThrowingIndexBuildFailsOnlyItsQuery) {
  if (!fault::kCompiledIn) GTEST_SKIP() << "fault sites compiled out";
  // A fault thrown in the router's own union-index build, in a distance
  // pass or in the assembly, fails that query as kError with the hook's
  // message: its span finishes with that state, it counts once in
  // Stats::failed, and the next run of the query answers it.
  const Graph g = BarabasiAlbert(400, 3, /*back_prob=*/0.5, /*seed=*/7);
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(g, opts);
  const Query q{1, 9, 4};
  const PathSet want = ToSet(BruteForcePaths(g, q));
  ASSERT_FALSE(want.empty());
  obs::RegCounter* error_spans = obs::MetricRegistry::Global().GetCounter(
      "pathenum_query_finished_total", "state=\"Error\"");
  for (const fault::Site site :
       {fault::Site::kIndexBuildWave, fault::Site::kIndexAdjacency}) {
    const uint64_t error_spans_before = error_spans->Value();
    {
      const fault::ScopedFault boom(site, [] {
        throw std::runtime_error("injected: union build failed");
      });
      CollectingSink sink;
      const RouterResult r = router.Run(q, sink);
      EXPECT_GT(fault::HitCount(site), 0u);
      EXPECT_EQ(r.state, QueryState::kError);
      EXPECT_EQ(r.error, "injected: union build failed");
      EXPECT_TRUE(sink.paths().empty());
    }
    if (obs::kEnabled) {
      EXPECT_EQ(error_spans->Value(), error_spans_before + 1);
    }
    EXPECT_EQ(RouterCollect(router, q), want);
  }
  const ShardRouter::Stats rs = router.stats();
  EXPECT_EQ(rs.failed, 2u);
  EXPECT_EQ(rs.queries, rs.delegated + rs.stitched + rs.unsatisfiable +
                            rs.rejected + rs.failed);
}

/// Keeps, in order, every path it accepts; refuses its `refuse_at`-th
/// call (0: none).
class OrderedSink : public PathSink {
 public:
  explicit OrderedSink(uint64_t refuse_at) : refuse_at_(refuse_at) {}
  bool OnPath(std::span<const VertexId> path) override {
    if (++calls_ == refuse_at_) return false;
    paths.emplace_back(path.begin(), path.end());
    return true;
  }
  std::vector<std::vector<VertexId>> paths;

 private:
  const uint64_t refuse_at_;
  uint64_t calls_ = 0;
};

TEST(ShardRouter, StitchedQueriesMatchTheSerialPipelineInOrder) {
  // Every stitched query returns what PathEnumerator::Run returns on the
  // materialized graph: the same paths in the same order, the same edge
  // reads, method, terminal state and index size. Unlimited; limits 7 and
  // 100; a work budget of half the serial run's reads; an expired
  // deadline; a sink refusing its 7th path.
  const Graph graphs[] = {
      ErdosRenyi(90, 500, /*seed=*/47),
      BarabasiAlbert(90, 3, /*back_prob=*/0.4, /*seed=*/53),
  };
  uint64_t stitched = 0, limited = 0;
  for (size_t gi = 0; gi < std::size(graphs); ++gi) {
    const Graph& base = graphs[gi];
    for (const uint32_t shards : {2u, 4u, 8u}) {
      RouterOptions opts;
      opts.partition.num_shards = shards;
      ShardRouter router(base, opts);
      GraphView reference(base);
      std::mt19937_64 rng(100 * gi + shards);
      std::uniform_int_distribution<VertexId> pick(0, base.num_vertices() - 1);
      for (uint32_t round = 0; round <= 2; ++round) {
        if (round > 0) {
          GraphDelta delta;
          for (int i = 0; i < 12; ++i) {
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
          reference = reference.Apply(delta, round);
        }
        const Graph g = reference.Materialize();
        PathEnumerator serial(g);
        for (uint32_t k = 3; k <= 6; ++k) {
          for (int i = 0; i < 4; ++i) {
            const Query q{pick(rng), pick(rng), k};
            if (q.source == q.target) continue;
            CountingSink probe;
            const RouterResult decided = router.Run(q, probe);
            if (decided.delegated ||
                decided.state == QueryState::kUnsatisfiable) {
              continue;
            }
            ++stitched;
            CountingSink all;
            const uint64_t reads = serial.Run(q, all).counters.edges_accessed;
            EnumOptions limit7, limit100, budget, expired;
            limit7.result_limit = 7;
            limit100.result_limit = 100;
            budget.work_budget_edges = reads / 2;
            expired.time_limit_ms = 0;
            const struct {
              const char* name;
              EnumOptions opts;
              uint64_t refuse_at;
            } cases[] = {
                {"unlimited", {}, 0},      {"limit 7", limit7, 0},
                {"limit 100", limit100, 0}, {"budget", budget, 0},
                {"expired", expired, 0},   {"refuse 7th", {}, 7},
            };
            for (const auto& c : cases) {
              const std::string at =
                  std::string(c.name) + " graph " + std::to_string(gi) +
                  " shards " + std::to_string(shards) + " round " +
                  std::to_string(round) + " q(" + std::to_string(q.source) +
                  "," + std::to_string(q.target) + "," + std::to_string(k) +
                  ")";
              OrderedSink got_sink(c.refuse_at), want_sink(c.refuse_at);
              const RouterResult got = router.Run(q, got_sink, c.opts);
              const QueryStats want = serial.Run(q, want_sink, c.opts);
              EXPECT_FALSE(got.delegated) << at;
              EXPECT_EQ(got_sink.paths, want_sink.paths) << at;
              EXPECT_EQ(got.stats.counters.num_results,
                        want.counters.num_results)
                  << at;
              EXPECT_EQ(got.stats.counters.edges_accessed,
                        want.counters.edges_accessed)
                  << at;
              EXPECT_EQ(got.stats.method, want.method) << at;
              EXPECT_EQ(got.state, want.counters.TerminalState()) << at;
              EXPECT_EQ(got.stats.index_vertices, want.index_vertices) << at;
              EXPECT_EQ(got.stats.index_edges, want.index_edges) << at;
              limited += got.stats.counters.hit_result_limit;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(stitched, 100u);
  EXPECT_GT(limited, 100u);
}

TEST(ShardRouter, CutSizeTracksTheLiveCutUnderChurn) {
  // cut_size() against a recount of the materialized reference's
  // cross-shard edges after every round. Each delta deletes existing edges
  // and inserts new ones, repeats some ops, and inserts and deletes one
  // cross-shard pair in the same delta (deletions apply last).
  const Graph base = ErdosRenyi(80, 400, /*seed=*/29);
  for (const uint32_t shards : {2u, 4u}) {
    RouterOptions opts;
    opts.partition.num_shards = shards;
    ShardRouter router(base, opts);
    const auto recount = [&](const Graph& g) {
      size_t cut = 0;
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        for (const VertexId v : g.OutNeighbors(u)) {
          cut += router.ShardOf(u) != router.ShardOf(v);
        }
      }
      return cut;
    };
    ASSERT_EQ(router.cut_size(), recount(base));
    GraphView reference(base);
    std::mt19937_64 rng(600 + shards);
    std::uniform_int_distribution<VertexId> pick(0, base.num_vertices() - 1);
    for (uint32_t round = 1; round <= 30; ++round) {
      GraphDelta delta;
      for (int i = 0; i < 12; ++i) {
        const VertexId u = pick(rng);
        const auto out = reference.OutNeighbors(u);
        if (rng() % 2 == 0 && !out.empty()) {
          delta.Delete(u, out[rng() % out.size()]);
        } else {
          const VertexId v = pick(rng);
          if (u != v) delta.Insert(u, v);
        }
      }
      if (!delta.insertions.empty()) {
        const auto [u, v] = delta.insertions[0];
        delta.Insert(u, v);
      }
      if (!delta.deletions.empty()) {
        const auto [u, v] = delta.deletions[0];
        delta.Delete(u, v);
      }
      const VertexId u = pick(rng);
      VertexId v = pick(rng);
      while (router.ShardOf(u) == router.ShardOf(v)) v = pick(rng);
      delta.Insert(u, v).Delete(u, v);
      ASSERT_TRUE(router.SubmitUpdate(delta).ok());
      reference = reference.Apply(delta, round);
      EXPECT_EQ(router.cut_size(), recount(reference.Materialize()))
          << "shards " << shards << " round " << round;
    }
  }
}

}  // namespace
}  // namespace pathenum
