// Tests for the live-graph subsystem (DESIGN.md §7): GraphDelta/GraphView
// overlays, SnapshotManager versioning and compaction, UpdateImpact
// soundness, snapshot-versioned incremental cache invalidation, and the
// AsyncEngine's epoch-ordering guarantees — including updates racing
// in-flight queries.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/path_enum.h"
#include "core/reference.h"
#include "engine/query_engine.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/view.h"
#include "live/async_engine.h"
#include "live/impact.h"
#include "live/live_oracle.h"
#include "live/snapshot.h"
#include "test_util.h"
#include "util/rng.h"

namespace pathenum {
namespace {

using testing::PaperExampleGraph;
using testing::PaperExampleQuery;
using testing::PathSet;
using testing::ToSet;

PathSet EnumerateOnView(const GraphView& view, const Query& q) {
  PathEnumerator pe(view);
  CollectingSink sink;
  pe.Run(q, sink);
  return ToSet(sink.paths());
}

PathSet Reference(const Graph& g, const Query& q) {
  return ToSet(BruteForcePaths(g, q));
}

// ---------------------------------------------------------------------------
// GraphView / GraphDelta
// ---------------------------------------------------------------------------

TEST(GraphViewTest, BorrowingViewMatchesGraph) {
  const Graph g = PaperExampleGraph();
  const GraphView view(g);
  EXPECT_EQ(view.num_vertices(), g.num_vertices());
  EXPECT_EQ(view.num_edges(), g.num_edges());
  EXPECT_EQ(view.version(), 0u);
  EXPECT_FALSE(view.has_overlay());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.OutNeighbors(v);
    const auto b = view.OutNeighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    const auto ai = g.InNeighbors(v);
    const auto bi = view.InNeighbors(v);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()));
  }
}

TEST(GraphViewTest, InsertAndDeleteKeepSortedContract) {
  const Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 3}, {0, 4}});
  GraphDelta delta;
  delta.Insert(1, 5).Insert(1, 0).Delete(0, 4);
  const GraphView v1 = GraphView(g).Apply(delta, 1);

  EXPECT_EQ(v1.version(), 1u);
  EXPECT_TRUE(v1.has_overlay());
  EXPECT_EQ(v1.num_edges(), g.num_edges() + 2 - 1);
  EXPECT_TRUE(v1.HasEdge(1, 5));
  EXPECT_TRUE(v1.HasEdge(1, 0));
  EXPECT_FALSE(v1.HasEdge(0, 4));
  // Sorted ascending even after overlay edits, out and in.
  const auto out1 = v1.OutNeighbors(1);
  ASSERT_TRUE(std::is_sorted(out1.begin(), out1.end()));
  EXPECT_EQ(std::vector<VertexId>(out1.begin(), out1.end()),
            (std::vector<VertexId>{0, 2, 5}));
  const auto in0 = v1.InNeighbors(0);
  EXPECT_EQ(std::vector<VertexId>(in0.begin(), in0.end()),
            (std::vector<VertexId>{1}));
  // The base graph and the version-0 view are untouched (MVCC).
  EXPECT_TRUE(g.HasEdge(0, 4));
  EXPECT_FALSE(g.HasEdge(1, 5));
}

TEST(GraphViewTest, NoOpAndDuplicateDeltasAreIgnored) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  GraphDelta delta;
  delta.Insert(0, 1);  // already present
  delta.Insert(2, 2);  // self-loop
  delta.Insert(3, 1).Insert(3, 1);  // duplicate insert
  delta.Delete(0, 3);  // absent
  const GraphView v1 = GraphView(g).Apply(delta, 1);
  EXPECT_EQ(v1.num_edges(), g.num_edges() + 1);
  EXPECT_TRUE(v1.HasEdge(3, 1));
}

TEST(GraphViewTest, DeltaIsASetDeletionsWin) {
  // Within one delta, order of Insert/Delete calls is irrelevant:
  // insertions apply first, deletions win on conflicts (documented batch
  // semantics; order-dependent streams split across epochs).
  const Graph g = Graph::FromEdges(3, {{0, 1}});
  const GraphView a =
      GraphView(g).Apply(GraphDelta{}.Delete(1, 2).Insert(1, 2), 1);
  const GraphView b =
      GraphView(g).Apply(GraphDelta{}.Insert(1, 2).Delete(1, 2), 1);
  EXPECT_FALSE(a.HasEdge(1, 2));
  EXPECT_FALSE(b.HasEdge(1, 2));
}

TEST(GraphViewTest, MaterializePreservesEdgeAttributes) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 2.5, 7);
  b.AddEdge(1, 2, 0.5, 3);
  b.AddEdge(2, 3, 4.0, 1);
  const Graph g = b.Build();

  // Touch vertex 1's adjacency and insert a fresh edge; survivors keep
  // their weight/label, the inserted edge gets the defaults.
  const GraphView v1 =
      GraphView(g).Apply(GraphDelta{}.Insert(1, 3).Delete(2, 3), 1);
  const Graph folded = v1.Materialize();
  ASSERT_TRUE(folded.has_weights());
  ASSERT_TRUE(folded.has_labels());
  const EdgeId e01 = folded.FindEdge(0, 1);
  const EdgeId e12 = folded.FindEdge(1, 2);
  const EdgeId e13 = folded.FindEdge(1, 3);
  ASSERT_NE(e01, kInvalidEdge);
  ASSERT_NE(e12, kInvalidEdge);
  ASSERT_NE(e13, kInvalidEdge);
  EXPECT_EQ(folded.FindEdge(2, 3), kInvalidEdge);
  EXPECT_DOUBLE_EQ(folded.EdgeWeight(e01), 2.5);
  EXPECT_EQ(folded.EdgeLabel(e01), 7u);
  EXPECT_DOUBLE_EQ(folded.EdgeWeight(e12), 0.5);
  EXPECT_EQ(folded.EdgeLabel(e12), 3u);
  EXPECT_DOUBLE_EQ(folded.EdgeWeight(e13), 1.0);  // inserted: defaults
  EXPECT_EQ(folded.EdgeLabel(e13), 0u);
}

TEST(EngineViewTest, OracleDroppedOnRebindToDifferentBase) {
  // An engine with an oracle must not consult it after rebinding to a
  // snapshot with a different base (e.g. a compacted live snapshot), even
  // at a version the oracle has an epoch for: a stale oracle would
  // silently reject newly connected pairs.
  const Graph g1 = Graph::FromEdges(4, {{0, 1}, {2, 3}});  // 0 /-> 3
  SnapshotManager mgr(g1);
  LiveDistanceOracle oracle(mgr.Current()->base());
  mgr.AttachOracle(&oracle);
  mgr.Apply(GraphDelta{});  // the oracle now has an epoch at version 1
  QueryEngine engine(g1, {.num_workers = 1});
  engine.SetLiveOracle(&oracle);

  // New base where 0 -> 3 is connected (as a compaction would produce).
  const Graph g2 =
      GraphView(g1).Apply(GraphDelta{}.Insert(1, 2), 1).Materialize();
  const GraphView compacted(std::make_shared<const Graph>(g2), nullptr, 1);
  ASSERT_TRUE(oracle.ForVersion(1).valid());
  ASSERT_FALSE(oracle.ForVersion(1).ValidFor(compacted));

  const std::vector<Query> queries{Query{0, 3, 3}};
  std::vector<CountingSink> sinks(1);
  std::vector<PathSink*> sink_ptrs{&sinks[0]};
  BatchOptions split;
  split.split_branches = true;
  const BatchResult r = engine.RunBatch(compacted, queries, sink_ptrs, split);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stats[0].counters.num_results, 1u);
}

TEST(GraphViewTest, OverlaysComposeAcrossEpochs) {
  const Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const GraphView v0(g);
  const GraphView v1 = v0.Apply(GraphDelta{}.Insert(0, 2), 1);
  const GraphView v2 = v1.Apply(GraphDelta{}.Insert(2, 4).Delete(0, 1), 2);

  // Each snapshot sees exactly its own epoch's state.
  EXPECT_FALSE(v0.HasEdge(0, 2));
  EXPECT_TRUE(v1.HasEdge(0, 2));
  EXPECT_TRUE(v1.HasEdge(0, 1));
  EXPECT_FALSE(v1.HasEdge(2, 4));
  EXPECT_TRUE(v2.HasEdge(0, 2));
  EXPECT_FALSE(v2.HasEdge(0, 1));
  EXPECT_TRUE(v2.HasEdge(2, 4));
  EXPECT_EQ(v2.num_edges(), 4u + 2u - 1u);
}

TEST(GraphViewTest, MaterializeFoldsOverlayExactly) {
  Rng rng(42);
  const Graph g = ErdosRenyi(40, 160, /*seed=*/7);
  GraphView view(g);
  GraphDelta delta;
  for (int i = 0; i < 30; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(40));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(40));
    if (i % 3 == 0) {
      delta.Delete(u, v);
    } else {
      delta.Insert(u, v);
    }
  }
  const GraphView v1 = view.Apply(delta, 1);
  const Graph folded = v1.Materialize();
  ASSERT_EQ(folded.num_vertices(), v1.num_vertices());
  ASSERT_EQ(folded.num_edges(), v1.num_edges());
  for (VertexId v = 0; v < folded.num_vertices(); ++v) {
    const auto a = folded.OutNeighbors(v);
    const auto b = v1.OutNeighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "out-adjacency mismatch at " << v;
    const auto ai = folded.InNeighbors(v);
    const auto bi = v1.InNeighbors(v);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
        << "in-adjacency mismatch at " << v;
  }
}

TEST(GraphViewTest, OutOfRangeEndpointThrows) {
  const Graph g = Graph::FromEdges(3, {{0, 1}});
  EXPECT_THROW(GraphView(g).Apply(GraphDelta{}.Insert(0, 3), 1),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Enumeration on views
// ---------------------------------------------------------------------------

TEST(LiveEnumerationTest, PaperExampleGainsAndLosesPaths) {
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  const GraphView v0(g);
  const PathSet base_paths = EnumerateOnView(v0, q);
  EXPECT_EQ(base_paths, Reference(g, q));

  // Inserting s -> v5 opens new paths through v5; deleting v0 -> t closes
  // every path using that edge.
  const GraphView v1 = v0.Apply(
      GraphDelta{}.Insert(testing::kS, testing::kV5).Delete(testing::kV0,
                                                            testing::kT),
      1);
  const PathSet updated_paths = EnumerateOnView(v1, q);
  EXPECT_EQ(updated_paths, Reference(v1.Materialize(), q));
  EXPECT_NE(updated_paths, base_paths);
}

TEST(LiveEnumerationTest, RandomizedViewMatchesMaterialized) {
  Rng rng(1234);
  for (int round = 0; round < 12; ++round) {
    const VertexId n = 24;
    const Graph g = ErdosRenyi(n, 72, /*seed=*/100 + round);
    GraphView view(g);
    // Several epochs of random churn, enumerating after each.
    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
      GraphDelta delta;
      for (int i = 0; i < 10; ++i) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (rng.NextBounded(2) == 0) {
          delta.Insert(u, v);
        } else {
          delta.Delete(u, v);
        }
      }
      view = view.Apply(delta, epoch);
      const Graph folded = view.Materialize();
      const Query q{0, n - 1, 5};
      ASSERT_EQ(EnumerateOnView(view, q), Reference(folded, q))
          << "round " << round << " epoch " << epoch;
    }
  }
}

// ---------------------------------------------------------------------------
// SnapshotManager
// ---------------------------------------------------------------------------

TEST(SnapshotManagerTest, VersionsAdvanceAndOldSnapshotsSurvive) {
  SnapshotManager mgr(PaperExampleGraph());
  const auto s0 = mgr.Current();
  EXPECT_EQ(s0->version(), 0u);

  const auto epoch = mgr.Apply(GraphDelta{}.Insert(testing::kV7, testing::kT));
  EXPECT_EQ(epoch.snapshot->version(), 1u);
  EXPECT_EQ(mgr.version(), 1u);
  EXPECT_TRUE(mgr.Current()->HasEdge(testing::kV7, testing::kT));
  // The retired snapshot still answers for its own version.
  EXPECT_FALSE(s0->HasEdge(testing::kV7, testing::kT));
  EXPECT_EQ(mgr.stats().updates, 1u);
}

TEST(SnapshotManagerTest, CompactionFoldsOverlayAtBudget) {
  SnapshotOptions opts;
  opts.compact_min_touched = 4;
  opts.compact_touched_fraction = 0.0;
  SnapshotManager mgr(PathGraph(64), opts);

  GraphDelta big;
  for (VertexId v = 0; v + 8 < 64; v += 8) big.Insert(v, v + 8);
  const auto epoch = mgr.Apply(big);
  EXPECT_TRUE(epoch.compacted);
  EXPECT_FALSE(epoch.snapshot->has_overlay());
  EXPECT_EQ(epoch.snapshot->version(), 1u);
  EXPECT_TRUE(epoch.snapshot->HasEdge(0, 8));
  EXPECT_EQ(mgr.stats().compactions, 1u);

  // A tiny follow-up epoch stays an overlay.
  const auto epoch2 = mgr.Apply(GraphDelta{}.Insert(1, 3));
  EXPECT_FALSE(epoch2.compacted);
  EXPECT_TRUE(epoch2.snapshot->has_overlay());
}

TEST(SnapshotManagerTest, PrepareDoesNotPublish) {
  SnapshotManager mgr(PaperExampleGraph());
  const auto epoch = mgr.Prepare(GraphDelta{}.Insert(testing::kV7, testing::kT));
  EXPECT_EQ(mgr.version(), 0u);  // still the old snapshot
  mgr.Publish(epoch);
  EXPECT_EQ(mgr.version(), 1u);
}

// ---------------------------------------------------------------------------
// UpdateImpact
// ---------------------------------------------------------------------------

TEST(UpdateImpactTest, FarAwayUpdateDoesNotAffectLocalQuery) {
  // Two disconnected path components: updates in one cannot affect
  // queries inside the other.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 9; ++v) edges.push_back({v, v + 1});
  for (VertexId v = 10; v < 19; ++v) edges.push_back({v, v + 1});
  const Graph g = Graph::FromEdges(20, edges);
  const GraphView before(g);
  const GraphDelta delta = GraphDelta{}.Insert(12, 14);
  const GraphView after = before.Apply(delta, 1);
  const UpdateImpact impact = UpdateImpact::Compute(before, after, delta, 8);

  EXPECT_FALSE(impact.AffectsQuery(0, 5, 5));
  EXPECT_TRUE(impact.AffectsQuery(10, 15, 5));
  // Beyond the certified radius everything reports affected (conservative).
  EXPECT_TRUE(impact.AffectsQuery(0, 5, 30));
}

TEST(UpdateImpactTest, InsertionCreatingFirstPathIsDetected) {
  // s -> a -> u   and   v -> b -> t are disconnected until (u, v) appears;
  // neither endpoint of the new edge lies in the old (empty) index X set,
  // so a naive X-intersection rule would miss this — the endpoint-ball rule
  // must not.
  const Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const GraphView before(g);
  const GraphDelta delta = GraphDelta{}.Insert(2, 3);
  const GraphView after = before.Apply(delta, 1);
  const UpdateImpact impact = UpdateImpact::Compute(before, after, delta, 8);
  EXPECT_TRUE(impact.AffectsQuery(0, 5, 5));
}

TEST(UpdateImpactTest, RandomizedSoundness) {
  // Whenever an epoch changes a query's result set, AffectsQuery must say
  // so. (The converse — precision — is not required.)
  Rng rng(777);
  int changed_and_flagged = 0;
  for (int round = 0; round < 20; ++round) {
    const VertexId n = 18;
    const Graph g = ErdosRenyi(n, 45, /*seed=*/500 + round);
    const GraphView before(g);
    GraphDelta delta;
    for (int i = 0; i < 4; ++i) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (rng.NextBounded(2) == 0) {
        delta.Insert(u, v);
      } else {
        delta.Delete(u, v);
      }
    }
    const GraphView after = before.Apply(delta, 1);
    const Graph after_g = after.Materialize();
    const UpdateImpact impact =
        UpdateImpact::Compute(before, after, delta, /*max_hops=*/6);
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        if (s == t) continue;
        const Query q{s, t, 4};
        const PathSet old_paths = Reference(g, q);
        const PathSet new_paths = Reference(after_g, q);
        if (old_paths != new_paths) {
          ASSERT_TRUE(impact.AffectsQuery(s, t, q.hops))
              << "round " << round << " unsound for q(" << s << ", " << t
              << ", " << q.hops << ")";
          ++changed_and_flagged;
        }
      }
    }
  }
  // The check must have exercised real changes to mean anything.
  EXPECT_GT(changed_and_flagged, 50);
}

// ---------------------------------------------------------------------------
// Snapshot-versioned cache
// ---------------------------------------------------------------------------

CacheKey KeyFor(const Query& q) {
  return CacheKey{q.source, q.target, q.hops, 0};
}

LightweightIndex BuildFor(const GraphView& view, const Query& q) {
  IndexBuilder builder;
  return builder.Build(view, q, {});
}

TEST(CacheEpochTest, BeginEpochEvictsSelectively) {
  const Graph g = PathGraph(40);
  const GraphView v0(g);
  IndexCache cache{IndexCacheOptions{}};
  const Query near{0, 4, 6};    // close to the update below
  const Query far{30, 36, 6};   // far from it
  cache.GetOrBuild(KeyFor(near), [&] { return BuildFor(v0, near); });
  cache.GetOrBuild(KeyFor(far), [&] { return BuildFor(v0, far); });

  const GraphDelta delta = GraphDelta{}.Insert(2, 4);
  const GraphView v1 = v0.Apply(delta, 1);
  const UpdateImpact impact = UpdateImpact::Compute(v0, v1, delta, 8);
  const size_t evicted =
      cache.BeginEpoch(1, [&](VertexId s, VertexId t, uint32_t k) {
        return impact.AffectsQuery(s, t, k);
      });
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(cache.version(), 1u);

  // The far entry survived and serves the new version; the near one is gone.
  EXPECT_NE(cache.PeekIndex(KeyFor(far), 1), nullptr);
  EXPECT_EQ(cache.PeekIndex(KeyFor(near), 1), nullptr);
  EXPECT_EQ(cache.Stats().invalidation_evictions, 1u);
}

TEST(CacheEpochTest, OldSnapshotNeverSeesNewerEntries) {
  const Graph g = PathGraph(10);
  const GraphView v0(g);
  IndexCache cache{IndexCacheOptions{}};
  cache.BeginEpoch(1, [](VertexId, VertexId, uint32_t) { return true; });

  // Published at version 1.
  const Query q{0, 5, 6};
  const GraphView v1 = v0.Apply(GraphDelta{}, 1);
  cache.GetOrBuild(KeyFor(q), [&] { return BuildFor(v1, q); }, nullptr, 1);
  EXPECT_NE(cache.PeekIndex(KeyFor(q), 1), nullptr);

  // A version-0 straggler must miss it (the entry may describe topology
  // the old snapshot does not have) and must not publish its own build.
  bool hit = true;
  const auto idx = cache.GetOrBuild(
      KeyFor(q), [&] { return BuildFor(v0, q); }, &hit, 0);
  EXPECT_FALSE(hit);
  ASSERT_NE(idx, nullptr);
  // The version-1 entry is still the published one.
  EXPECT_NE(cache.PeekIndex(KeyFor(q), 1), nullptr);
}

TEST(CacheEpochTest, StaleResultPublicationRejected) {
  IndexCache cache{IndexCacheOptions{}};
  auto result = std::make_shared<CachedResultSet>();
  result->offsets.push_back(0);
  cache.BeginEpoch(3, [](VertexId, VertexId, uint32_t) { return false; });
  // A run that enumerated version 2 finishes after the epoch: rejected.
  EXPECT_FALSE(cache.PutResult(CacheKey{0, 1, 2, 0}, result, 2));
  EXPECT_TRUE(cache.PutResult(CacheKey{0, 1, 2, 0}, result, 3));
  EXPECT_NE(cache.GetResult(CacheKey{0, 1, 2, 0}, 3), nullptr);
  // And an older-version reader does not see the version-3 result.
  EXPECT_EQ(cache.GetResult(CacheKey{0, 1, 2, 0}, 2), nullptr);
}

TEST(CacheEpochTest, ClearAfterEpochRealignsVersionSoPublicationResumes) {
  // Regression: a full Clear() (RebindGraph) after BeginEpoch(N) must reset
  // the cache's version, or every later version-0 publication is rejected
  // as stale and the cache silently never fills again.
  const Graph g = PathGraph(10);
  const GraphView v0(g);
  IndexCache cache{IndexCacheOptions{}};
  cache.BeginEpoch(5, [](VertexId, VertexId, uint32_t) { return true; });
  cache.Clear();  // back to a freshly bound graph at version 0
  const Query q{0, 5, 6};
  bool hit = true;
  cache.GetOrBuild(KeyFor(q), [&] { return BuildFor(v0, q); }, &hit, 0);
  EXPECT_FALSE(hit);
  cache.GetOrBuild(KeyFor(q), [&] { return BuildFor(v0, q); }, &hit, 0);
  EXPECT_TRUE(hit);  // the first build published despite the earlier epoch

  // The live-engine form: InvalidateCaches keeps the current view version.
  QueryEngine engine(v0, {.num_workers = 1, .enable_cache = true});
  engine.cache()->BeginEpoch(7,
                             [](VertexId, VertexId, uint32_t) { return true; });
  const GraphView v7 = v0.Apply(GraphDelta{}, 7);
  const std::vector<Query> queries{q};
  std::vector<CountingSink> sinks(1);
  std::vector<PathSink*> sink_ptrs{&sinks[0]};
  engine.RunBatch(v7, queries, sink_ptrs, {});
  engine.InvalidateCaches();  // Clear at view version 7, not 0
  const IndexCacheStats before = engine.cache()->Stats();
  std::vector<CountingSink> sinks2(1);
  std::vector<PathSink*> sink_ptrs2{&sinks2[0]};
  engine.RunBatch(v7, queries, sink_ptrs2, {});  // publishes at version 7
  std::vector<CountingSink> sinks3(1);
  std::vector<PathSink*> sink_ptrs3{&sinks3[0]};
  engine.RunBatch(v7, queries, sink_ptrs3, {});
  const IndexCacheStats delta = engine.cache()->Stats() - before;
  EXPECT_GE(delta.result_hits + delta.index_hits, 1u);
}

// ---------------------------------------------------------------------------
// Engine on views + invalidation racing RunBatch
// ---------------------------------------------------------------------------

TEST(EngineViewTest, RunBatchOnViewObservesExactlyThatSnapshot) {
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  QueryEngine engine(g, {.num_workers = 2, .enable_cache = true});

  const GraphView v0(g);
  const std::vector<Query> queries{q};
  const BatchResult r0 = engine.CountBatch(queries, {});
  const uint64_t base_count = r0.stats[0].counters.num_results;

  const GraphView v1 =
      v0.Apply(GraphDelta{}.Delete(testing::kV0, testing::kT), 1);
  engine.cache()->BeginEpoch(1,
                             [](VertexId, VertexId, uint32_t) { return true; });
  std::vector<CountingSink> sinks1(1);
  std::vector<PathSink*> sink_ptrs1{&sinks1[0]};
  const BatchResult r1 = engine.RunBatch(v1, queries, sink_ptrs1, {});
  EXPECT_EQ(r1.stats[0].counters.num_results,
            BruteForcePaths(v1.Materialize(), q).size());
  EXPECT_LT(r1.stats[0].counters.num_results, base_count);

  // Running the old snapshot again returns the old answer (its cache
  // entries are gone, but correctness never depended on them).
  std::vector<CountingSink> sinks0(1);
  std::vector<PathSink*> sink_ptrs0{&sinks0[0]};
  const BatchResult r2 = engine.RunBatch(v0, queries, sink_ptrs0, {});
  EXPECT_EQ(r2.stats[0].counters.num_results, base_count);
}

TEST(EngineViewTest, EpochUnawareViewAdvanceNeverReplaysStaleResults) {
  // A caller that advances the snapshot WITHOUT running BeginEpoch must
  // not be served stale cached results: the engine degrades to a versioned
  // full clear when the view's version is ahead of the cache's.
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  QueryEngine engine(g, {.num_workers = 1, .enable_cache = true});
  const std::vector<Query> queries{q};
  engine.CountBatch(queries, {});  // warms the result cache at version 0

  const GraphView v1 =
      GraphView(g).Apply(GraphDelta{}.Delete(testing::kV0, testing::kT), 1);
  std::vector<CountingSink> sinks(1);
  std::vector<PathSink*> sink_ptrs{&sinks[0]};
  // No BeginEpoch on purpose.
  const BatchResult r = engine.RunBatch(v1, queries, sink_ptrs, {});
  EXPECT_EQ(r.stats[0].counters.num_results,
            BruteForcePaths(v1.Materialize(), q).size());
  EXPECT_FALSE(r.stats[0].result_cache_hit);
}

TEST(EngineViewTest, InvalidationRacingRunBatchKeepsAnswersExact) {
  // One thread hammers batches on a fixed snapshot while another clears and
  // epoch-invalidates the shared cache: every batch must report exactly the
  // snapshot's answer — a stale snapshot finishes on its own version, never
  // a mix. (Run under TSan in CI.)
  const Graph g = ErdosRenyi(60, 300, /*seed=*/9);
  const GraphView v0(g);
  QueryEngine engine(v0, {.num_workers = 2, .enable_cache = true});
  const Query q{0, 59, 4};
  const uint64_t expected = BruteForcePaths(g, q).size();
  const std::vector<Query> queries{q, q, q, q};

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    uint64_t version = 0;
    while (!stop.load()) {
      engine.cache()->Clear();
      engine.cache()->BeginEpoch(
          ++version, [](VertexId, VertexId, uint32_t) { return true; });
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 50; ++round) {
    const BatchResult r = engine.CountBatch(queries, {});
    ASSERT_TRUE(r.ok());
    for (const QueryStats& s : r.stats) {
      ASSERT_EQ(s.counters.num_results, expected) << "round " << round;
    }
  }
  stop.store(true);
  invalidator.join();
}

// ---------------------------------------------------------------------------
// LiveDistanceOracle (DESIGN.md §13)
// ---------------------------------------------------------------------------

LiveOracleOptions SyncOracleOptions() {
  LiveOracleOptions opts;
  opts.background_relabel = false;  // deterministic: re-labels inline
  return opts;
}

TEST(LiveOracleTest, BaseEpochClaimsMatchExactDistances) {
  // Two disconnected path components: 0..4 and 5..9.
  const Graph g = Graph::FromEdges(
      10, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 8}, {8, 9}});
  LiveDistanceOracle oracle(g, SyncOracleOptions());
  const LiveDistanceOracle::EpochRef ref = oracle.Current();
  ASSERT_TRUE(ref.valid());
  EXPECT_EQ(ref.version(), 0u);
  EXPECT_TRUE(ref.ValidFor(GraphView(g)));

  EXPECT_TRUE(ref.Rejects(0, 9, 8));    // cross-component: unreachable
  EXPECT_TRUE(ref.Rejects(0, 4, 3));    // dist 4 > 3
  EXPECT_FALSE(ref.Rejects(0, 4, 4));   // satisfiable: never rejected
  EXPECT_EQ(ref.LowerBound(0, 4), 4u);
  EXPECT_EQ(ref.LowerBound(0, 9), kInfDistance);
  EXPECT_EQ(ref.UpperBound(0, 4), 4u);  // no deletions yet: exact

  // Out-of-range endpoints and empty refs claim nothing.
  EXPECT_FALSE(ref.Rejects(0, 100, 3));
  EXPECT_EQ(ref.LowerBound(0, 100), 0u);
  EXPECT_FALSE(LiveDistanceOracle::EpochRef().Rejects(0, 9, 1));
  EXPECT_EQ(LiveDistanceOracle::EpochRef().UpperBound(0, 9), kInfDistance);
}

TEST(LiveOracleTest, ChainedInsertsNeverWronglyReject) {
  // Three disconnected segments; the bridges arrive in two separate
  // epochs, so a sound rejection must chain corrections (a single-edge
  // 2-hop fixup would wrongly reject q(0, 5, 5)).
  const Graph g = Graph::FromEdges(6, {{0, 1}, {2, 3}, {4, 5}});
  SnapshotManager mgr(g);
  LiveDistanceOracle oracle(mgr.Current()->base(), SyncOracleOptions());
  mgr.AttachOracle(&oracle);
  mgr.Apply(GraphDelta{}.Insert(1, 2));
  mgr.Apply(GraphDelta{}.Insert(3, 4));

  const SnapshotManager::Published pub = mgr.CurrentPublished();
  ASSERT_TRUE(pub.oracle.valid());
  ASSERT_TRUE(pub.oracle.ValidFor(*pub.snapshot));
  EXPECT_EQ(pub.oracle.LowerBound(0, 5), 5u);  // 0-1 →ins 2-3 →ins 4-5
  EXPECT_FALSE(pub.oracle.Rejects(0, 5, 5));
  EXPECT_TRUE(pub.oracle.Rejects(0, 5, 4));    // still sound and sharp
  EXPECT_TRUE(pub.oracle.Rejects(5, 0, 8));    // reverse never connected
  EXPECT_EQ(oracle.stats().corrections, 2u);
}

TEST(LiveOracleTest, DeletionsDegradeUpperBoundsButNeverReject) {
  const Graph g = PathGraph(20);
  SnapshotManager mgr(g);
  LiveDistanceOracle oracle(mgr.Current()->base(), SyncOracleOptions());
  mgr.AttachOracle(&oracle);
  EXPECT_EQ(oracle.Current().UpperBound(0, 12), 12u);

  mgr.Apply(GraphDelta{}.Delete(10, 11));
  const SnapshotManager::Published pub = mgr.CurrentPublished();
  // True dist(0, 19) is now infinite, but the oracle must only claim what
  // its LB graph (which still has the edge) supports: no rejection, the
  // old distance as a lower bound, and NO upper-bound claim across the
  // deletion region.
  EXPECT_FALSE(pub.oracle.Rejects(0, 19, 19));
  EXPECT_EQ(pub.oracle.LowerBound(0, 19), 19u);
  EXPECT_EQ(pub.oracle.UpperBound(0, 12), kInfDistance);
  // Far from the deleted edge's impact ball the upper bound survives.
  EXPECT_EQ(pub.oracle.UpperBound(0, 3), 3u);
  EXPECT_EQ(oracle.stats().delete_regions, 1u);
}

TEST(LiveOracleTest, VersionGatingAnswersOnlyForMatchingSnapshots) {
  const Graph g = PathGraph(6);
  SnapshotManager mgr(g);
  LiveDistanceOracle oracle(mgr.Current()->base(), SyncOracleOptions());
  mgr.AttachOracle(&oracle);

  std::vector<std::shared_ptr<const GraphView>> snaps{mgr.Current()};
  for (int e = 1; e <= 4; ++e) {
    mgr.Apply(GraphDelta{}.Insert(0, static_cast<VertexId>(e + 1)));
    snaps.push_back(mgr.Current());
  }
  for (uint64_t v = 0; v <= 4; ++v) {
    const LiveDistanceOracle::EpochRef ref = oracle.ForVersion(v);
    ASSERT_TRUE(ref.valid()) << "version " << v;
    EXPECT_EQ(ref.version(), v);
    EXPECT_TRUE(ref.ValidFor(*snaps[v]));
    EXPECT_FALSE(ref.ValidFor(*snaps[(v + 1) % snaps.size()]));
  }
  EXPECT_FALSE(oracle.ForVersion(99).valid());
  // A same-version view over a DIFFERENT base graph is refused: version
  // numbers alone do not identify a topology.
  const Graph other = PathGraph(6);
  EXPECT_FALSE(oracle.ForVersion(0).ValidFor(GraphView(other)));
}

TEST(LiveOracleTest, SynchronousRelabelFoldsCorrectionsAtBudget) {
  LiveOracleOptions opts = SyncOracleOptions();
  opts.relabel_budget = 2;
  const Graph g = Graph::FromEdges(8, {{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  SnapshotManager mgr(g);
  LiveDistanceOracle oracle(mgr.Current()->base(), opts);
  mgr.AttachOracle(&oracle);
  mgr.Apply(GraphDelta{}.Insert(1, 2));
  mgr.Apply(GraphDelta{}.Insert(3, 4));
  mgr.Apply(GraphDelta{}.Insert(5, 6));  // |C| = 3 > budget: re-label runs
  EXPECT_EQ(oracle.stats().corrections, 3u);  // ...but folds at the NEXT epoch

  mgr.Apply(GraphDelta{});  // empty epoch folds the staged labels
  const LiveDistanceOracle::Stats st = oracle.stats();
  EXPECT_EQ(st.relabels, 1u);
  EXPECT_EQ(st.corrections, 0u);
  EXPECT_EQ(st.label_version, 3u);
  // Claims after the fold are exact labels again.
  const SnapshotManager::Published pub = mgr.CurrentPublished();
  EXPECT_EQ(pub.oracle.LowerBound(0, 7), 7u);
  EXPECT_FALSE(pub.oracle.Rejects(0, 7, 7));
  EXPECT_TRUE(pub.oracle.Rejects(0, 7, 6));
  EXPECT_TRUE(pub.oracle.Rejects(7, 0, 8));
}

TEST(LiveOracleTest, CorrectionOverflowDegradesToNoClaimUntilRelabel) {
  LiveOracleOptions opts = SyncOracleOptions();
  opts.relabel_budget = 1;
  opts.max_corrections = 2;  // effective cap: max(1, 2) = 2
  const Graph g = Graph::FromEdges(10, {{0, 1}});
  SnapshotManager mgr(g);
  LiveDistanceOracle oracle(mgr.Current()->base(), opts);
  mgr.AttachOracle(&oracle);

  // Three fresh inserts in one epoch: the third overflows the cap, so the
  // epoch can no longer prove any pair unreachable — every claim must
  // degrade to "no claim" (a dropped edge could connect anything).
  mgr.Apply(GraphDelta{}.Insert(2, 3).Insert(4, 5).Insert(6, 7));
  EXPECT_TRUE(oracle.stats().rejection_degraded);
  const SnapshotManager::Published degraded = mgr.CurrentPublished();
  EXPECT_FALSE(degraded.oracle.Rejects(8, 9, 8));  // truly disconnected
  EXPECT_EQ(degraded.oracle.LowerBound(8, 9), 0u);

  // The overflow triggered the (synchronous) re-label; the next epoch
  // folds it and sound rejection comes back.
  mgr.Apply(GraphDelta{});
  EXPECT_FALSE(oracle.stats().rejection_degraded);
  EXPECT_TRUE(mgr.CurrentPublished().oracle.Rejects(8, 9, 8));
}

TEST(LiveOracleTest, RandomizedChurnNeverWronglyRejects) {
  // The core soundness contract, checked differentially against brute
  // force over a 12-epoch churn stream (inserts + deletes, folds included):
  // every Rejects() == true must correspond to a truly empty result set,
  // every LowerBound must lower-bound the true BFS distance, and every
  // finite UpperBound must upper-bound it.
  Rng rng(4242);
  const VertexId n = 20;
  const Graph g = ErdosRenyi(n, 30, /*seed=*/11);
  SnapshotManager mgr(g);
  LiveOracleOptions opts = SyncOracleOptions();
  opts.relabel_budget = 8;  // exercise folds mid-stream
  LiveDistanceOracle oracle(mgr.Current()->base(), opts);
  mgr.AttachOracle(&oracle);

  uint64_t rejects = 0;
  for (uint64_t epoch = 1; epoch <= 12; ++epoch) {
    GraphDelta delta;
    for (int i = 0; i < 5; ++i) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (rng.NextBounded(3) == 0) {
        delta.Delete(u, v);
      } else {
        delta.Insert(u, v);
      }
    }
    mgr.Apply(delta);
    const SnapshotManager::Published pub = mgr.CurrentPublished();
    ASSERT_TRUE(pub.oracle.ValidFor(*pub.snapshot));
    const Graph folded = pub.snapshot->Materialize();
    for (VertexId s = 0; s < n; ++s) {
      DistanceField df;
      df.Compute(folded, Direction::kForward, s, {});
      for (VertexId t = 0; t < n; ++t) {
        if (s == t) continue;
        const uint32_t true_dist = df.Distance(t);
        ASSERT_LE(pub.oracle.LowerBound(s, t), true_dist)
            << "epoch " << epoch << " lb(" << s << ", " << t << ")";
        ASSERT_GE(pub.oracle.UpperBound(s, t), true_dist)
            << "epoch " << epoch << " ub(" << s << ", " << t << ")";
        for (const uint32_t k : {2u, 4u}) {
          if (pub.oracle.Rejects(s, t, k)) {
            ++rejects;
            ASSERT_TRUE(BruteForcePaths(folded, Query{s, t, k}).empty())
                << "epoch " << epoch << " wrongly rejected q(" << s << ", "
                << t << ", " << k << ")";
          }
        }
      }
    }
  }
  EXPECT_GT(rejects, 0u);  // the stream must have exercised real claims
  EXPECT_GT(oracle.stats().relabels, 0u);
}

// ---------------------------------------------------------------------------
// AsyncEngine
// ---------------------------------------------------------------------------

TEST(AsyncEngineTest, SubmitStreamsAndTicketsComplete) {
  AsyncEngineOptions opts;
  opts.num_workers = 2;
  AsyncEngine engine(PaperExampleGraph(), opts);
  const Query q = PaperExampleQuery();
  const uint64_t expected = BruteForcePaths(PaperExampleGraph(), q).size();

  std::vector<CountingSink> sinks(8);
  std::vector<QueryTicket> tickets;
  for (auto& sink : sinks) tickets.push_back(engine.Submit(q, sink));
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryStats& stats = tickets[i].Wait();
    EXPECT_TRUE(tickets[i].ok()) << tickets[i].error();
    EXPECT_EQ(stats.counters.num_results, expected);
    EXPECT_EQ(sinks[i].count(), expected);
    EXPECT_EQ(tickets[i].snapshot_version(), 0u);
  }
  engine.Drain();  // ticket completion precedes the executed_ bookkeeping
  EXPECT_EQ(engine.stats().executed, 8u);
}

TEST(AsyncEngineTest, InvalidQueryYieldsErroredTicket) {
  AsyncEngine engine(PaperExampleGraph(), {.num_workers = 1});
  CountingSink sink;
  QueryTicket ticket = engine.Submit(Query{0, 0, 3}, sink);  // s == t
  ticket.Wait();
  EXPECT_FALSE(ticket.ok());
  EXPECT_FALSE(ticket.error().empty());
}

TEST(AsyncEngineTest, SinkStopEndsStreamEarly) {
  AsyncEngine engine(PaperExampleGraph(), {.num_workers = 1});
  CollectingSink sink(/*max_paths=*/2);
  QueryTicket ticket = engine.Submit(PaperExampleQuery(), sink);
  ticket.Wait();
  EXPECT_TRUE(ticket.ok());
  EXPECT_EQ(sink.paths().size(), 2u);
  EXPECT_TRUE(ticket.Wait().counters.stopped_by_sink);
}

TEST(AsyncEngineTest, QueriesStraddlingUpdateObserveExactlyOneSnapshot) {
  const Graph base = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  AsyncEngineOptions opts;
  opts.num_workers = 2;
  AsyncEngine engine(base, opts);

  // Expected answer per version, computed on materialized snapshots.
  const uint64_t count_v0 = BruteForcePaths(base, q).size();
  const GraphDelta delta =
      GraphDelta{}.Insert(testing::kV7, testing::kT);  // opens new paths
  const uint64_t count_v1 =
      BruteForcePaths(GraphView(base).Apply(delta, 1).Materialize(), q).size();
  ASSERT_NE(count_v0, count_v1);

  std::vector<CountingSink> sinks(32);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 16; ++i) tickets.push_back(engine.Submit(q, sinks[i]));
  const uint64_t v1 = engine.SubmitUpdate(delta);
  EXPECT_EQ(v1, 1u);
  for (int i = 16; i < 32; ++i) tickets.push_back(engine.Submit(q, sinks[i]));

  for (QueryTicket& t : tickets) {
    const QueryStats& stats = t.Wait();
    ASSERT_TRUE(t.ok()) << t.error();
    const uint64_t expected =
        t.snapshot_version() == 0 ? count_v0 : count_v1;
    ASSERT_EQ(stats.counters.num_results, expected)
        << "ticket on version " << t.snapshot_version()
        << " returned a result set of another version";
  }
  // Everything submitted after the update observed the new version.
  for (size_t i = 16; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].snapshot_version(), 1u);
  }
}

TEST(AsyncEngineTest, UpdateStormRacingQueriesStaysConsistent) {
  // Concurrent submitters and an updater thread: every ticket's result must
  // match the brute-force answer for exactly its snapshot version. This is
  // the live-graph analogue of "RebindGraph racing RunBatch" — snapshots
  // make the race benign. (Run under TSan in CI.)
  const VertexId n = 30;
  const Graph base = ErdosRenyi(n, 110, /*seed=*/31);
  const Query q{0, n - 1, 4};
  AsyncEngineOptions opts;
  opts.num_workers = 3;
  AsyncEngine engine(base, opts);

  // Deterministic delta chain; expected counts per version precomputed.
  constexpr int kEpochs = 10;
  std::vector<GraphDelta> deltas;
  std::vector<uint64_t> expected;  // expected[v] = answer at version v
  {
    Rng rng(55);
    GraphView view(base);
    expected.push_back(BruteForcePaths(base, q).size());
    for (int e = 0; e < kEpochs; ++e) {
      GraphDelta d;
      for (int i = 0; i < 6; ++i) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (rng.NextBounded(2) == 0) {
          d.Insert(u, v);
        } else {
          d.Delete(u, v);
        }
      }
      deltas.push_back(d);
      view = view.Apply(d, e + 1);
      expected.push_back(BruteForcePaths(view.Materialize(), q).size());
    }
  }

  std::vector<CountingSink> sinks(200);
  std::vector<QueryTicket> tickets(sinks.size());
  std::atomic<size_t> next{0};
  std::thread submitter([&] {
    for (size_t i = 0; i < sinks.size() / 2; ++i) {
      const size_t slot = next.fetch_add(1);
      tickets[slot] = engine.Submit(q, sinks[slot]);
    }
  });
  for (const GraphDelta& d : deltas) {
    for (int i = 0; i < 10; ++i) {
      const size_t slot = next.fetch_add(1);
      tickets[slot] = engine.Submit(q, sinks[slot]);
    }
    engine.SubmitUpdate(d);
  }
  submitter.join();

  const size_t used = next.load();
  for (size_t i = 0; i < used; ++i) {
    const QueryStats& stats = tickets[i].Wait();
    ASSERT_TRUE(tickets[i].ok()) << tickets[i].error();
    const uint64_t version = tickets[i].snapshot_version();
    ASSERT_LT(version, expected.size());
    ASSERT_EQ(stats.counters.num_results, expected[version])
        << "ticket " << i << " on version " << version;
  }
  EXPECT_EQ(engine.stats().updates, static_cast<uint64_t>(kEpochs));
}

TEST(AsyncEngineTest, BoundedQueueRejectsTrySubmitWhenFull) {
  // A sink that blocks its worker until released, so the queue backs up
  // deterministically.
  class GateSink : public PathSink {
   public:
    bool OnPath(std::span<const VertexId>) override {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return open; });
      return true;
    }
    void Open() {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        open = true;
      }
      cv.notify_all();
    }
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
  };

  AsyncEngineOptions opts;
  opts.num_workers = 1;
  opts.max_queue = 2;
  AsyncEngine engine(PaperExampleGraph(), opts);

  GateSink gate;
  QueryTicket running = engine.Submit(PaperExampleQuery(), gate);
  // Wait until the worker actually claimed it (queue empties).
  while (engine.stats().queue_depth > 0) std::this_thread::yield();

  CountingSink s1, s2, s3;
  const QueryTicket q1 = engine.TrySubmit(PaperExampleQuery(), s1);
  const QueryTicket q2 = engine.TrySubmit(PaperExampleQuery(), s2);
  ASSERT_TRUE(q1.valid());
  ASSERT_TRUE(q2.valid());
  const QueryTicket q3 = engine.TrySubmit(PaperExampleQuery(), s3);
  EXPECT_FALSE(q3.valid());  // queue full
  EXPECT_EQ(engine.stats().queue_rejects, 1u);

  gate.Open();
  running.Wait();
  q1.Wait();
  q2.Wait();
  engine.Drain();
}

TEST(AsyncEngineTest, SplitSubmitMatchesSerialAnswer) {
  // A split ticket must deliver exactly the serial result set's count, with
  // sink calls serialized (a plain CollectingSink is safe), across worker
  // counts including the degenerate single-worker pool (leader-only).
  const VertexId n = 40;
  const Graph base = ErdosRenyi(n, 260, /*seed=*/9);
  const Query heavy{0, n - 1, 5};
  const PathSet expected = Reference(base, heavy);
  for (const uint32_t workers : {1u, 3u}) {
    AsyncEngineOptions opts;
    opts.num_workers = workers;
    AsyncEngine engine(base, opts);
    CollectingSink sink;
    QueryTicket ticket =
        engine.Submit(heavy, sink, SubmitOptions{.split_branches = true});
    const QueryStats& stats = ticket.Wait();
    ASSERT_TRUE(ticket.ok()) << ticket.error();
    EXPECT_EQ(ToSet(sink.paths()), expected) << workers << " workers";
    EXPECT_EQ(stats.counters.num_results, expected.size());
    EXPECT_EQ(stats.method, Method::kDfs);
  }
}

TEST(AsyncEngineTest, SplitTicketExactLimitNeverDeliversLimitPlusOne) {
  // The per-ticket stop latch at the merge barrier: delivered == limit,
  // never limit + 1, and the flags match the serial path's semantics.
  const VertexId n = 40;
  const Graph base = ErdosRenyi(n, 260, /*seed=*/9);
  const Query heavy{0, n - 1, 5};
  const uint64_t full = Reference(base, heavy).size();
  ASSERT_GT(full, 2u);
  AsyncEngineOptions opts;
  opts.num_workers = 3;
  AsyncEngine engine(base, opts);
  for (const uint64_t limit : {full, full - 1, uint64_t{1}}) {
    CountingSink sink;
    EnumOptions query_opts;
    query_opts.result_limit = limit;
    QueryTicket ticket = engine.Submit(
        heavy, sink,
        SubmitOptions{.query = query_opts, .split_branches = true});
    const QueryStats& stats = ticket.Wait();
    ASSERT_TRUE(ticket.ok()) << ticket.error();
    EXPECT_EQ(sink.count(), limit) << "limit=" << limit;
    EXPECT_EQ(stats.counters.num_results, limit);
    EXPECT_TRUE(stats.counters.hit_result_limit);
    EXPECT_FALSE(stats.counters.stopped_by_sink);
  }
  // And the sink-stop side of the latch: a quitting sink ends the whole
  // fan-out without further deliveries.
  CollectingSink quitter(/*max_paths=*/2);
  QueryTicket ticket =
      engine.Submit(heavy, quitter, SubmitOptions{.split_branches = true});
  const QueryStats& stats = ticket.Wait();
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(quitter.paths().size(), 2u);
  EXPECT_TRUE(stats.counters.stopped_by_sink);
}

TEST(AsyncEngineTest, HeavySplitQueryRacingUpdateStormStaysConsistent) {
  // One heavy split ticket races an update storm: every branch unit must
  // observe exactly one snapshot version — the ticket's — so the delivered
  // count must equal the serial answer of exactly that version. The
  // versions are built so that each one has a distinct answer; a fan-out
  // mixing two snapshots would produce a count belonging to no version.
  // (Runs under TSan in CI via the `parallel` ctest label.)
  const VertexId n = 26;
  const Graph base = ErdosRenyi(n, 120, /*seed=*/41);
  const Query heavy{0, n - 1, 5};

  constexpr int kEpochs = 8;
  std::vector<GraphDelta> deltas;
  std::vector<uint64_t> expected;  // expected[v] = serial answer at version v
  {
    GraphView view(base);
    expected.push_back(BruteForcePaths(base, heavy).size());
    Rng rng(77);
    for (int e = 0; e < kEpochs; ++e) {
      GraphDelta d;
      // Insert-only churn biased toward the query's neighborhood keeps the
      // per-version answers strictly increasing => pairwise distinct.
      for (int i = 0; i < 3; ++i) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        d.Insert(u, v);
      }
      d.Insert(static_cast<VertexId>(rng.NextBounded(n)), n - 1);
      deltas.push_back(d);
      view = view.Apply(d, e + 1);
      expected.push_back(BruteForcePaths(view.Materialize(), heavy).size());
    }
  }

  AsyncEngineOptions opts;
  opts.num_workers = 3;
  AsyncEngine engine(base, opts);

  std::vector<CountingSink> sinks(kEpochs + 1);
  std::vector<QueryTicket> tickets;
  tickets.push_back(engine.Submit(
      heavy, sinks[0], SubmitOptions{.split_branches = true}));
  for (int e = 0; e < kEpochs; ++e) {
    engine.SubmitUpdate(deltas[e]);
    tickets.push_back(engine.Submit(
        heavy, sinks[e + 1], SubmitOptions{.split_branches = true}));
  }

  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryStats& stats = tickets[i].Wait();
    ASSERT_TRUE(tickets[i].ok()) << tickets[i].error();
    const uint64_t version = tickets[i].snapshot_version();
    ASSERT_LT(version, expected.size());
    ASSERT_EQ(stats.counters.num_results, expected[version])
        << "split ticket " << i << " mixed snapshots (version " << version
        << ")";
    ASSERT_EQ(sinks[i].count(), expected[version]);
  }
  EXPECT_EQ(engine.stats().updates, static_cast<uint64_t>(kEpochs));
}

TEST(AsyncEngineTest, ThrowingSinkFailsSplitTicketWithoutKillingWorkers) {
  // A sink throwing mid-fan-out must fail just that ticket (like the plain
  // path does), leave no helper stranded at the merge barrier, and keep
  // every pool worker alive for later traffic.
  class ThrowingSink : public PathSink {
   public:
    bool OnPath(std::span<const VertexId>) override {
      ++calls;  // serialized by the ticket's gate
      throw std::runtime_error("sink exploded");
    }
    int calls = 0;
  };
  const VertexId n = 30;
  const Graph base = ErdosRenyi(n, 160, /*seed=*/3);
  const Query heavy{0, n - 1, 5};
  const uint64_t expected = BruteForcePaths(base, heavy).size();
  ASSERT_GT(expected, 0u);

  AsyncEngineOptions opts;
  opts.num_workers = 3;
  AsyncEngine engine(base, opts);
  for (int round = 0; round < 3; ++round) {
    ThrowingSink bad;
    QueryTicket broken =
        engine.Submit(heavy, bad, SubmitOptions{.split_branches = true});
    broken.Wait();
    EXPECT_FALSE(broken.ok());
    EXPECT_NE(broken.error().find("sink exploded"), std::string::npos);
    EXPECT_EQ(bad.calls, 1) << "no participant calls a sink that threw";
    // The engine must still serve split and plain tickets afterwards.
    CountingSink good_split, good_plain;
    QueryTicket t1 =
        engine.Submit(heavy, good_split, SubmitOptions{.split_branches = true});
    QueryTicket t2 = engine.Submit(heavy, good_plain);
    EXPECT_EQ(t1.Wait().counters.num_results, expected);
    EXPECT_EQ(t2.Wait().counters.num_results, expected);
  }
  engine.Drain();
}

TEST(AsyncEngineTest, SplitAndPlainTicketsInterleaveSafely) {
  // Split tickets recruiting idle workers must not wedge or corrupt the
  // plain traffic sharing the queue.
  const VertexId n = 30;
  const Graph base = ErdosRenyi(n, 140, /*seed=*/23);
  const Query heavy{0, n - 1, 5};
  const Query light{1, n - 2, 3};
  const uint64_t heavy_expected = BruteForcePaths(base, heavy).size();
  const uint64_t light_expected = BruteForcePaths(base, light).size();

  AsyncEngineOptions opts;
  opts.num_workers = 3;
  AsyncEngine engine(base, opts);
  std::vector<CountingSink> sinks(24);
  std::vector<QueryTicket> tickets;
  for (size_t i = 0; i < sinks.size(); ++i) {
    const bool split = i % 3 == 0;
    tickets.push_back(engine.Submit(
        split ? heavy : light, sinks[i],
        SubmitOptions{.split_branches = split}));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryStats& stats = tickets[i].Wait();
    ASSERT_TRUE(tickets[i].ok()) << tickets[i].error();
    EXPECT_EQ(stats.counters.num_results,
              i % 3 == 0 ? heavy_expected : light_expected)
        << "ticket " << i;
  }
  engine.Drain();
  EXPECT_EQ(engine.stats().executed, tickets.size());
}

TEST(AsyncEngineTest, UnaffectedKeysKeepCacheHitsAcrossUpdates) {
  // Hot query far from the churn: after warming, updates elsewhere must not
  // cost its cached index (the whole point of incremental invalidation).
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 19; ++v) edges.push_back({v, v + 1});
  for (VertexId v = 20; v < 39; ++v) edges.push_back({v, v + 1});
  Graph g = Graph::FromEdges(40, edges);

  AsyncEngineOptions opts;
  opts.num_workers = 1;
  AsyncEngine engine(std::move(g), opts);
  const Query hot{0, 6, 6};  // in the first component

  CountingSink warm1, warm2;
  engine.Submit(hot, warm1).Wait();
  engine.Submit(hot, warm2).Wait();  // now cached (admission default is 1)

  for (int e = 0; e < 5; ++e) {
    // Churn strictly inside the second component.
    engine.SubmitUpdate(GraphDelta{}
                            .Insert(25, static_cast<VertexId>(30 + e))
                            .Delete(24, 25));
    CountingSink sink;
    const QueryTicket t = engine.Submit(hot, sink);
    t.Wait();
    ASSERT_TRUE(t.ok());
  }
  const IndexCacheStats cache = engine.stats().cache;
  // Every post-warm-up query of the hot key replayed from cache.
  EXPECT_GE(cache.result_hits + cache.index_hits, 5u);
  EXPECT_EQ(cache.invalidation_evictions, 0u);
}

TEST(AsyncEngineTest, OracleCertifiedUnsatisfiableNeverQueues) {
  // Two disconnected path components.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 9; ++v) edges.push_back({v, v + 1});
  for (VertexId v = 10; v < 19; ++v) edges.push_back({v, v + 1});
  AsyncEngineOptions opts;
  opts.num_workers = 1;
  opts.enable_oracle = true;
  opts.oracle.background_relabel = false;
  AsyncEngine engine(Graph::FromEdges(20, edges), opts);
  ASSERT_NE(engine.oracle(), nullptr);

  CountingSink unsat_sink;
  QueryTicket unsat = engine.Submit(Query{0, 15, 6}, unsat_sink);
  const QueryStats& stats = unsat.Wait();
  EXPECT_TRUE(unsat.ok()) << unsat.error();
  EXPECT_EQ(unsat.state(), QueryState::kUnsatisfiable);
  EXPECT_TRUE(stats.counters.oracle_rejected);
  EXPECT_EQ(stats.counters.num_results, 0u);
  EXPECT_EQ(unsat_sink.count(), 0u);
  EXPECT_EQ(unsat.snapshot_version(), 0u);
  EXPECT_EQ(engine.stats().oracle_rejects, 1u);
  EXPECT_EQ(engine.stats().submitted, 1u);
  EXPECT_EQ(engine.stats().executed, 0u);  // never queued, never ran
#if PATHENUM_OBS
  // The observability contract holds for the shed: a finished span with
  // the terminal state, not a silent drop.
  EXPECT_EQ(unsat.span().state, QueryState::kUnsatisfiable);
#endif

  // Satisfiable queries pass the same gate untouched.
  CountingSink ok_sink;
  QueryTicket fine = engine.Submit(Query{0, 5, 6}, ok_sink);
  fine.Wait();
  EXPECT_EQ(fine.state(), QueryState::kOk);
  EXPECT_EQ(ok_sink.count(), 1u);

  // TrySubmit sheds through the same gate with a valid ticket.
  CountingSink try_sink;
  QueryTicket tried = engine.TrySubmit(Query{0, 15, 6}, try_sink);
  ASSERT_TRUE(tried.valid());
  tried.Wait();
  EXPECT_EQ(tried.state(), QueryState::kUnsatisfiable);
  EXPECT_EQ(engine.stats().oracle_rejects, 2u);

  // An update connecting the pair lifts the rejection in the same epoch:
  // the oracle rides SubmitUpdate, so the query must now run and find its
  // new path — the never-wrongly-reject contract across updates.
  engine.SubmitUpdate(GraphDelta{}.Insert(5, 15));
  CountingSink bridged;
  QueryTicket after = engine.Submit(Query{0, 15, 6}, bridged);
  after.Wait();
  EXPECT_EQ(after.state(), QueryState::kOk);
  EXPECT_EQ(bridged.count(), 1u);  // 0-1-2-3-4-5-15
  EXPECT_EQ(engine.stats().oracle_rejects, 2u);  // no new rejection
}

TEST(AsyncEngineTest, OracleUnderUpdateStormMatchesPerVersionTruth) {
  // The oracle-on engine under a concurrent update storm: every ticket —
  // shed or executed — must report exactly its snapshot version's true
  // count, and a kUnsatisfiable ticket's version must truly have zero
  // results. (Run under TSan in CI via the `parallel` ctest label.)
  const VertexId n = 24;
  const Graph base = ErdosRenyi(n, 40, /*seed=*/61);  // sparse: many unsat
  const Query qa{0, n - 2, 4};
  const Query qb{1, n - 1, 4};

  constexpr int kEpochs = 10;
  std::vector<GraphDelta> deltas;
  std::vector<uint64_t> expected_a, expected_b;
  {
    Rng rng(99);
    GraphView view(base);
    expected_a.push_back(BruteForcePaths(base, qa).size());
    expected_b.push_back(BruteForcePaths(base, qb).size());
    for (int e = 0; e < kEpochs; ++e) {
      GraphDelta d;
      for (int i = 0; i < 5; ++i) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (rng.NextBounded(3) == 0) {
          d.Delete(u, v);
        } else {
          d.Insert(u, v);
        }
      }
      deltas.push_back(d);
      view = view.Apply(d, e + 1);
      expected_a.push_back(BruteForcePaths(view.Materialize(), qa).size());
      expected_b.push_back(BruteForcePaths(view.Materialize(), qb).size());
    }
  }

  AsyncEngineOptions opts;
  opts.num_workers = 3;
  opts.enable_oracle = true;
  opts.oracle.background_relabel = false;
  opts.oracle.relabel_budget = 8;  // fold labels mid-storm
  AsyncEngine engine(base, opts);

  std::vector<CountingSink> sinks(160);
  std::vector<QueryTicket> tickets(sinks.size());
  std::atomic<size_t> next{0};
  std::thread submitter([&] {
    for (size_t i = 0; i < sinks.size() / 2; ++i) {
      const size_t slot = next.fetch_add(1);
      tickets[slot] = engine.Submit(slot % 2 == 0 ? qa : qb, sinks[slot]);
    }
  });
  for (const GraphDelta& d : deltas) {
    for (int i = 0; i < 8; ++i) {
      const size_t slot = next.fetch_add(1);
      tickets[slot] = engine.Submit(slot % 2 == 0 ? qa : qb, sinks[slot]);
    }
    engine.SubmitUpdate(d);
  }
  submitter.join();

  const size_t used = next.load();
  for (size_t i = 0; i < used; ++i) {
    const QueryStats& stats = tickets[i].Wait();
    ASSERT_TRUE(tickets[i].ok()) << tickets[i].error();
    const uint64_t version = tickets[i].snapshot_version();
    const std::vector<uint64_t>& expected =
        i % 2 == 0 ? expected_a : expected_b;
    ASSERT_LT(version, expected.size());
    ASSERT_EQ(stats.counters.num_results, expected[version])
        << "ticket " << i << " on version " << version;
    if (tickets[i].state() == QueryState::kUnsatisfiable) {
      ASSERT_EQ(expected[version], 0u)
          << "ticket " << i << " wrongly rejected at version " << version;
    }
  }
  EXPECT_GT(engine.stats().oracle_rejects, 0u);  // the gate actually fired
}

}  // namespace
}  // namespace pathenum
