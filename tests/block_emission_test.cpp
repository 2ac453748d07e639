// Differential tests for the block-emission hot path (DESIGN.md §9):
// block delivery must be observably identical to per-path delivery —
// identical path sets, identical truncation flags, `delivered == limit`
// exactly at fan-out merge barriers, throwing-sink recovery — plus the
// delta-encoding/PathBlock unit contracts and the fused-slab memory
// accounting of the arena index layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/dfs_enumerator.h"
#include "core/index.h"
#include "core/join_enumerator.h"
#include "core/reference.h"
#include "engine/query_engine.h"
#include "graph/builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace pathenum {
namespace {

using testing::PaperExampleGraph;
using testing::PaperExampleQuery;
using testing::PathSet;
using testing::ToSet;

/// Collects through OnPath only — PathSink's default OnBlock decodes back
/// to per-path calls, so this observes exactly the pre-block protocol.
class PerPathCollector : public PathSink {
 public:
  explicit PerPathCollector(
      size_t max_paths = std::numeric_limits<size_t>::max())
      : inner_(max_paths) {}
  bool OnPath(std::span<const VertexId> path) override {
    return inner_.OnPath(path);
  }
  const CollectingSink& inner() const { return inner_; }

 private:
  CollectingSink inner_;
};

Graph RandomGraph(VertexId n, uint32_t out_degree, uint64_t seed) {
  GraphBuilder b(n);
  Rng rng(seed);
  for (VertexId u = 0; u < n; ++u) {
    for (uint32_t d = 0; d < out_degree; ++d) {
      b.AddEdge(u, static_cast<VertexId>(rng.NextBounded(n)));
    }
  }
  return b.Build();
}

// --- Block emission ≡ per-path emission (complete runs) --------------------

TEST(BlockEmissionTest, DfsBlockAndPerPathProduceIdenticalResults) {
  for (const uint64_t seed : {1u, 7u, 42u}) {
    const Graph g = RandomGraph(40, 4, seed);
    const Query q{0, 39, 5};
    IndexBuilder builder;
    const LightweightIndex idx = builder.Build(g, q);
    DfsEnumerator dfs;

    CollectingSink block_sink;
    const EnumCounters block_c = dfs.Run(idx, block_sink, {});
    PerPathCollector per_path;
    const EnumCounters path_c = dfs.Run(idx, per_path, {});

    EXPECT_EQ(ToSet(block_sink.paths()), ToSet(per_path.inner().paths()));
    EXPECT_EQ(ToSet(block_sink.paths()), ToSet(BruteForcePaths(g, q)));
    // On complete (non-stopped) runs every counter matches exactly.
    EXPECT_EQ(block_c.num_results, path_c.num_results);
    EXPECT_EQ(block_c.partials, path_c.partials);
    EXPECT_EQ(block_c.edges_accessed, path_c.edges_accessed);
    EXPECT_EQ(block_c.invalid_partials, path_c.invalid_partials);
    EXPECT_EQ(block_c.completed(), path_c.completed());
  }
}

TEST(BlockEmissionTest, JoinBlockAndPerPathProduceIdenticalResults) {
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  JoinEnumerator join;
  for (uint32_t cut = 1; cut < q.hops; ++cut) {
    CollectingSink block_sink;
    const EnumCounters block_c = join.Run(idx, cut, block_sink, {});
    PerPathCollector per_path;
    const EnumCounters path_c = join.Run(idx, cut, per_path, {});
    EXPECT_EQ(ToSet(block_sink.paths()), ToSet(per_path.inner().paths()));
    EXPECT_EQ(ToSet(block_sink.paths()), ToSet(BruteForcePaths(g, q)));
    EXPECT_EQ(block_c.num_results, path_c.num_results);
    EXPECT_EQ(block_c.partials, path_c.partials);
  }
}

TEST(BlockEmissionTest, ManyPathsSpanManyBlocks) {
  // 3 layers x 8 wide = 512 paths: several PathBlock flushes per run.
  GraphBuilder b(2 + 3 * 8);
  for (uint32_t i = 0; i < 8; ++i) b.AddEdge(0, 1 + i);
  for (uint32_t l = 0; l < 2; ++l) {
    for (uint32_t i = 0; i < 8; ++i) {
      for (uint32_t j = 0; j < 8; ++j) {
        b.AddEdge(1 + l * 8 + i, 1 + (l + 1) * 8 + j);
      }
    }
  }
  for (uint32_t i = 0; i < 8; ++i) b.AddEdge(1 + 2 * 8 + i, 25);
  const Graph g = b.Build();
  const Query q{0, 25, 4};
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  DfsEnumerator dfs;
  CollectingSink block_sink;
  dfs.Run(idx, block_sink, {});
  PerPathCollector per_path;
  dfs.Run(idx, per_path, {});
  EXPECT_EQ(block_sink.paths().size(), 512u);
  EXPECT_EQ(ToSet(block_sink.paths()), ToSet(per_path.inner().paths()));
}

// --- Truncation flags ------------------------------------------------------

TEST(BlockEmissionTest, ResultLimitFlagsMatchPerPath) {
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  const uint64_t total = CountPathsBruteForce(g, q);
  ASSERT_GT(total, 2u);
  DfsEnumerator dfs;
  for (const uint64_t limit : {uint64_t{1}, total - 1, total, total + 1}) {
    EnumOptions opts;
    opts.result_limit = limit;
    CollectingSink block_sink;
    const EnumCounters block_c = dfs.Run(idx, block_sink, opts);
    PerPathCollector per_path;
    const EnumCounters path_c = dfs.Run(idx, per_path, opts);
    EXPECT_EQ(block_c.num_results, path_c.num_results) << "limit " << limit;
    EXPECT_EQ(block_c.num_results, std::min(limit, total));
    EXPECT_EQ(block_c.hit_result_limit, path_c.hit_result_limit);
    EXPECT_EQ(block_c.stopped_by_sink, path_c.stopped_by_sink);
    EXPECT_EQ(ToSet(block_sink.paths()).size(), std::min(limit, total));
  }
}

TEST(BlockEmissionTest, SinkStopFlagsMatchPerPath) {
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  const uint64_t total = CountPathsBruteForce(g, q);
  DfsEnumerator dfs;
  for (uint64_t cap = 1; cap <= total; ++cap) {
    CollectingSink block_sink(cap);
    const EnumCounters block_c = dfs.Run(idx, block_sink, {});
    PerPathCollector per_path(cap);
    const EnumCounters path_c = dfs.Run(idx, per_path, {});
    // A sink refusal (capacity) must surface as stopped_by_sink in both
    // protocols, with the same delivered count; at cap == total the run
    // completes in both.
    EXPECT_EQ(block_c.stopped_by_sink, path_c.stopped_by_sink)
        << "cap " << cap;
    EXPECT_EQ(block_c.num_results, path_c.num_results) << "cap " << cap;
    EXPECT_EQ(block_sink.paths().size(), per_path.inner().paths().size());
    EXPECT_EQ(block_sink.truncated(), per_path.inner().truncated());
  }
}

// --- delivered == limit at merge barriers ----------------------------------

TEST(BlockEmissionTest, SplitEngineDeliversExactlyTheLimit) {
  const Graph g = RandomGraph(60, 5, 11);
  QueryEngine engine(g, {.num_workers = 4});
  const Query q{0, 59, 5};
  CountingSink probe;
  BatchOptions probe_opts;
  probe_opts.split_branches = true;
  PathSink* probe_sink = &probe;
  engine.RunBatch({&q, 1}, {&probe_sink, 1}, probe_opts);
  const uint64_t total = probe.count();
  ASSERT_GT(total, 8u) << "need enough paths to make the limit binding";

  for (const uint64_t limit : {total / 2, total - 1, total}) {
    CountingSink sink;
    PathSink* sink_ptr = &sink;
    BatchOptions opts;
    opts.split_branches = true;
    opts.query.result_limit = limit;
    const BatchResult r = engine.RunBatch({&q, 1}, {&sink_ptr, 1}, opts);
    ASSERT_TRUE(r.ok());
    // The gate pins delivery to the limit exactly — never limit + 1, even
    // when a branch block crosses the limit right at the merge barrier.
    EXPECT_EQ(sink.count(), limit);
    EXPECT_EQ(r.stats[0].counters.num_results, limit);
    EXPECT_TRUE(r.stats[0].counters.hit_result_limit);
    EXPECT_FALSE(r.stats[0].counters.stopped_by_sink);
  }
}

TEST(BlockEmissionTest, SplitDfsBlockDeliveryMatchesSequential) {
  // Branch units deliver blocks through the serialized BranchSink; the
  // merged counters must equal the sequential run's, the root partial and
  // its branch scan charged exactly once.
  const Graph g = RandomGraph(50, 5, 23);
  const Query q{0, 49, 5};
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  DfsEnumerator seq;
  CollectingSink seq_sink;
  const EnumCounters seq_c = seq.Run(idx, seq_sink, {});

  QueryEngine engine(g, {.num_workers = 4});
  CollectingSink split_sink;
  PathSink* sinks[] = {&split_sink};
  BatchOptions opts;
  opts.split_branches = true;
  opts.query.method = Method::kDfs;
  const BatchResult r = engine.RunBatch({&q, 1}, sinks, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToSet(split_sink.paths()), ToSet(seq_sink.paths()));
  EXPECT_EQ(split_sink.paths().size(), seq_sink.paths().size());
  EXPECT_EQ(r.stats[0].counters.num_results, seq_c.num_results);
  EXPECT_EQ(r.stats[0].counters.partials, seq_c.partials);
  EXPECT_EQ(r.stats[0].counters.edges_accessed, seq_c.edges_accessed);
}

// --- Throwing-sink recovery ------------------------------------------------

class ThrowingSink : public PathSink {
 public:
  explicit ThrowingSink(uint64_t after, bool throw_in_block)
      : after_(after), throw_in_block_(throw_in_block) {}
  bool OnPath(std::span<const VertexId>) override {
    if (++seen_ > after_) throw std::runtime_error("sink exploded");
    return true;
  }
  BlockResult OnBlock(const PathBlockView& block) override {
    if (throw_in_block_) {
      seen_ += block.count;
      if (seen_ > after_) throw std::runtime_error("sink exploded in block");
      return {block.count, false};
    }
    return PathSink::OnBlock(block);  // decodes; OnPath throws mid-block
  }

 private:
  uint64_t after_;
  bool throw_in_block_;
  uint64_t seen_ = 0;
};

TEST(BlockEmissionTest, ThrowingSinkLeavesEnumeratorReusable) {
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  const uint64_t total = CountPathsBruteForce(g, q);
  DfsEnumerator dfs;
  JoinEnumerator join;
  for (const bool in_block : {false, true}) {
    ThrowingSink bomb(1, in_block);
    EXPECT_THROW(dfs.Run(idx, bomb, {}), std::runtime_error);
    CountingSink ok;
    const EnumCounters c = dfs.Run(idx, ok, {});
    EXPECT_EQ(ok.count(), total) << "per-run state must fully re-arm";
    EXPECT_TRUE(c.completed());

    ThrowingSink join_bomb(1, in_block);
    EXPECT_THROW(join.Run(idx, 2, join_bomb, {}), std::runtime_error);
    CountingSink join_ok;
    join.Run(idx, 2, join_ok, {});
    EXPECT_EQ(join_ok.count(), total);
  }
}

// --- RunBranch counter contract --------------------------------------------

TEST(BlockEmissionTest, RunBranchCountsBothStartingPartials) {
  // s -> a -> t: the branch subtree holds the chain (s), (s,a) plus the
  // extension (s,a,t).
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = b.Build();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, {0, 2, 2});
  const uint32_t a_slot = idx.OutSlotsWithin(idx.source_slot(), 1)[0];
  DfsEnumerator dfs;
  CountingSink sink;
  const EnumCounters c = dfs.RunBranch(idx, a_slot, sink, {});
  EXPECT_EQ(c.num_results, 1u);
  EXPECT_EQ(c.partials, 3u) << "(s), (s,a), (s,a,t)";
}

// --- PathBlock / BranchSink unit contracts ---------------------------------

TEST(PathBlockTest, DeltaEncodingRoundTrips) {
  PathBlock block;
  const std::vector<std::vector<uint32_t>> paths = {
      {0, 1, 2, 9}, {0, 1, 3, 9}, {0, 1, 3, 5, 9}, {0, 9}, {0, 9}};
  for (const auto& p : paths) block.Append({p.data(), p.size()});
  EXPECT_EQ(block.size(), paths.size());
  uint64_t total_verts = 0;
  for (const auto& p : paths) total_verts += p.size();
  EXPECT_EQ(block.total_path_vertices(), total_verts);

  std::vector<std::vector<VertexId>> decoded;
  const auto r =
      ForEachPathInBlock(PathBlockView(block), [&](std::span<const VertexId> p) {
        decoded.emplace_back(p.begin(), p.end());
        return true;
      });
  EXPECT_EQ(r.consumed, paths.size());
  EXPECT_FALSE(r.stop);
  ASSERT_EQ(decoded.size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(std::vector<uint32_t>(decoded[i].begin(), decoded[i].end()),
              paths[i]);
  }
}

TEST(PathBlockTest, TranslationAppliesToSuffixesOnly) {
  // Translate slots to 100 + slot; shared prefixes must decode translated
  // too (they were translated when first stored).
  std::vector<VertexId> map(16);
  for (VertexId i = 0; i < 16; ++i) map[i] = 100 + i;
  PathBlock block;
  block.AppendDelta(0, std::vector<uint32_t>{0, 1, 2}.data(), 3, map.data());
  const uint32_t suffix[] = {3};
  block.AppendDelta(2, suffix, 1, map.data());
  std::vector<std::vector<VertexId>> decoded;
  ForEachPathInBlock(PathBlockView(block), [&](std::span<const VertexId> p) {
    decoded.emplace_back(p.begin(), p.end());
    return true;
  });
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], (std::vector<VertexId>{100, 101, 102}));
  EXPECT_EQ(decoded[1], (std::vector<VertexId>{100, 101, 103}));
}

TEST(PathBlockTest, PrefixViewTruncates) {
  PathBlock block;
  for (uint32_t i = 0; i < 10; ++i) {
    const uint32_t path[] = {0, i + 1, 99};
    block.Append({path, 3});
  }
  const PathBlockView half = PathBlockView(block).Prefix(4);
  EXPECT_EQ(half.count, 4u);
  EXPECT_EQ(half.total_path_vertices, 12u);
  uint32_t seen = 0;
  ForEachPathInBlock(half, [&](std::span<const VertexId> p) {
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(p[1], ++seen);
    return true;
  });
  EXPECT_EQ(seen, 4u);
}

TEST(BranchSinkBlockTest, BlockReservationPinsDeliveredToLimit) {
  Timer timer;
  BranchGate gate(/*result_limit=*/5, /*response_target=*/3, timer);
  CountingSink inner;
  BranchSink sink(gate, inner);
  PathBlock block;
  for (uint32_t i = 0; i < 8; ++i) {
    const uint32_t path[] = {0, i + 1, 9};
    block.Append({path, 3});
  }
  const auto r = sink.OnBlock(PathBlockView(block));
  EXPECT_EQ(r.consumed, 5u) << "the granted share of an 8-path block";
  EXPECT_TRUE(r.stop) << "limit reached";
  EXPECT_EQ(gate.delivered(), 5u);
  EXPECT_EQ(inner.count(), 5u);
  EXPECT_GE(gate.response_ms(), 0.0) << "target 3 crossed by the block";
  const auto r2 = sink.OnBlock(PathBlockView(block));
  EXPECT_EQ(r2.consumed, 0u);
  EXPECT_TRUE(r2.stop);
  EXPECT_EQ(gate.delivered(), 5u) << "never limit + 1";
}

TEST(BranchSinkBlockTest, SerializedLatchStopsBlockDelivery) {
  Timer timer;
  BranchGate gate(100, 0, timer);
  CollectingSink inner(3);
  BranchSink sink(gate, inner);
  PathBlock block;
  for (uint32_t i = 0; i < 8; ++i) {
    const uint32_t path[] = {0, i + 1, 9};
    block.Append({path, 3});
  }
  const auto r = sink.OnBlock(PathBlockView(block));
  EXPECT_EQ(r.consumed, 3u);
  EXPECT_TRUE(r.stop);
  EXPECT_TRUE(gate.stopped());
  EXPECT_EQ(sink.OnBlock(PathBlockView(block)).consumed, 0u)
      << "the latch keeps the inner sink from ever being touched again";
  EXPECT_EQ(inner.paths().size(), 3u);
}

// --- Fused-slab memory accounting ------------------------------------------

TEST(FusedIndexTest, MemoryBytesIsExactlyObjectPlusSlab) {
  const Graph g = PaperExampleGraph();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, PaperExampleQuery());
  EXPECT_GT(idx.slab_bytes(), 0u);
  EXPECT_EQ(idx.MemoryBytes(), sizeof(LightweightIndex) + idx.slab_bytes());
  // Rebuilding the same query must cost exactly the same slab.
  const LightweightIndex again = builder.Build(g, PaperExampleQuery());
  EXPECT_EQ(idx.MemoryBytes(), again.MemoryBytes());
  EXPECT_TRUE(idx.out_ends_narrow()) << "tiny degrees fit u16 counts";
}

TEST(FusedIndexTest, SlabAccountsForEveryArray) {
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  const uint32_t n = idx.num_vertices();
  const uint32_t k = q.hops;
  // Every part of a default build (edge ids and level stats included), with
  // the adjacency's entries counting t's padding entry.
  const size_t entries = idx.num_edges() + 1;
  const size_t exact =
      (n + 1) * sizeof(uint64_t)                   // out_begin
      + entries * sizeof(EdgeId)                   // out_edge_ids
      + k * (sizeof(double) + sizeof(uint64_t))    // level_it_sum, count
      + n * sizeof(VertexId)                       // x_vertices
      + ((k + 1) * (k + 1) + 1) * sizeof(uint32_t) // cell_offsets
      + entries * sizeof(uint32_t)                 // out_slots
      + static_cast<size_t>(n) * (k + 1) * sizeof(uint16_t)  // out_ends16
      + 2 * n;                                     // slot_ds + slot_dt
  EXPECT_EQ(idx.slab_bytes(), exact);
  // A build without level stats must be strictly smaller.
  IndexBuildOptions lean;
  lean.collect_level_stats = false;
  const LightweightIndex small = builder.Build(g, q, lean);
  EXPECT_LT(small.slab_bytes(), idx.slab_bytes());
  EXPECT_FALSE(small.has_level_stats());
}

TEST(FusedIndexTest, WideDegreeFallsBackToU32Ends) {
  // One hub with > 65535 out-neighbors that all reach t: the cumulative
  // counts overflow u16, forcing the u32 ends table.
  constexpr uint32_t kFan = 70000;
  GraphBuilder b(kFan + 2);
  for (uint32_t i = 0; i < kFan; ++i) {
    b.AddEdge(0, 1 + i);
    b.AddEdge(1 + i, kFan + 1);
  }
  const Graph g = b.Build();
  const Query q{0, kFan + 1, 2};
  IndexBuilder builder;
  const LightweightIndex idx = builder.Build(g, q);
  EXPECT_FALSE(idx.out_ends_narrow());
  EXPECT_EQ(idx.OutSlotsWithin(idx.source_slot(), 1).size(), kFan);
  DfsEnumerator dfs;
  CountingSink sink;
  const EnumCounters c = dfs.Run(idx, sink, {});
  EXPECT_EQ(sink.count(), kFan) << "u32-ends hot path enumerates correctly";
  EXPECT_TRUE(c.completed());
}

}  // namespace
}  // namespace pathenum
