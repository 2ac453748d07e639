// Enumeration hot-path microbench (extension; no paper counterpart):
// paths/sec of IDX-DFS and IDX-JOIN on a canned index at limit >= 10^6,
// isolating the per-path emission cost from index construction. Each
// method runs twice: through the block protocol (DESIGN.md §9 — delta-
// encoded PathBlocks, one virtual dispatch per ~256 paths, each vertex
// translated once) and through a per-path-only sink that forces the
// pre-block emission protocol (one virtual call and one full-path
// materialization per path). The block/per-path ratio is the portable
// 1-core signal the perf trajectory tracks.
//
// The canned instance is a layered DAG: s -> W x L inner grid -> t with
// complete bipartite stages, so the index walk is trivially in cache and
// emission dominates — exactly the regime of the paper's 10^5..10^7-result
// real-time queries.
//
// Environment:
//   PATHENUM_HOTPATH_WIDTH   vertices per inner layer      (default 32)
//   PATHENUM_HOTPATH_LAYERS  inner layers                  (default 4; paths
//                            = WIDTH^LAYERS = 1,048,576 at the defaults)
//   PATHENUM_HOTPATH_LIMIT   result limit                  (default WIDTH^LAYERS)
//   PATHENUM_HOTPATH_REPS    measured repetitions          (default 3)
//   PATHENUM_BENCH_JSON      output path ("" disables;
//                            default "BENCH_hotpath.json")
//                            The record opens with the host (CPU model,
//                            hardware threads) and the repetition count.
//
// Exit status is 1 when the configurations disagree on the paths (count
// or checksum) or an enumerator's scratch grew across the measured runs
// (`scratch_stable`).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "core/dfs_enumerator.h"
#include "core/join_enumerator.h"
#include "graph/builder.h"
#include "util/timer.h"

namespace {

using namespace pathenum;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<uint64_t>(std::atoll(v)) : fallback;
}

/// Counts through OnPath only: PathSink's default OnBlock decodes every
/// block back into per-path deliveries, so this measures the pre-block
/// emission protocol (one virtual call + one materialized path per result)
/// on the same search loop.
class PerPathCountingSink : public PathSink {
 public:
  bool OnPath(std::span<const VertexId> path) override {
    ++count_;
    total_length_ += path.size() - 1;
    return true;
  }
  uint64_t count() const { return count_; }
  uint64_t total_length() const { return total_length_; }

 private:
  uint64_t count_ = 0;
  uint64_t total_length_ = 0;
};

/// The pre-block-emission enumerator, verbatim in structure: recursive
/// Search frames, a full slot->vertex translation of the whole path per
/// result, and one virtual OnPath call per result. This is the fixed
/// baseline the acceptance speedup is measured against (kept here so the
/// comparison survives in-tree as the hot path keeps evolving).
class LegacyRecursiveDfs {
 public:
  EnumCounters Run(const LightweightIndex& index, PathSink& sink,
                   const EnumOptions& opts) {
    index_ = &index;
    sink_ = &sink;
    counters_ = EnumCounters{};
    result_limit_ = opts.result_limit;
    response_target_ = opts.response_target;
    stop_ = false;
    if (on_path_.size() < index.num_vertices()) {
      on_path_.resize(index.num_vertices(), 0);
    }
    if (++epoch_ == 0) {
      std::fill(on_path_.begin(), on_path_.end(), 0);
      epoch_ = 1;
    }
    timer_.Reset();
    const uint32_t s_slot = index.source_slot();
    if (s_slot == kInvalidSlot) return counters_;
    stack_[0] = s_slot;
    on_path_[s_slot] = epoch_;
    counters_.partials = 1;
    Search(s_slot, 0);
    return counters_;
  }

 private:
  void Emit(uint32_t depth) {
    for (uint32_t i = 0; i <= depth; ++i) {
      path_buf_[i] = index_->VertexAt(stack_[i]);
    }
    counters_.num_results++;
    if (counters_.num_results == response_target_) {
      counters_.response_ms = timer_.ElapsedMs();
    }
    if (!sink_->OnPath({path_buf_, depth + 1})) {
      counters_.stopped_by_sink = true;
      stop_ = true;
    } else if (counters_.num_results >= result_limit_) {
      counters_.hit_result_limit = true;
      stop_ = true;
    }
  }

  uint64_t Search(uint32_t slot, uint32_t depth) {
    if (slot == index_->target_slot()) {
      Emit(depth);
      return 1;
    }
    const uint32_t k = index_->hops();
    uint64_t found = 0;
    const auto nbrs = index_->OutSlotsWithin(slot, k - depth - 1);
    counters_.edges_accessed += nbrs.size();
    for (const uint32_t next : nbrs) {
      if (stop_) break;
      if (on_path_[next] == epoch_) continue;
      stack_[depth + 1] = next;
      on_path_[next] = epoch_;
      counters_.partials++;
      const uint64_t sub = Search(next, depth + 1);
      on_path_[next] = 0;
      if (sub == 0) counters_.invalid_partials++;
      found += sub;
    }
    return found;
  }

  const LightweightIndex* index_ = nullptr;
  PathSink* sink_ = nullptr;
  std::vector<uint32_t> on_path_;
  uint32_t epoch_ = 0;
  EnumCounters counters_;
  Timer timer_;
  uint64_t result_limit_ = 0;
  uint64_t response_target_ = 0;
  bool stop_ = false;
  uint32_t stack_[kMaxHops + 1];
  VertexId path_buf_[kMaxHops + 1];
};

struct Row {
  std::string name;
  double paths_per_sec = 0.0;
  double wall_ms = 0.0;
  uint64_t results = 0;
  uint64_t checksum = 0;  // total path length, result-set fingerprint
};

template <typename RunFn>
Row MeasureConfig(const std::string& name, int reps, const RunFn& run) {
  run();  // warmup: scratch reaches steady state
  Row row;
  row.name = name;
  double wall_sum = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    const auto [results, checksum] = run();
    wall_sum += t.ElapsedMs();
    row.results = results;
    row.checksum = checksum;
  }
  row.wall_ms = wall_sum / reps;
  row.paths_per_sec =
      row.wall_ms > 0.0 ? row.results / (row.wall_ms / 1e3) : 0.0;
  return row;
}

std::string JsonObject(const std::vector<Row>& rows, uint32_t width,
                       uint32_t layers, uint32_t hops, uint64_t limit,
                       double block_speedup_dfs, double block_speedup_join,
                       bool scratch_stable) {
  std::ostringstream out;
  out << "{\"width\": " << width << ", \"layers\": " << layers
      << ", \"hops\": " << hops << ", \"limit\": " << limit
      << ", \"dfs_block_speedup\": " << block_speedup_dfs
      << ", \"join_block_speedup\": " << block_speedup_join
      << ", \"scratch_stable\": " << (scratch_stable ? "true" : "false")
      << ", \"rows\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << (i > 0 ? ", " : "") << "{\"config\": \"" << r.name
        << "\", \"wall_ms\": " << r.wall_ms
        << ", \"paths_per_sec\": " << r.paths_per_sec
        << ", \"results\": " << r.results << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace

int main() {
  const uint32_t width =
      static_cast<uint32_t>(EnvU64("PATHENUM_HOTPATH_WIDTH", 32));
  const uint32_t layers =
      static_cast<uint32_t>(EnvU64("PATHENUM_HOTPATH_LAYERS", 4));
  uint64_t total_paths = 1;
  for (uint32_t l = 0; l < layers; ++l) total_paths *= width;
  const uint64_t limit = EnvU64("PATHENUM_HOTPATH_LIMIT", total_paths);
  const int reps = static_cast<int>(EnvU64("PATHENUM_HOTPATH_REPS", 3));
  const uint32_t hops = layers + 1;

  std::printf("== Enumeration hot path: block vs per-path emission ==\n");
  std::printf("   canned layered DAG: %u x %u (%llu paths, k=%u, limit "
              "%llu)\n",
              width, layers, static_cast<unsigned long long>(total_paths),
              hops, static_cast<unsigned long long>(limit));

  // s = 0, inner layer l vertex i = 1 + l * width + i, t = last.
  const VertexId n = 2 + width * layers;
  GraphBuilder builder(n);
  const auto layer_vertex = [&](uint32_t l, uint32_t i) {
    return static_cast<VertexId>(1 + l * width + i);
  };
  for (uint32_t i = 0; i < width; ++i) builder.AddEdge(0, layer_vertex(0, i));
  for (uint32_t l = 0; l + 1 < layers; ++l) {
    for (uint32_t i = 0; i < width; ++i) {
      for (uint32_t j = 0; j < width; ++j) {
        builder.AddEdge(layer_vertex(l, i), layer_vertex(l + 1, j));
      }
    }
  }
  for (uint32_t i = 0; i < width; ++i) {
    builder.AddEdge(layer_vertex(layers - 1, i), n - 1);
  }
  const Graph g = builder.Build();
  const Query q{0, n - 1, hops};

  IndexBuilder index_builder;
  const LightweightIndex index = index_builder.Build(g, q);
  std::printf("   index: %u vertices, %llu edges, %.1f KiB slab (%s ends)\n",
              index.num_vertices(),
              static_cast<unsigned long long>(index.num_edges()),
              index.MemoryBytes() / 1024.0,
              index.out_ends_narrow() ? "u16" : "u32");

  EnumOptions opts;
  opts.result_limit = limit;
  opts.response_target = 1000;

  DfsEnumerator dfs;
  JoinEnumerator join;
  const uint32_t cut = std::max<uint32_t>(1, hops / 2);

  std::vector<Row> rows;
  rows.push_back(MeasureConfig("idxdfs_block", reps, [&] {
    CountingSink sink;
    dfs.Run(index, sink, opts);
    return std::pair(sink.count(), sink.total_length());
  }));
  const size_t dfs_scratch = dfs.ScratchBytes();
  rows.push_back(MeasureConfig("idxdfs_perpath", reps, [&] {
    PerPathCountingSink sink;
    dfs.Run(index, sink, opts);
    return std::pair(sink.count(), sink.total_length());
  }));
  LegacyRecursiveDfs legacy;
  rows.push_back(MeasureConfig("idxdfs_prepr_baseline", reps, [&] {
    PerPathCountingSink sink;
    legacy.Run(index, sink, opts);
    return std::pair(sink.count(), sink.total_length());
  }));
  rows.push_back(MeasureConfig("idxjoin_block", reps, [&] {
    CountingSink sink;
    join.Run(index, cut, sink, opts);
    return std::pair(sink.count(), sink.total_length());
  }));
  const size_t join_scratch = join.ScratchBytes();
  rows.push_back(MeasureConfig("idxjoin_perpath", reps, [&] {
    PerPathCountingSink sink;
    join.Run(index, cut, sink, opts);
    return std::pair(sink.count(), sink.total_length());
  }));
  // Zero-allocation steady state: the reusable scratch footprint must not
  // have moved across the measured repetitions (the block arena is inline).
  const bool scratch_stable =
      dfs.ScratchBytes() == dfs_scratch && join.ScratchBytes() == join_scratch;

  bool checksum_ok = true;
  std::printf("\n%-18s %14s %12s %14s\n", "config", "wall ms", "results",
              "paths/sec");
  for (const Row& r : rows) {
    std::printf("%-18s %14.2f %12llu %14.0f\n", r.name.c_str(), r.wall_ms,
                static_cast<unsigned long long>(r.results), r.paths_per_sec);
  }
  checksum_ok = rows[0].checksum == rows[1].checksum &&
                rows[0].results == rows[1].results &&
                rows[1].checksum == rows[2].checksum &&
                rows[3].checksum == rows[4].checksum;
  // The acceptance signal: the full new hot path (iterative DFS + block
  // emission) against the pre-PR recursive per-path enumerator.
  const double dfs_speedup =
      rows[2].paths_per_sec > 0.0 ? rows[0].paths_per_sec / rows[2].paths_per_sec
                                  : 0.0;
  const double emission_speedup =
      rows[1].paths_per_sec > 0.0 ? rows[0].paths_per_sec / rows[1].paths_per_sec
                                  : 0.0;
  const double join_speedup =
      rows[4].paths_per_sec > 0.0 ? rows[3].paths_per_sec / rows[4].paths_per_sec
                                  : 0.0;
  std::printf("  [hotpath] IDX-DFS %.2fx vs pre-PR baseline (block emission "
              "alone %.2fx), IDX-JOIN block %.2fx; scratch %s; checksums "
              "%s\n",
              dfs_speedup, emission_speedup, join_speedup,
              scratch_stable ? "stable (zero steady-state alloc)" : "GREW",
              checksum_ok ? "match" : "MISMATCH");

  const std::string obj =
      JsonObject(rows, width, layers, hops, limit, dfs_speedup, join_speedup,
                 scratch_stable);
  const char* json_env = std::getenv("PATHENUM_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_hotpath.json";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n" << bench::RecordHeaderJson("bench_hotpath", reps)
        << ",\n  \"hotpath\": " << obj << "\n}\n";
    std::fprintf(stderr, "[bench] wrote %s\n", json_path.c_str());
  }
  const bool complete = limit < total_paths || rows[0].results == limit;
  return checksum_ok && complete && scratch_stable ? 0 : 1;
}
