// The serving benchmark: four workloads, each driven through one serving
// front-end of the library, timed end to end from the caller's side, every
// answer checked against a single-threaded reference afterwards.
//
//   serve_bench --make-graph --workload W --seed S --graph FILE
//       writes the workload's seeded input graph (run once before a run; the
//       measuring process only ever reads the file).
//   serve_bench --workload W --seed S --seconds N --trace 0|1 --graph FILE
//               [--spans FILE]
//       measures. The last stdout line is one JSON object: with --trace 0
//       the end-to-end metrics (work timed on CPU clocks and scaled to a
//       reference host speed by a HostRuler; the wall-clock figures are
//       printed as '# wall.*' lines), with --trace 1 the per-layer metrics
//       (from spans the benchmark records around each call into a layer, the
//       records those calls return, and a single-threaded replay), plus the
//       traced run's own end-to-end numbers under `traced.*`.
//
// Exit codes: 0 measured and correct; 1 a reference mismatch; 2 bad usage
// or input; 3 the run is invalid (the open-loop generator fell behind);
// 4 the run stalled (the watchdog names the phase).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "core/path_enum.h"
#include "engine/index_cache.h"
#include "engine/query_engine.h"
#include "graph/bfs.h"
#include "graph/io.h"
#include "live/async_engine.h"
#include "live/live_oracle.h"
#include "live/snapshot.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace servebench {
namespace {

namespace pe = pathenum;
using Clock = std::chrono::steady_clock;
using pe::Query;
using pe::QueryState;
using pe::VertexId;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Threads the checker and the input generator use outside the timed
/// phase.
constexpr unsigned kOfflineThreads = 4;

/// The run phase, reported by the watchdog if the run stalls.
std::atomic<const char*> g_phase{"start"};

void EnterPhase(const char* phase) {
  g_phase.store(phase);
  std::printf("# phase: %s\n", phase);
  std::fflush(stdout);
}

/// Ends the process with exit code 4, naming the current phase on stderr,
/// when the run outlives `limit`: a call that never returns then fails fast
/// and says where, instead of running into the caller's timeout.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr,
                         "serve_bench: still in phase '%s' after %lld s\n",
                         g_phase.load(),
                         static_cast<long long>(limit.count()));
            std::fflush(stderr);
            std::_Exit(4);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Peak RSS of the process so far, in MB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A served request returned a well-formed answer: complete, truncated by
/// its result limit, or certified unsatisfiable.
bool Served(QueryState s) {
  return s == QueryState::kOk || s == QueryState::kTruncated ||
         s == QueryState::kUnsatisfiable;
}

// ---------------------------------------------------------------------------
// Metrics and spans
// ---------------------------------------------------------------------------

/// Metric values by name; units come from the metric tables below.
using MetricSet = std::map<std::string, double>;

double Value(const MetricSet& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// num / den, or 0 when nothing was counted.
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The engine.* cache metrics from a timed-phase delta of cache counters.
void FillCacheMetrics(const pathenum::IndexCacheStats& c, double queries,
                      MetricSet& layer) {
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  layer["engine.index_hit_rate"] =
      Ratio(d(c.index_hits), d(c.index_hits + c.index_misses));
  layer["engine.result_hit_rate"] =
      Ratio(d(c.result_hits), d(c.result_hits + c.result_misses));
  layer["engine.evictions_per_1k"] =
      1e3 * Ratio(d(c.index_evictions + c.result_evictions), queries);
  layer["engine.cache_mb"] = d(c.index_bytes + c.result_bytes) / (1 << 20);
}

/// The per-layer metrics every traced run reports, in the order
/// BENCHMARK.json lists them. A layer a workload does not exercise reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kLayerMetrics[] = {
    {"graph.bfs_ms_p50", "ms"},
    {"core.index.build_ms_p50", "ms"},
    {"core.index.edges_scanned_per_s", "1/s"},
    {"core.index.fusion_ratio", "ratio"},
    {"core.index.index_edges_p50", "count"},
    {"core.plan.ms_p50", "ms"},
    {"core.plan.join_share", "fraction"},
    {"core.plan.estimate_log_error_p50", "log10"},
    {"core.enum.paths_per_s", "1/s"},
    {"core.enum.edges_per_path", "ratio"},
    {"core.enum.useful_partial_ratio", "fraction"},
    {"core.enum.first_1000_ms_p50", "ms"},
    {"engine.busy_ratio", "fraction"},
    {"engine.overhead_ms_per_query", "ms"},
    {"engine.steals_per_batch", "count"},
    {"engine.batched_share", "fraction"},
    {"engine.index_hit_rate", "fraction"},
    {"engine.result_hit_rate", "fraction"},
    {"engine.evictions_per_1k", "count"},
    {"engine.cache_mb", "MB"},
    {"engine.paths_per_cpu_s", "1/s"},
    {"live.submit_us_p50", "us"},
    {"live.submit_us_p99", "us"},
    {"live.queue_wait_ms_p50", "ms"},
    {"live.queue_wait_ms_p99", "ms"},
    {"live.exec_ms_p50", "ms"},
    {"live.span_gap_ms_p50", "ms"},
    {"live.queue_depth_max", "count"},
    {"live.oracle_build_s", "s"},
    {"live.oracle_reject_rate", "fraction"},
    {"live.oracle_check_us_p50", "us"},
    {"live.oracle_relabels", "count"},
    {"live.prepare_ms_p50", "ms"},
    {"live.cache_epoch_ms_p50", "ms"},
    {"live.oracle_epoch_ms_p50", "ms"},
    {"live.update_ms_p50", "ms"},
    {"live.invalidations_per_update", "count"},
    {"live.compactions_per_100_updates", "count"},
    {"shard.partition_s", "s"},
    {"shard.plan_ms_mean", "ms"},
    {"shard.cut_edges", "count"},
    {"shard.delegated_share", "fraction"},
    {"shard.delegated_ms_p50", "ms"},
    {"shard.stitched_ms_p50", "ms"},
    {"shard.frames_per_stitched", "count"},
    {"shard.continuations_per_stitched", "count"},
    {"shard.stitch_merge_ms_mean", "ms"},
    {"shard.update_ms_p50", "ms"},
    {"gen.late_ms_p99", "ms"},
    {"wall.latency_p50_ms", "ms"},
    {"wall.latency_tail_ms", "ms"},
    {"wall.response_p50_ms", "ms"},
    {"wall.setup_s", "s"},
    {"host.ruler_ms", "ms"},
};

/// End-to-end metrics, reported by every workload (see BENCHMARK.json).
/// Work is timed on CPU clocks: on a shared host, wall-clock latency and
/// throughput follow the host's load (CPU steal) more than the program.
/// The caller-observed wall-clock figures are the wall.* per-layer metrics.
constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"cpu_ms_per_query", "ms"},
    {"served_frac", "fraction"},
    {"peak_rss_mb", "MB"},
};

/// In-memory span log: name, start, end, parent and request id per span,
/// written out once the run ends. Disabled (every call a no-op) in
/// untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(size_t{1} << 16);
  }

  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              uint64_t request, int64_t parent = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, Us(start), Us(end), parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  std::vector<double> DurationsMs(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_us - s.start_us) / 1e3);
    }
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu}%s\n",
                   i, s.name, s.start_us, s.end_us,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    uint64_t request;
  };
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times `fn` and records it as a span.
template <typename Fn>
auto Traced(SpanLog& log, const char* name, uint64_t request, int64_t parent,
            Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log.Add(name, t0, Clock::now(), request, parent);
  } else {
    auto r = fn();
    log.Add(name, t0, Clock::now(), request, parent);
    return r;
  }
}

// ---------------------------------------------------------------------------
// The verifying sink
// ---------------------------------------------------------------------------

/// Counts delivered paths, folds each into an order-independent fingerprint
/// (sum of per-path hashes, computed incrementally over the block's shared
/// prefixes), stamps the arrival of the 1000th and of the last path, and —
/// when asked — keeps the paths for the validity check. Calls are
/// serialized by the engines, so no locking.
class VerifySink final : public pe::PathSink {
 public:
  static constexpr uint64_t kResponseTarget = 1000;

  void KeepPaths(uint64_t max_paths, uint32_t hops) {
    keep_ = max_paths;
    paths_.reserve(max_paths * (hops + 2));
  }

  bool OnPath(std::span<const VertexId> path) override {
    uint64_t h = kSeed;
    for (VertexId v : path) h = Mix64(h ^ v);
    Fold(h, path.data(), static_cast<uint32_t>(path.size()));
    ++count_;
    Stamp(Clock::now());
    return true;
  }

  BlockResult OnBlock(const pe::PathBlockView& block) override {
    const VertexId* suffix = block.verts;
    for (uint32_t i = 0; i < block.count; ++i) {
      const pe::PathBlock::Entry e = block.entries[i];
      for (uint32_t j = 0; j < e.suffix_len; ++j) {
        const uint32_t at = e.prefix_len + j;
        path_[at] = suffix[j];
        prefix_hash_[at + 1] = Mix64(prefix_hash_[at] ^ suffix[j]);
      }
      suffix += e.suffix_len;
      const uint32_t len = e.prefix_len + e.suffix_len;
      Fold(prefix_hash_[len], path_, len);
    }
    count_ += block.count;
    Stamp(Clock::now());
    return {block.count, false};
  }

  uint64_t count() const { return count_; }
  uint64_t fingerprint() const { return fingerprint_; }
  bool kept_all() const { return count_ <= keep_; }
  const std::vector<VertexId>& paths() const { return paths_; }

  /// When the min(1000, count)-th path arrived, or `completed` for an empty
  /// result — the paper's response time.
  Clock::time_point ResponseAt(Clock::time_point completed) const {
    if (count_ == 0) return completed;
    return count_ >= kResponseTarget ? target_at_ : last_at_;
  }

 private:
  static constexpr uint64_t kSeed = 0x5bd1e9955bd1e995ULL;

  void Fold(uint64_t prefix_hash, const VertexId* path, uint32_t len) {
    fingerprint_ += Mix64(prefix_hash + len);
    if (count_ < keep_) {
      paths_.push_back(len);
      paths_.insert(paths_.end(), path, path + len);
    }
  }
  void Stamp(Clock::time_point now) {
    if (count_ >= kResponseTarget && !target_hit_) {
      target_hit_ = true;
      target_at_ = now;
    }
    last_at_ = now;
  }

  uint64_t count_ = 0;
  uint64_t fingerprint_ = 0;
  uint64_t keep_ = 0;
  std::vector<VertexId> paths_;  // [len, v0 .. v_len-1]*
  VertexId path_[pe::kMaxHops + 1] = {};
  uint64_t prefix_hash_[pe::kMaxHops + 2] = {kSeed};
  bool target_hit_ = false;
  Clock::time_point target_at_{};
  Clock::time_point last_at_{};
};

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

pe::Graph MakeGraph(const std::string& dataset, double scale, uint64_t seed) {
  pe::DatasetSpec spec = pe::FindDataset(dataset);
  spec.seed = Mix64(seed ^ spec.seed);
  return pe::MakeDataset(spec, scale);
}

/// Runs fn(i) for i in [0, n) on kOfflineThreads threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kOfflineThreads; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// `count` distinct V'×V' pairs with dist(s, t) <= 3 (the paper's §7.1
/// query setting), drawn in kOfflineThreads deterministic slices.
std::vector<Query> DrawPairs(const pe::Graph& g, size_t count, uint32_t hops,
                             uint64_t seed) {
  const size_t per_slice = (count + count / 8) / kOfflineThreads + 1;
  std::vector<std::vector<Query>> slices(kOfflineThreads);
  ParallelFor(kOfflineThreads, [&](size_t i) {
    pe::QueryGenOptions o;
    o.count = static_cast<uint32_t>(per_slice);
    o.hops = hops;
    o.seed = Mix64(seed + 0x100 + i);
    slices[i] = pe::GenerateQueries(g, o);
  });
  std::vector<Query> out;
  std::unordered_set<uint64_t> seen;
  for (const std::vector<Query>& slice : slices) {
    for (const Query& q : slice) {
      if (out.size() == count) break;
      if (seen.insert(uint64_t{q.source} << 32 | q.target).second) {
        out.push_back(q);
      }
    }
  }
  return out;
}

/// Pairs with dist(s, t) > hops: uniform endpoints, BFS-confirmed.
std::vector<Query> DrawUnsatisfiable(const pe::Graph& g, size_t count,
                                     uint32_t hops, uint64_t seed) {
  pe::Rng rng(seed);
  pe::DistanceField bfs;
  std::vector<Query> out;
  while (out.size() < count) {
    const auto s = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    if (s == t) continue;
    pe::BfsOptions o;
    o.max_depth = hops;
    o.stop_at = t;
    bfs.Compute(g, pe::Direction::kForward, s, o);
    if (bfs.Distance(t) > hops) out.push_back({s, t, hops});
  }
  return out;
}

/// A seeded update stream: each delta deletes `ops / 2` edges drawn
/// uniformly from the base graph's edges not yet deleted, and inserts
/// `ops / 2` edges absent from the base graph between uniform endpoints.
/// Deletions and insertions never touch the same edge, so every delta is
/// valid when applied in order and its effect does not depend on the order
/// of its operations.
std::vector<pe::GraphDelta> MakeUpdates(const pe::Graph& g, size_t n,
                                        uint32_t ops, uint64_t seed) {
  pe::Rng rng(seed);
  std::vector<uint64_t> offset(g.num_vertices() + 1, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    offset[v + 1] = offset[v] + g.OutDegree(v);
  }
  std::unordered_set<uint64_t> deleted;
  std::unordered_set<uint64_t> inserted;
  const auto key = [](VertexId u, VertexId v) {
    return uint64_t{u} << 32 | v;
  };
  std::vector<pe::GraphDelta> out(n);
  for (pe::GraphDelta& d : out) {
    while (d.deletions.size() < ops / 2) {
      const uint64_t e = rng.NextBounded(offset.back());
      const auto u = static_cast<VertexId>(
          std::upper_bound(offset.begin(), offset.end(), e) - offset.begin() -
          1);
      const VertexId v = g.OutNeighbors(u)[e - offset[u]];
      if (deleted.insert(key(u, v)).second) d.Delete(u, v);
    }
    while (d.insertions.size() < ops - ops / 2) {
      const auto u = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
      const auto v = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
      if (u == v || g.HasEdge(u, v)) continue;
      if (inserted.insert(key(u, v)).second) d.Insert(u, v);
    }
  }
  return out;
}

/// The graph after applying deltas[0 .. version) to `base`, built from
/// scratch as an independent reference for the live and sharded layers.
pe::Graph VersionGraph(const pe::Graph& base,
                       const std::vector<pe::GraphDelta>& deltas,
                       uint64_t version) {
  std::unordered_map<uint64_t, bool> touched;  // edge -> present afterwards
  for (uint64_t i = 0; i < version; ++i) {
    for (const auto& [u, v] : deltas[i].deletions) {
      touched[uint64_t{u} << 32 | v] = false;
    }
    for (const auto& [u, v] : deltas[i].insertions) {
      touched[uint64_t{u} << 32 | v] = true;
    }
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(base.num_edges() + touched.size());
  for (VertexId u = 0; u < base.num_vertices(); ++u) {
    for (VertexId v : base.OutNeighbors(u)) {
      const auto it = touched.find(uint64_t{u} << 32 | v);
      if (it == touched.end() || it->second) edges.emplace_back(u, v);
    }
  }
  for (const auto& [k, is_present] : touched) {
    const auto u = static_cast<VertexId>(k >> 32);
    const auto v = static_cast<VertexId>(k & 0xffffffffu);
    if (is_present && !base.HasEdge(u, v)) edges.emplace_back(u, v);
  }
  return pe::Graph::FromEdges(base.num_vertices(), edges);
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// One answered query as the caller saw it.
struct Observation {
  Query q;
  uint64_t limit = 0;
  uint64_t version = 0;  // snapshot the request observed
  QueryState state = QueryState::kOk;
  const VerifySink* sink = nullptr;
};

struct CheckReport {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  uint64_t truly_unsatisfiable = 0;  // checked pairs with dist(s, t) > k
  uint64_t oracle_rejected = 0;      // ... of which came back kUnsatisfiable
  std::string first_mismatch;
};

/// Checks each served observation against a single-threaded PathEnumerator
/// on the graph at the version it observed:
///  - delivered count == min(limit, true count);
///  - a complete answer has the reference's exact path set (fingerprint);
///  - a truncated answer's paths are distinct, and each is a simple s->t
///    path within k hops over that version's edges;
///  - kUnsatisfiable only where BFS confirms dist(s, t) > k.
CheckReport CheckAll(const pe::Graph& base,
                     const std::vector<pe::GraphDelta>& deltas,
                     const std::vector<Observation>& obs) {
  // One reference run per distinct (version, s, t, k, limit); the work is
  // split into chunks of distinct keys so one version's many answers spread
  // over every checker thread.
  std::map<uint64_t, std::map<std::tuple<VertexId, VertexId, uint32_t,
                                         uint64_t>,
                              std::vector<size_t>>>
      groups;
  for (size_t i = 0; i < obs.size(); ++i) {
    const Observation& o = obs[i];
    if (!Served(o.state)) continue;
    groups[o.version][{o.q.source, o.q.target, o.q.hops, o.limit}].push_back(i);
  }
  struct Item {
    uint64_t version;
    std::vector<const std::vector<size_t>*> keys;
  };
  constexpr size_t kKeysPerItem = 16;
  std::vector<Item> items;
  for (const auto& [version, keys] : groups) {
    for (const auto& [key, members] : keys) {
      if (items.empty() || items.back().version != version ||
          items.back().keys.size() == kKeysPerItem) {
        items.push_back({version, {}});
      }
      items.back().keys.push_back(&members);
    }
  }

  std::mutex mutex;
  CheckReport report;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kOfflineThreads; ++w) {
    threads.emplace_back([&] {
      std::unique_ptr<pe::Graph> owned;  // the version graph, when not base
      uint64_t graph_version = UINT64_MAX;
      pe::DistanceField bfs;
      CheckReport local;
      std::string first;
      const auto fail = [&](const Observation& o, const char* why) {
        ++local.mismatches;
        if (first.empty()) {
          first = std::string(why) + " (s=" + std::to_string(o.q.source) +
                  " t=" + std::to_string(o.q.target) +
                  " k=" + std::to_string(o.q.hops) +
                  " version=" + std::to_string(o.version) + ")";
        }
      };
      for (size_t it = next++; it < items.size(); it = next++) {
        const Item& item = items[it];
        if (item.version != graph_version) {
          graph_version = item.version;
          owned.reset();
          if (item.version > 0) {
            owned = std::make_unique<pe::Graph>(
                VersionGraph(base, deltas, item.version));
          }
        }
        const pe::Graph& g = owned ? *owned : base;
        pe::PathEnumerator reference(g);
        for (const std::vector<size_t>* members : item.keys) {
          const Observation& head = obs[members->front()];
          VerifySink ref;
          pe::EnumOptions opts;
          opts.result_limit = head.limit;
          reference.Run(head.q, ref, opts);
          for (size_t i : *members) {
            const Observation& o = obs[i];
            ++local.checked;
            const uint64_t got = o.sink->count();
            if (ref.count() == 0) ++local.truly_unsatisfiable;
            if (o.state == QueryState::kUnsatisfiable) {
              pe::BfsOptions b;
              b.max_depth = o.q.hops;
              b.stop_at = o.q.target;
              bfs.Compute(g, pe::Direction::kForward, o.q.source, b);
              if (got != 0 || bfs.Distance(o.q.target) <= o.q.hops) {
                fail(o, "kUnsatisfiable for a pair within k hops");
              } else {
                ++local.oracle_rejected;
              }
              continue;
            }
            if (got != ref.count()) {
              fail(o, "delivered count != min(limit, true count)");
              continue;
            }
            if (ref.count() < o.limit) {
              if (o.sink->fingerprint() != ref.fingerprint()) {
                fail(o, "complete result differs from the reference path set");
              }
              continue;
            }
            if (!o.sink->kept_all()) {
              fail(o, "truncated result whose paths were not kept");
              continue;
            }
            const std::vector<VertexId>& p = o.sink->paths();
            std::unordered_set<std::string_view> distinct;
            for (size_t at = 0; at < p.size();) {
              const uint32_t len = p[at];
              const VertexId* path = p.data() + at + 1;
              at += len + 1;
              bool ok = len >= 2 && len - 1 <= o.q.hops &&
                        path[0] == o.q.source && path[len - 1] == o.q.target;
              for (uint32_t a = 0; ok && a < len; ++a) {
                for (uint32_t b = a + 1; ok && b < len; ++b) {
                  ok = path[a] != path[b];
                }
                if (ok && a + 1 < len) ok = g.HasEdge(path[a], path[a + 1]);
              }
              if (!ok) {
                fail(o, "a delivered path is not a simple s-t path <= k hops");
                break;
              }
              // `limit` valid paths are a correct answer only if distinct.
              if (!distinct
                       .emplace(reinterpret_cast<const char*>(path),
                                len * sizeof(VertexId))
                       .second) {
                fail(o, "a truncated answer delivered the same path twice");
                break;
              }
            }
          }
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      report.checked += local.checked;
      report.mismatches += local.mismatches;
      report.truly_unsatisfiable += local.truly_unsatisfiable;
      report.oracle_rejected += local.oracle_rejected;
      if (report.first_mismatch.empty()) report.first_mismatch = first;
    });
  }
  for (std::thread& t : threads) t.join();
  return report;
}

// ---------------------------------------------------------------------------
// Shared run plumbing
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool make_graph = false;
  std::string graph_path;
  std::string spans_path;
};

struct WorkloadInfo {
  const char* name;
  const char* dataset;
  double scale;
};
constexpr WorkloadInfo kWorkloads[] = {
    {"cold_batch", "up", 0.25},
    {"heavy_enum", "ep", 0.3},
    {"live_stream", "ep", 0.3},
    {"sharded", "up", 0.25},
};

/// What a workload hands back to main.
struct RunResult {
  MetricSet e2e;
  MetricSet layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  CheckReport check;
  bool valid = true;  // false: the open-loop generator fell behind
  std::string facts;  // JSON object describing the run's setting
};

/// Median set-up time of a run, on the wall clock and on the process's CPU
/// clock (all threads).
struct SetupTimes {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Loads the workload graph with the library's loader and stands the
/// serving stack up on it, at least 3 times and, for fast set-ups, until
/// about a second was spent (at most 15 times); returns the last stack and
/// the median set-up times.
template <typename Stack>
std::unique_ptr<Stack> SetUp(
    const Args& args,
    const std::function<std::unique_ptr<Stack>(pe::Graph)>& build,
    SetupTimes* setup) {
  EnterPhase("setup");
  std::vector<double> secs, cpu_secs;
  std::unique_ptr<Stack> stack;
  double spent_s = 0.0;
  for (int r = 0; r < 3 || (spent_s < 1.0 && r < 15); ++r) {
    stack.reset();
    const double cpu0 = ProcessCpuMs();
    const Clock::time_point t0 = Clock::now();
    pe::StatusOr<pe::Graph> g = pe::TryLoadBinary(args.graph_path);
    if (!g.ok()) {
      std::fprintf(stderr, "serve_bench: cannot load %s: %s\n",
                   args.graph_path.c_str(), g.status().message().c_str());
      std::exit(2);
    }
    stack = build(std::move(g).value());
    secs.push_back(Ms(t0, Clock::now()) / 1e3);
    cpu_secs.push_back((ProcessCpuMs() - cpu0) / 1e3);
    spent_s += secs.back();
  }
  setup->wall_s = Median(secs);
  setup->cpu_s = Median(cpu_secs);
  EnterPhase("inputs");
  return stack;
}

/// The timed requests of one run, in time order.
struct LoopStats {
  std::vector<RequestSample> requests;
  std::vector<double> response_ms;  // per query
  FailureCount failures;
  // CPU time the serving threads used over the timed phase, for a run whose
  // requests carry no CPU time of their own (< 0: they do).
  double cpu_ms_total = -1.0;
  double ruler_ms = 0.0;  // the host ruler's median tick over the timed phase
};

/// How often the workloads tick their HostRuler: about 2% of one core.
constexpr double kRulerEveryMs = 100.0;

/// A HostRuler ticked from one thread between its other work.
struct RulerClock {
  HostRuler ruler;
  Clock::time_point last{};

  void MaybeTick() {
    if (Ms(last, Clock::now()) >= kRulerEveryMs) {
      ruler.Tick();
      last = Clock::now();
    }
  }
};

/// Fills the end-to-end metrics and the wall.* and host.* per-layer
/// metrics. CPU cost is at the HostRuler's reference speed: the median over
/// the run's windows (Windowed) of each window's CPU time per query and
/// paths per CPU second, the requests' CPU time already scaled when it was
/// taken; or the whole timed phase's, scaled by the ruler's median tick,
/// when the requests carry no CPU time (cpu_ms_total).
/// Every workload reports p95 as its wall-clock tail: the median over the
/// windows of each window's p95, with at least 10 samples beyond it in
/// every window. A 20 s run has 4 to 10 windows of 200 to 300 requests.
void FillEndToEnd(const LoopStats& s, const SetupTimes& setup,
                  double peak_rss, RunResult& res, std::string* tail_fact) {
  std::vector<double> latency;
  double queries = 0.0, paths = 0.0;
  for (const RequestSample& r : s.requests) {
    latency.push_back(r.latency_ms);
    queries += static_cast<double>(r.queries);
    paths += static_cast<double>(r.paths);
  }
  const WindowedFigures w = Windowed(s.requests);
  MetricSet& e2e = res.e2e;
  // Set-up runs before the ruler's ticks; the timed phase's median tick
  // stands for the host's speed over the whole run.
  e2e["setup_s"] = setup.cpu_s * Ratio(HostRuler::kReferenceMs, s.ruler_ms);
  if (s.cpu_ms_total < 0) {
    e2e["cpu_ms_per_query"] = w.cpu_ms_per_query;
    res.layer["engine.paths_per_cpu_s"] = w.paths_per_cpu_s;
  } else {
    const double cpu_ms =
        s.cpu_ms_total * Ratio(HostRuler::kReferenceMs, s.ruler_ms);
    e2e["cpu_ms_per_query"] = Ratio(cpu_ms, queries);
    res.layer["engine.paths_per_cpu_s"] = Ratio(paths, cpu_ms / 1e3);
  }
  e2e["served_frac"] = s.failures.ServedFrac();
  e2e["peak_rss_mb"] = peak_rss;
  res.layer["wall.latency_p50_ms"] = Median(latency);
  res.layer["wall.latency_tail_ms"] = w.tail_ms;
  res.layer["wall.response_p50_ms"] = Median(s.response_ms);
  res.layer["host.ruler_ms"] = s.ruler_ms;
  res.layer["wall.setup_s"] = setup.wall_s;
  *tail_fact = "\"tail_percentile\":" + std::to_string(w.tail_percentile) +
               ",\"latency_samples\":" + std::to_string(latency.size()) +
               ",\"tail_windows\":" + std::to_string(w.windows) +
               ",\"window_requests_min\":" + std::to_string(w.min_window) +
               ",\"samples_beyond_tail_per_window\":" +
               std::to_string(SamplesBeyond(w.min_window, w.tail_percentile));
}

/// Histogram (count, sum_ms) pairs for every registry histogram whose key
/// starts with `name`, summed — read from the registry's JSON exposition.
std::pair<uint64_t, double> RegistryHistogram(std::string_view name) {
  const std::string json = pe::obs::DumpMetricsJson();
  uint64_t count = 0;
  double sum = 0.0;
  const std::string needle = "\"" + std::string(name);
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    const size_t c = json.find("\"count\":", at);
    const size_t s = json.find("\"sum_ms\":", at);
    if (c == std::string::npos || s == std::string::npos) break;
    count += std::strtoull(json.c_str() + c + 8, nullptr, 10);
    sum += std::strtod(json.c_str() + s + 9, nullptr);
  }
  return {count, sum};
}

// ---------------------------------------------------------------------------
// Single-threaded replay through the core layer (traced runs only)
// ---------------------------------------------------------------------------

/// Replays `queries` one by one through PathEnumerator::BuildIndex,
/// PlanExecution and RunWithIndex on `view`, with a span around each call,
/// and fills the core.* and graph.* per-layer metrics.
void ReplayCore(const pe::GraphView& view, const std::vector<Query>& queries,
                uint64_t limit, SpanLog& log, MetricSet& layer) {
  EnterPhase("replay");
  pe::PathEnumerator enumerator(view);
  std::vector<double> bfs_ms, index_edges, first_1000, log_err;
  uint64_t joins = 0, scanned = 0, paths = 0, edges = 0, partials = 0,
           invalid = 0;
  double build_ms = 0.0, enum_ms = 0.0;
  uint64_t req = 1'000'000;  // replay span ids sit above the measured ones
  for (const Query& q : queries) {
    pe::EnumOptions opts;
    opts.result_limit = limit;
    const pe::IndexBuilder::Options build_opts =
        pe::PathEnumerator::BuildOptionsFor(q, opts);
    pe::LightweightIndex index = Traced(log, "core.index.BuildIndex", req, -1,
                                        [&] {
                                          return enumerator.BuildIndex(
                                              q, build_opts);
                                        });
    const pe::LightweightIndex::BuildStats& bs = index.build_stats();
    bfs_ms.push_back(bs.bfs_ms);
    build_ms += bs.total_ms;
    scanned += bs.edges_scanned;
    index_edges.push_back(static_cast<double>(index.num_edges()));
    pe::QueryStats plan_stats;
    const pe::PathEnumerator::ExecutionPlan plan =
        Traced(log, "core.plan.PlanExecution", req, -1, [&] {
          return pe::PathEnumerator::PlanExecution(index, opts, plan_stats);
        });
    if (plan.method == pe::Method::kJoin) ++joins;
    VerifySink sink;
    const pe::QueryStats st = Traced(log, "core.enum.RunWithIndex", req, -1,
                                     [&] {
                                       return enumerator.RunWithIndex(
                                           index, sink, opts);
                                     });
    paths += st.counters.num_results;
    edges += st.counters.edges_accessed;
    partials += st.counters.partials;
    invalid += st.counters.invalid_partials;
    enum_ms += st.enumerate_ms;
    if (st.counters.response_ms >= 0) {
      first_1000.push_back(st.counters.response_ms);
    }
    if (st.counters.completed() && plan_stats.preliminary_estimate > 0 &&
        st.counters.num_results > 0) {
      log_err.push_back(std::abs(std::log10(
          plan_stats.preliminary_estimate /
          static_cast<double>(st.counters.num_results))));
    }
    ++req;
  }
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  layer["graph.bfs_ms_p50"] = Median(bfs_ms);
  layer["core.index.build_ms_p50"] =
      Median(log.DurationsMs("core.index.BuildIndex"));
  layer["core.index.edges_scanned_per_s"] = Ratio(d(scanned), build_ms / 1e3);
  layer["core.index.index_edges_p50"] = Median(index_edges);
  layer["core.plan.ms_p50"] =
      Median(log.DurationsMs("core.plan.PlanExecution"));
  layer["core.plan.join_share"] = Ratio(d(joins), d(queries.size()));
  layer["core.plan.estimate_log_error_p50"] = Median(log_err);
  layer["core.enum.paths_per_s"] = Ratio(d(paths), enum_ms / 1e3);
  layer["core.enum.edges_per_path"] = Ratio(d(edges), d(paths));
  layer["core.enum.useful_partial_ratio"] =
      partials > 0 ? 1.0 - Ratio(d(invalid), d(partials)) : 0.0;
  layer["core.enum.first_1000_ms_p50"] = Median(first_1000);
}

/// At most `cap` queries, evenly spaced over `all`.
std::vector<Query> Sample(const std::vector<Query>& all, size_t cap) {
  if (all.size() <= cap) return all;
  std::vector<Query> out;
  for (size_t i = 0; i < cap; ++i) out.push_back(all[i * all.size() / cap]);
  return out;
}

// ---------------------------------------------------------------------------
// Workload: cold_batch and heavy_enum (QueryEngine::RunBatch, closed loop)
// ---------------------------------------------------------------------------

/// Engine workers of the RunBatch workloads: with the caller, nproc (4).
constexpr uint32_t kBatchWorkers = 3;

struct BatchLoopConfig {
  size_t cache_mb;         // index cache budget, results get half; 0: none
  bool split;
  uint32_t hops;
  uint64_t limit;
  uint32_t batch;          // queries per RunBatch call
  bool keep_paths;         // keep paths for the truncated-answer check
  uint64_t rss_after;      // timed queries before peak RSS is read
  double warmup_s;
};

struct EngineStack {
  pe::Graph graph;
  std::unique_ptr<pe::QueryEngine> engine;
};

/// Drives RunBatch in a closed loop over the requests `make_requests`
/// derives from the graph, first for a warm-up then for `seconds`; checks
/// every answer. A request list that runs out ends the timed phase early
/// with a warning.
using RequestMaker = std::function<std::vector<Query>(const pe::Graph&)>;

RunResult RunBatchLoop(const Args& args, const BatchLoopConfig& cfg,
                       const RequestMaker& make_requests,
                       const char* facts_extra) {
  RunResult res;
  SpanLog log(args.trace);
  SetupTimes setup;
  std::unique_ptr<EngineStack> stack = SetUp<EngineStack>(
      args,
      [&](pe::Graph g) {
        auto s = std::make_unique<EngineStack>();
        s->graph = std::move(g);
        pe::EngineOptions eo;
        eo.num_workers = kBatchWorkers;
        eo.enable_cache = cfg.cache_mb > 0;
        eo.cache.max_index_bytes = cfg.cache_mb << 20;
        eo.cache.max_result_bytes = cfg.cache_mb << 19;
        s->engine = std::make_unique<pe::QueryEngine>(s->graph, eo);
        return s;
      },
      &setup);
  pe::QueryEngine& engine = *stack->engine;

  const std::vector<Query> requests = make_requests(stack->graph);
  std::vector<std::unique_ptr<VerifySink>> sinks;
  std::vector<Observation> obs;
  pe::BatchOptions bo;
  bo.split_branches = cfg.split;
  bo.query.result_limit = cfg.limit;

  LoopStats loop;
  RulerClock ruler;
  size_t ruler_timed_from = 0;
  double peak_rss = -1.0;  // read once rss_after timed queries are served
  uint64_t batches = 0, batched_builds = 0, batched_scanned = 0,
           batched_solo = 0;
  double query_ms = 0.0, worker_ms = 0.0;
  size_t next = 0;
  bool exhausted = false;
  const auto run_phase = [&](double seconds, bool timed) {
    const Clock::time_point phase_start = Clock::now();
    while (Ms(phase_start, Clock::now()) < seconds * 1e3) {
      if (!timed && next >= requests.size() / 4) break;
      if (next + cfg.batch > requests.size()) {
        exhausted = true;
        break;
      }
      std::vector<Query> batch(requests.begin() + next,
                               requests.begin() + next + cfg.batch);
      next += cfg.batch;
      std::vector<pe::PathSink*> ptrs;
      for (size_t i = 0; i < batch.size(); ++i) {
        sinks.push_back(std::make_unique<VerifySink>());
        if (cfg.keep_paths) sinks.back()->KeepPaths(cfg.limit, cfg.hops);
        ptrs.push_back(sinks.back().get());
      }
      ruler.MaybeTick();  // between calls, while the engine idles
      const uint64_t req = batches;
      const double cpu0 = ProcessCpuMs();
      const Clock::time_point t0 = Clock::now();
      const pe::BatchResult r = engine.RunBatch(batch, ptrs, bo);
      const Clock::time_point t1 = Clock::now();
      const double cpu1 = ProcessCpuMs();
      for (size_t i = 0; i < batch.size(); ++i) {
        obs.push_back({batch[i], cfg.limit, 0, r.states[i],
                       static_cast<VerifySink*>(ptrs[i])});
      }
      if (!timed) continue;
      const int64_t root = log.Add("request", t0, t1, req);
      log.Add("engine.RunBatch", t0, t1, req, root);
      ++batches;
      // One caller in a closed loop: every CPU cycle the process spends
      // during the call is the call's (the workers and the waiting caller).
      RequestSample sample{Ms(t0, t1), (cpu1 - cpu0) * ruler.ruler.Scale(),
                           batch.size(), 0};
      for (size_t i = 0; i < batch.size(); ++i) {
        const auto* sink = static_cast<VerifySink*>(ptrs[i]);
        loop.failures.Add(Served(r.states[i]));
        loop.response_ms.push_back(Ms(t0, sink->ResponseAt(t1)));
        sample.paths += sink->count();
        query_ms += r.stats[i].total_ms;
      }
      loop.requests.push_back(sample);
      if (peak_rss < 0 && loop.failures.attempted >= cfg.rss_after) {
        peak_rss = PeakRssMb();
      }
      worker_ms += r.wall_ms * r.workers;
      batched_builds += r.batched_builds;
      batched_scanned += r.batched_edges_scanned;
      batched_solo += r.batched_solo_edges;
    }
  };
  EnterPhase("warm-up");
  run_phase(cfg.warmup_s, /*timed=*/false);  // scratch, pool, full cache
  const pe::QueryEngine::EngineStats eng0 = engine.Stats();
  const pe::IndexCacheStats cache_w =
      engine.cache() ? engine.cache()->Stats() : pe::IndexCacheStats{};
  EnterPhase("timed");
  ruler_timed_from = ruler.ruler.ticks();
  run_phase(args.seconds, /*timed=*/true);
  if (peak_rss < 0) {
    std::printf("# warning: peak RSS read at the end, after %llu queries\n",
                static_cast<unsigned long long>(loop.failures.attempted));
    peak_rss = PeakRssMb();
  }
  if (exhausted) {
    std::printf("# warning: request pool exhausted before %.0f s\n",
                args.seconds);
  }
  EnterPhase("check");

  loop.ruler_ms = ruler.ruler.MedianMs(ruler_timed_from);
  std::string tail_fact;
  FillEndToEnd(loop, setup, peak_rss, res, &tail_fact);
  res.attempted = loop.failures.attempted;
  res.failed = loop.failures.failed;
  res.check = CheckAll(stack->graph, {}, obs);

  if (args.trace) {
    const pe::QueryEngine::EngineStats eng1 = engine.Stats();
    const auto q = static_cast<double>(loop.response_ms.size());
    MetricSet& L = res.layer;
    L["engine.busy_ratio"] = Ratio(query_ms, worker_ms);
    L["engine.overhead_ms_per_query"] = Ratio(worker_ms - query_ms, q);
    L["engine.steals_per_batch"] =
        Ratio(static_cast<double>(eng1.steals - eng0.steals),
              static_cast<double>(batches));
    L["engine.batched_share"] = Ratio(static_cast<double>(batched_builds), q);
    L["core.index.fusion_ratio"] = Ratio(static_cast<double>(batched_solo),
                                         static_cast<double>(batched_scanned));
    if (engine.cache() != nullptr) {
      FillCacheMetrics(engine.cache()->Stats() - cache_w, q, L);
    }
    std::vector<Query> measured;
    for (const Observation& o : obs) measured.push_back(o.q);
    ReplayCore(stack->graph, Sample(measured, cfg.split ? 48 : 400),
               cfg.limit, log, L);
  }
  char facts[1024];
  std::snprintf(facts, sizeof(facts),
                "{\"front_end\":\"QueryEngine::RunBatch\",\"loop\":\"closed, "
                "one caller\",\"engine_workers\":%u,\"caller_threads\":1,"
                "\"hops\":%u,\"result_limit\":%llu,\"queries_per_call\":%u,"
                "\"cache\":%s,\"split_branches\":%s,%s,%s}",
                kBatchWorkers, cfg.hops,
                static_cast<unsigned long long>(cfg.limit), cfg.batch,
                cfg.cache_mb > 0 ? "true" : "false",
                cfg.split ? "true" : "false",
                tail_fact.c_str(), facts_extra);
  res.facts = facts;
  if (args.trace && !args.spans_path.empty()) log.Write(args.spans_path);
  EnterPhase("teardown");
  stack.reset();
  return res;
}

RunResult RunColdBatch(const Args& args) {
  BatchLoopConfig cfg{};
  // A budget the distinct keys overflow within the warm-up, so the timed
  // phase runs at the steady state of a full, evicting cache.
  cfg.cache_mb = 16;
  cfg.split = false;
  cfg.hops = 4;
  cfg.limit = 100;
  cfg.batch = 16;
  cfg.keep_paths = true;
  cfg.rss_after = 4000;  // a 20 s run serves about 11,000
  cfg.warmup_s = 2.0;
  // Distinct pairs for about twice the measured rate; never reused, since
  // repeats would turn misses into cache hits.
  const auto pool = static_cast<size_t>(args.seconds * 1500 + 3000);
  return RunBatchLoop(
      args, cfg,
      [&](const pe::Graph& g) {
        return DrawPairs(g, pool, cfg.hops, Mix64(args.seed ^ 0xc01d));
      },
      "\"cache_budget_mb\":{\"index\":16,\"result\":8}");
}

RunResult RunHeavyEnum(const Args& args) {
  BatchLoopConfig cfg{};
  cfg.cache_mb = 0;  // every request enumerates in full (the paper's setting)
  cfg.split = true;
  cfg.hops = 5;
  cfg.limit = 1'000'000;
  cfg.batch = 1;
  cfg.keep_paths = false;  // answers are complete: checked by fingerprint
  cfg.rss_after = 300;  // a 20 s run serves about 800
  cfg.warmup_s = 0.5;
  // A pool of heavy pairs whose complete result is between kMin and kMax
  // paths (under the limit, so every answer is complete and checkable),
  // cycled in a seeded order. About one candidate in ten falls in the band.
  constexpr uint64_t kMin = 200'000, kMax = 400'000;
  constexpr size_t kPool = 64;
  char pool_fact[128] = {};
  return RunBatchLoop(
      args, cfg,
      [&](const pe::Graph& g) {
        size_t tried = 0;
        std::vector<Query> pool;
        const std::vector<Query> candidates =
            DrawPairs(g, kPool * 16, cfg.hops, Mix64(args.seed ^ 0x4ea7));
        // Candidates are counted a chunk at a time, in order, until the
        // pool is full.
        constexpr size_t kChunk = 128;
        while (tried < candidates.size() && pool.size() < kPool) {
          const size_t n = std::min(kChunk, candidates.size() - tried);
          std::vector<uint64_t> counts(n);
          ParallelFor(n, [&](size_t i) {
            pe::PathEnumerator e(g);
            pe::CountingSink s;
            pe::EnumOptions o;
            o.result_limit = kMax + 1;
            // Out-of-band candidates can materialize huge join halves
            // before the limit stops them; the cap keeps selection memory
            // out of the run's peak RSS (in-band pairs need a few MB).
            o.partial_memory_limit_bytes = size_t{16} << 20;
            e.Run(candidates[tried + i], s, o);
            counts[i] = s.count();
          });
          for (size_t i = 0; i < n && pool.size() < kPool; ++i) {
            if (counts[i] >= kMin && counts[i] <= kMax) {
              pool.push_back(candidates[tried + i]);
            }
          }
          tried += n;
        }
        // Enough rounds for 200 requests/s, about four times today's rate.
        const auto rounds =
            static_cast<size_t>((args.seconds + 1) * 200 / kPool) + 1;
        std::vector<Query> order;
        pe::Rng rng(Mix64(args.seed ^ 0x0bde));
        for (size_t round = 0; round < rounds; ++round) {
          std::vector<Query> r = pool;
          for (size_t i = r.size(); i > 1; --i) {
            std::swap(r[i - 1], r[rng.NextBounded(i)]);
          }
          order.insert(order.end(), r.begin(), r.end());
        }
        std::snprintf(pool_fact, sizeof(pool_fact),
                      "\"pool\":\"%zu pairs with 2e5..4e5 paths each (of %zu "
                      "candidates counted), cycled\"",
                      pool.size(), tried);
        return order;
      },
      pool_fact);
}

// ---------------------------------------------------------------------------
// Workload: live_stream (AsyncEngine::TrySubmit, open loop + updates)
// ---------------------------------------------------------------------------

/// Replays the update stream and a sample of the reads one layer call at a
/// time: oracle label build, snapshot preparation, cache epoch, oracle
/// epoch, oracle checks and index builds through a cache on the snapshot
/// each read observed. Fills the live.* replay metrics.
void ReplayLive(const pe::Graph& base,
                const std::vector<pe::GraphDelta>& deltas,
                const std::vector<Observation>& obs,
                const pe::AsyncEngineOptions& ao, uint64_t limit, SpanLog& log,
                MetricSet& layer) {
  std::unique_ptr<pe::LiveDistanceOracle> oracle =
      Traced(log, "live.oracle.Build", 0, -1, [&] {
        return std::make_unique<pe::LiveDistanceOracle>(base, ao.oracle);
      });
  pe::SnapshotManager snaps(pe::Graph(base), ao.snapshot);
  pe::IndexCache cache(ao.cache);
  std::map<uint64_t, std::vector<Query>> reads;
  for (const Observation& o : obs) {
    std::vector<Query>& r = reads[o.version];
    if (r.size() < 8) r.push_back(o.q);
  }
  for (uint64_t v = 0;; ++v) {
    const std::shared_ptr<const pe::GraphView> view = snaps.Current();
    const pe::LiveDistanceOracle::EpochRef epoch = oracle->Current();
    pe::PathEnumerator enumerator(*view);
    for (const Query& q : reads[v]) {
      Traced(log, "live.oracle.Rejects", v, -1,
             [&] { return epoch.Rejects(q.source, q.target, q.hops); });
      pe::EnumOptions opts;
      opts.result_limit = limit;
      const pe::IndexBuilder::Options build_opts =
          pe::PathEnumerator::BuildOptionsFor(q, opts);
      cache.GetOrBuild(
          {q.source, q.target, q.hops, pe::IndexOptionsFingerprint(build_opts)},
          [&] { return enumerator.BuildIndex(q, build_opts); }, nullptr,
          view->version());
    }
    if (v == deltas.size()) break;
    const pe::GraphDelta& d = deltas[v];
    const pe::SnapshotManager::Epoch next = Traced(
        log, "live.snapshot.Prepare", v, -1, [&] { return snaps.Prepare(d); });
    Traced(log, "cache.BeginEpoch", v, -1, [&] {
      return cache.BeginEpoch(v + 1, [&](VertexId s, VertexId t, uint32_t k) {
        return next.impact.AffectsQuery(s, t, k);
      });
    });
    Traced(log, "live.oracle.PrepareEpoch", v, -1, [&] {
      oracle->PublishEpoch(
          oracle->PrepareEpoch(d, v + 1, *view, next.snapshot));
    });
    snaps.Publish(next);
  }
  const auto p50 = [&](const char* span) {
    return Median(log.DurationsMs(span));
  };
  layer["live.oracle_build_s"] = p50("live.oracle.Build") / 1e3;
  layer["live.oracle_check_us_p50"] = p50("live.oracle.Rejects") * 1e3;
  layer["live.prepare_ms_p50"] = p50("live.snapshot.Prepare");
  layer["live.cache_epoch_ms_p50"] = p50("cache.BeginEpoch");
  layer["live.oracle_epoch_ms_p50"] = p50("live.oracle.PrepareEpoch");
}

RunResult RunLiveStream(const Args& args) {
  // Two engine workers. The generator, the watcher and the updater sleep
  // most of the time, and the oracle re-labels on one background thread: at
  // most 4 busy threads on a 4-core host.
  constexpr uint32_t kWorkers = 2;
  constexpr double kRatePerS = 150.0;
  constexpr double kWarmupS = 1.0;
  // Every 8th update fills the oracle's insert budget (32 edges) and starts
  // a ~1.6 s background re-label; at one update per 400 ms that thread is
  // idle more than half the time instead of re-labelling back to back.
  constexpr double kUpdateEveryMs = 400.0;
  constexpr uint32_t kOpsPerUpdate = 8;
  constexpr uint32_t kFreshHops = 4, kHotHops = 3, kUnsatHops = 4;
  constexpr uint64_t kLimit = 256;
  constexpr double kHotShare = 0.15, kUnsatShare = 0.15;
  constexpr size_t kHotKeys = 8;
  // Host CPU steal alone has pushed the generator's own p99 lateness to
  // ~18 ms; beyond 50 ms the schedule itself is no longer being kept.
  constexpr double kLateAllowanceMs = 50.0;
  constexpr auto kNap = std::chrono::microseconds(100);

  RunResult res;
  SpanLog log(args.trace);
  SetupTimes setup;
  pe::AsyncEngineOptions ao;
  ao.num_workers = kWorkers;
  ao.enable_cache = true;
  ao.enable_oracle = true;
  const std::vector<long> threads_before = ThreadIds();
  std::unique_ptr<pe::AsyncEngine> engine = SetUp<pe::AsyncEngine>(
      args,
      [&](pe::Graph g) {
        return std::make_unique<pe::AsyncEngine>(std::move(g), ao);
      },
      &setup);
  // The engine's own threads (its workers): an open loop's tickets overlap,
  // so the run's CPU cost is what these threads use over the timed phase.
  // The generator, watcher and updater are the benchmark's, and a
  // background re-label runs on a thread started later; neither counts.
  const std::vector<long> serving = NewThreads(threads_before, ThreadIds());
  const pe::Graph base = [&] {
    pe::StatusOr<pe::Graph> g = pe::TryLoadBinary(args.graph_path);
    return std::move(g).value();
  }();

  // The arrival schedule: Poisson arrivals, each a fresh pair, one of a few
  // hot pairs whose whole result fits under the limit (result-cache hits),
  // or a pair with dist > k (oracle rejections).
  const double total_s = kWarmupS + args.seconds;
  pe::Rng rng(Mix64(args.seed ^ 0x11fe));
  struct Arrival {
    double at_ms;
    Query q;
  };
  std::vector<Arrival> arrivals;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / kRatePerS * 1e3;
    if (t >= total_s * 1e3) break;
    arrivals.push_back({t, {}});
  }
  std::vector<Query> fresh = DrawPairs(base, arrivals.size(), kFreshHops,
                                       Mix64(args.seed ^ 0xf4e5));
  std::vector<Query> hot;
  {
    std::vector<Query> c =
        DrawPairs(base, 256, kHotHops, Mix64(args.seed ^ 0x0407));
    pe::PathEnumerator e(base);
    for (const Query& q : c) {
      if (hot.size() == kHotKeys) break;
      pe::CountingSink s;
      pe::EnumOptions o;
      o.result_limit = kLimit;
      e.Run(q, s, o);
      if (s.count() > 0 && s.count() < kLimit) hot.push_back(q);
    }
  }
  std::vector<Query> unsat = DrawUnsatisfiable(
      base, arrivals.size() / 4 + 1, kUnsatHops, Mix64(args.seed ^ 0x0a5a));
  size_t next_fresh = 0, next_unsat = 0;
  for (Arrival& a : arrivals) {
    const double u = rng.NextDouble();
    if (u < kUnsatShare) {
      a.q = unsat[next_unsat++ % unsat.size()];
    } else if (u < kUnsatShare + kHotShare && !hot.empty()) {
      a.q = hot[rng.NextBounded(hot.size())];
    } else {
      a.q = fresh[next_fresh++ % fresh.size()];
    }
  }
  const auto n_updates = static_cast<size_t>(total_s * 1e3 / kUpdateEveryMs);
  const std::vector<pe::GraphDelta> deltas =
      MakeUpdates(base, n_updates, kOpsPerUpdate, Mix64(args.seed ^ 0x0d47));

  std::vector<std::unique_ptr<VerifySink>> sinks(arrivals.size());
  for (auto& s : sinks) {
    s = std::make_unique<VerifySink>();
    s->KeepPaths(kLimit, kFreshHops);
  }
  const pe::AsyncEngine::Stats stats0 = engine->stats();
  const uint64_t relabels0 = engine->oracle()->stats().relabels;

  EnterPhase("timed");
  // Updater: SubmitUpdate on its own fixed schedule beside the reads, and
  // the host ruler's ticks in between.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point timed_start =
      start + std::chrono::microseconds(static_cast<int64_t>(kWarmupS * 1e6));
  std::vector<double> update_ms;
  std::vector<uint64_t> update_versions;
  RulerClock ruler;
  size_t ruler_timed_from = SIZE_MAX;
  std::thread updater([&] {
    for (size_t i = 0; i < deltas.size(); ++i) {
      const Clock::time_point at =
          start + std::chrono::microseconds(static_cast<int64_t>(
                      (static_cast<double>(i) + 0.5) * kUpdateEveryMs * 1e3));
      for (;;) {
        const Clock::time_point tick =
            ruler.last + std::chrono::microseconds(
                             static_cast<int64_t>(kRulerEveryMs * 1e3));
        if (tick >= at) break;
        std::this_thread::sleep_until(tick);
        if (ruler_timed_from == SIZE_MAX && Clock::now() >= timed_start) {
          ruler_timed_from = ruler.ruler.ticks();
        }
        ruler.MaybeTick();
      }
      std::this_thread::sleep_until(at);
      const Clock::time_point t0 = Clock::now();
      update_versions.push_back(engine->SubmitUpdate(deltas[i]));
      const Clock::time_point t1 = Clock::now();
      log.Add("live.SubmitUpdate", t0, t1, 0);
      update_ms.push_back(Ms(t0, t1));
    }
  });
  struct Joiner {
    std::thread& t;
    ~Joiner() {
      if (t.joinable()) t.join();
    }
  } join_updater{updater};

  // Watcher: sweeps the outstanding tickets from its own thread, stamping
  // each with the time its own completion is observed. It naps between
  // sweeps so it does not hold a core the engine needs; every stamp's error
  // bound is kept and reported.
  CompletionWatcher<pe::QueryTicket> watcher;
  std::atomic<bool> sending{true};
  std::thread sweeper([&] {
    Clock::time_point give_up = Clock::time_point::max();
    for (;;) {
      watcher.Poll();
      if (!sending.load()) {
        if (watcher.outstanding() == 0) break;
        if (give_up == Clock::time_point::max()) {
          give_up = Clock::now() + std::chrono::seconds(60);
        } else if (Clock::now() > give_up) {
          break;  // the stragglers count as failed
        }
      }
      std::this_thread::sleep_for(kNap);
    }
  });
  Joiner join_sweeper{sweeper};

  // Generator: sends each arrival at its scheduled time with TrySubmit
  // (never the blocking Submit) and does nothing else.
  std::vector<size_t> watch_index(arrivals.size(), SIZE_MAX);
  std::vector<Clock::time_point> due(arrivals.size());
  std::vector<Clock::time_point> submitted(arrivals.size());
  std::vector<Clock::time_point> returned(arrivals.size());
  std::vector<double> submit_us;
  LatenessTracker late;
  std::vector<double> behind_ms;  // send time minus due time
  Clock::time_point last_return{};
  size_t depth_max = 0;
  double serving_cpu0 = -1.0;  // serving threads' CPU when timing starts
  pe::SubmitOptions so;
  so.query.result_limit = kLimit;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    due[i] = start + std::chrono::microseconds(
                         static_cast<int64_t>(arrivals[i].at_ms * 1e3));
    if (serving_cpu0 < 0 && arrivals[i].at_ms >= kWarmupS * 1e3) {
      serving_cpu0 = ThreadsCpuMs(serving);
    }
    std::this_thread::sleep_until(due[i]);
    const Clock::time_point t0 = Clock::now();
    // The generator's own lateness: from when it could send (the due time,
    // or the return of a previous submit that blocked past it) to when it
    // did. Time blocked inside TrySubmit is the system's, and already
    // counts in the latency of every request timed from its due time.
    late.Record(Ms(std::max(due[i], last_return), t0));
    behind_ms.push_back(Ms(due[i], t0));
    pe::QueryTicket ticket = engine->TrySubmit(arrivals[i].q, *sinks[i], so);
    const Clock::time_point t1 = Clock::now();
    last_return = t1;
    submitted[i] = t0;
    returned[i] = t1;
    submit_us.push_back(Ms(t0, t1) * 1e3);
    if (ticket.valid()) watch_index[i] = watcher.Add(std::move(ticket), t0);
    if (args.trace) {
      depth_max = std::max(depth_max, engine->stats().queue_depth);
    }
  }
  sending.store(false);
  sweeper.join();
  updater.join();
  const double serving_cpu_ms =
      serving_cpu0 < 0 ? 0.0 : ThreadsCpuMs(serving) - serving_cpu0;
  const double peak_rss = PeakRssMb();
  EnterPhase("check");

  LoopStats loop;
  loop.cpu_ms_total = serving_cpu_ms;
  loop.ruler_ms = ruler.ruler.MedianMs(
      ruler_timed_from == SIZE_MAX ? 0 : ruler_timed_from);
  std::vector<Observation> obs;
  std::vector<double> queue_wait, exec, gap, stamp_error_ms;
  const double warmup_ms = kWarmupS * 1e3;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const bool timed = arrivals[i].at_ms >= warmup_ms;
    if (watch_index[i] == SIZE_MAX) {  // refused at admission
      if (timed) loop.failures.Add(false);
      continue;
    }
    const pe::QueryTicket& t = watcher.handle(watch_index[i]);
    const auto done_at = watcher.completed_at(watch_index[i]);
    if (!done_at) {
      if (timed) loop.failures.Add(false);
      continue;
    }
    obs.push_back({arrivals[i].q, kLimit, t.snapshot_version(), t.state(),
                   sinks[i].get()});
    if (!timed) continue;
    loop.failures.Add(Served(t.state()));
    loop.response_ms.push_back(Ms(due[i], sinks[i]->ResponseAt(*done_at)));
    const int64_t root = log.Add("request", due[i], *done_at, i + 1);
    log.Add("live.TrySubmit", submitted[i], returned[i], i + 1, root);
    const pe::obs::QuerySpanData span = t.span();
    const double qw = span.StageMs(pe::obs::SpanStage::kQueueWait);
    queue_wait.push_back(qw);
    exec.push_back(span.total_ms - qw);
    // An open loop's completions per second are its arrival rate, fixed by
    // the schedule; its cost is the serving threads' CPU (cpu_ms_total).
    loop.requests.push_back(
        {Ms(due[i], *done_at), 0.0, 1, sinks[i]->count()});
    gap.push_back(Ms(submitted[i], *done_at) - span.total_ms);
    stamp_error_ms.push_back(std::chrono::duration<double, std::milli>(
                                 watcher.stamp_error(watch_index[i]))
                                 .count());
  }
  std::string tail_fact;
  FillEndToEnd(loop, setup, peak_rss, res, &tail_fact);
  res.attempted = loop.failures.attempted;
  res.failed = loop.failures.failed;
  res.valid = late.Within(kLateAllowanceMs);
  res.check = CheckAll(base, deltas, obs);
  // The check rebuilds version v from the first v deltas: updates must
  // have published versions 1, 2, ... in order.
  for (size_t i = 0; i < update_versions.size(); ++i) {
    if (update_versions[i] != i + 1) {
      std::fprintf(stderr, "serve_bench: update %zu published version %llu\n",
                   i, static_cast<unsigned long long>(update_versions[i]));
      ++res.check.mismatches;
    }
  }

  if (args.trace) {
    MetricSet& L = res.layer;
    const pe::AsyncEngine::Stats s1 = engine->stats();
    const auto updates = static_cast<double>(s1.updates - stats0.updates);
    const pe::IndexCacheStats c = s1.cache - stats0.cache;
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    const double q = d(obs.size());
    FillCacheMetrics(c, q, L);
    L["engine.batched_share"] =
        Ratio(d(s1.batched_builds - stats0.batched_builds), q);
    L["core.index.fusion_ratio"] =
        Ratio(d(s1.batched_solo_edges - stats0.batched_solo_edges),
              d(s1.batched_edges_scanned - stats0.batched_edges_scanned));
    L["live.submit_us_p50"] = Median(submit_us);
    L["live.submit_us_p99"] = Percentile(submit_us, 99);
    L["live.queue_wait_ms_p50"] = Median(queue_wait);
    L["live.queue_wait_ms_p99"] = Percentile(queue_wait, 99);
    L["live.exec_ms_p50"] = Median(exec);
    L["live.span_gap_ms_p50"] = Median(gap);
    L["live.queue_depth_max"] = d(depth_max);
    L["live.oracle_reject_rate"] =
        Ratio(d(res.check.oracle_rejected), d(res.check.truly_unsatisfiable));
    L["live.oracle_relabels"] =
        d(engine->oracle()->stats().relabels - relabels0);
    L["live.update_ms_p50"] = Median(update_ms);
    L["live.invalidations_per_update"] =
        Ratio(d(c.invalidation_evictions), updates);
    L["live.compactions_per_100_updates"] =
        100.0 * Ratio(d(s1.compactions - stats0.compactions), updates);
    L["gen.late_ms_p99"] = late.P99();

    ReplayLive(base, deltas, obs, ao, kLimit, log, L);
    std::vector<Query> fresh_measured;
    for (const Observation& o : obs) {
      if (o.q.hops == kFreshHops && o.state != QueryState::kUnsatisfiable) {
        fresh_measured.push_back(o.q);
      }
    }
    ReplayCore(base, Sample(fresh_measured, 300), kLimit, log, L);
  }
  char facts[1024];
  std::snprintf(
      facts, sizeof(facts),
      "{\"front_end\":\"AsyncEngine::TrySubmit + SubmitUpdate\",\"loop\":"
      "\"open, Poisson %.0f/s, %.0f s warm-up excluded\",\"engine_workers\":"
      "%u,\"generator_threads\":1,\"watcher_threads\":1,"
      "\"updater_threads\":1,\"cpu_timed_threads\":%zu,\"mix\":{"
      "\"fresh\":%.2f,\"hot\":%.2f,\"unsatisfiable\":%.2f},\"hot_keys\":%zu,"
      "\"result_limit\":%llu,\"update_every_ms\":%.0f,\"ops_per_update\":%u,"
      "\"updates\":%zu,\"oracle_relabels\":%llu,\"late_ms_p99\":%.4f,"
      "\"late_allowance_ms\":%.1f,\"behind_schedule_ms_p99\":%.4f,"
      "\"stamp_error_ms_p50\":%.4f,\"stamp_error_ms_p99\":%.4f,%s}",
      kRatePerS, kWarmupS, kWorkers, serving.size(),
      1 - kHotShare - kUnsatShare, kHotShare, kUnsatShare, hot.size(),
      static_cast<unsigned long long>(kLimit),
      kUpdateEveryMs, kOpsPerUpdate, update_ms.size(),
      static_cast<unsigned long long>(engine->oracle()->stats().relabels -
                                      relabels0),
      late.P99(), kLateAllowanceMs, Percentile(behind_ms, 99),
      Median(stamp_error_ms), Percentile(stamp_error_ms, 99),
      tail_fact.c_str());
  res.facts = facts;
  if (args.trace && !args.spans_path.empty()) log.Write(args.spans_path);
  EnterPhase("teardown");
  engine.reset();
  return res;
}

// ---------------------------------------------------------------------------
// Workload: sharded (ShardRouter::Run, closed loop + router updates)
// ---------------------------------------------------------------------------

struct RouterStack {
  pe::Graph graph;
  std::unique_ptr<pe::ShardRouter> router;

  // InProcessTransport::Stop notifies its service threads without holding
  // their mutex, so a thread caught between its queue check and its wait
  // misses the wake-up and the router's destructor never returns (facts.json,
  // known_defects). A router is therefore destroyed only after its service
  // threads have had time to park; teardown is outside every measurement.
  RouterStack() = default;
  RouterStack(const RouterStack&) = delete;
  RouterStack& operator=(const RouterStack&) = delete;
  ~RouterStack() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    router.reset();
  }
};

RunResult RunSharded(const Args& args) {
  constexpr uint32_t kShards = 2;
  constexpr uint32_t kShardWorkers = 1;  // per shard engine
  constexpr uint32_t kHops = 4;
  constexpr uint64_t kLimit = 100;
  constexpr size_t kUpdateEvery = 25;  // queries between router updates
  constexpr uint32_t kOpsPerUpdate = 8;
  constexpr uint64_t kRssAfter = 1200;  // a 20 s run serves about 2,800

  RunResult res;
  SpanLog log(args.trace);
  pe::RouterOptions ro;
  ro.partition.num_shards = kShards;
  ro.shard.engine.num_workers = kShardWorkers;
  SetupTimes setup;
  std::unique_ptr<RouterStack> stack = SetUp<RouterStack>(
      args,
      [&](pe::Graph g) {
        auto s = std::make_unique<RouterStack>();
        s->graph = std::move(g);
        s->router = std::make_unique<pe::ShardRouter>(s->graph, ro);
        return s;
      },
      &setup);
  pe::ShardRouter& router = *stack->router;
  const pe::Graph& base = stack->graph;

  const auto pool = static_cast<size_t>(args.seconds * 300 + 500);
  const std::vector<Query> queries =
      DrawPairs(base, pool, kHops, Mix64(args.seed ^ 0x5a4d));
  const std::vector<pe::GraphDelta> deltas = MakeUpdates(
      base, pool / kUpdateEvery + 1, kOpsPerUpdate, Mix64(args.seed ^ 0xd31a));
  std::vector<std::unique_ptr<VerifySink>> sinks(queries.size());
  for (auto& s : sinks) {
    s = std::make_unique<VerifySink>();
    s->KeepPaths(kLimit, kHops);
  }

  LoopStats loop;
  RulerClock ruler;
  size_t ruler_timed_from = 0;
  double peak_rss = -1.0;  // read once kRssAfter timed queries are served
  std::vector<Observation> obs;
  std::vector<double> update_ms, delegated_ms, stitched_ms;
  uint64_t version = 0;
  size_t next = 0;
  bool exhausted = false;
  pe::EnumOptions opts;
  opts.result_limit = kLimit;
  pe::ShardRouter::Stats stats0{};
  std::pair<uint64_t, double> plan0{}, merge0{};
  const auto run_phase = [&](double seconds, bool timed) {
    const Clock::time_point phase_start = Clock::now();
    while (Ms(phase_start, Clock::now()) < seconds * 1e3) {
      if (next == queries.size()) {
        exhausted = true;
        break;
      }
      if (next > 0 && next % kUpdateEvery == 0 && version < deltas.size()) {
        const Clock::time_point t0 = Clock::now();
        const pe::Status st = router.SubmitUpdate(deltas[version]);
        const Clock::time_point t1 = Clock::now();
        if (!st.ok()) {
          std::fprintf(stderr, "serve_bench: router update failed: %s\n",
                       st.message().c_str());
          std::exit(2);
        }
        ++version;
        if (timed) {
          update_ms.push_back(Ms(t0, t1));
          log.Add("shard.SubmitUpdate", t0, t1, 0);
        }
      }
      ruler.MaybeTick();  // between calls, while the router idles
      const size_t i = next++;
      const double cpu0 = ProcessCpuMs();
      const Clock::time_point t0 = Clock::now();
      const pe::RouterResult r = router.Run(queries[i], *sinks[i], opts);
      const Clock::time_point t1 = Clock::now();
      const double cpu1 = ProcessCpuMs();
      obs.push_back({queries[i], kLimit, version, r.state, sinks[i].get()});
      if (!timed) continue;
      const int64_t root = log.Add("request", t0, t1, i + 1);
      log.Add("shard.Router.Run", t0, t1, i + 1, root);
      const double lat = Ms(t0, t1);
      // One caller: the call's CPU is the process's (planning on the
      // caller, the shard engines' workers and the transport threads).
      loop.requests.push_back(
          {lat, (cpu1 - cpu0) * ruler.ruler.Scale(), 1, sinks[i]->count()});
      loop.response_ms.push_back(Ms(t0, sinks[i]->ResponseAt(t1)));
      loop.failures.Add(Served(r.state));
      if (peak_rss < 0 && loop.failures.attempted >= kRssAfter) {
        peak_rss = PeakRssMb();
      }
      (r.delegated ? delegated_ms : stitched_ms).push_back(lat);
    }
  };
  EnterPhase("warm-up");
  run_phase(0.5, /*timed=*/false);
  EnterPhase("timed");
  stats0 = router.stats();
  plan0 = RegistryHistogram("pathenum_router_plan_ms");
  merge0 = RegistryHistogram("pathenum_router_stitch_merge_ms");
  ruler_timed_from = ruler.ruler.ticks();
  run_phase(args.seconds, /*timed=*/true);
  if (peak_rss < 0) {
    std::printf("# warning: peak RSS read at the end, after %llu queries\n",
                static_cast<unsigned long long>(loop.failures.attempted));
    peak_rss = PeakRssMb();
  }
  if (exhausted) {
    std::printf("# warning: query pool exhausted before %.0f s\n",
                args.seconds);
  }
  EnterPhase("check");
  loop.ruler_ms = ruler.ruler.MedianMs(ruler_timed_from);
  std::string tail_fact;
  FillEndToEnd(loop, setup, peak_rss, res, &tail_fact);
  res.attempted = loop.failures.attempted;
  res.failed = loop.failures.failed;
  res.check = CheckAll(base, deltas, obs);

  if (args.trace) {
    MetricSet& L = res.layer;
    const pe::ShardRouter::Stats s1 = router.stats();
    const auto plan1 = RegistryHistogram("pathenum_router_plan_ms");
    const auto merge1 = RegistryHistogram("pathenum_router_stitch_merge_ms");
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    const double stitched = d(s1.stitched - stats0.stitched);
    L["shard.plan_ms_mean"] =
        Ratio(plan1.second - plan0.second, d(plan1.first - plan0.first));
    L["shard.stitch_merge_ms_mean"] =
        Ratio(merge1.second - merge0.second, d(merge1.first - merge0.first));
    L["shard.cut_edges"] = d(router.cut_size());
    L["shard.delegated_share"] = Ratio(d(s1.delegated - stats0.delegated),
                                       d(s1.queries - stats0.queries));
    L["shard.delegated_ms_p50"] = Median(delegated_ms);
    L["shard.stitched_ms_p50"] = Median(stitched_ms);
    L["shard.frames_per_stitched"] =
        Ratio(d(s1.frames_sent - stats0.frames_sent), stitched);
    L["shard.continuations_per_stitched"] =
        Ratio(d(s1.continuations_sent - stats0.continuations_sent), stitched);
    L["shard.update_ms_p50"] = Median(update_ms);
    Traced(log, "shard.GraphPartitioner.Partition", 0, -1, [&] {
      return pe::GraphPartitioner::Partition(base, ro.partition).num_shards();
    });
    L["shard.partition_s"] =
        Median(log.DurationsMs("shard.GraphPartitioner.Partition")) / 1e3;
    std::vector<Query> measured;
    for (const Observation& o : obs) measured.push_back(o.q);
    ReplayCore(base, Sample(measured, 300), kLimit, log, L);
  }
  char facts[1024];
  std::snprintf(facts, sizeof(facts),
                "{\"front_end\":\"ShardRouter::Run + SubmitUpdate\",\"loop\":"
                "\"closed, one caller\",\"shards\":%u,\"workers_per_shard\":"
                "%u,\"transport_threads\":%u,\"caller_threads\":1,\"hops\":%u,"
                "\"result_limit\":%llu,\"update_every_queries\":%zu,"
                "\"ops_per_update\":%u,\"updates\":%zu,%s}",
                kShards, kShardWorkers, kShards, kHops,
                static_cast<unsigned long long>(kLimit), kUpdateEvery,
                kOpsPerUpdate, update_ms.size(), tail_fact.c_str());
  res.facts = facts;
  if (args.trace && !args.spans_path.empty()) log.Write(args.spans_path);
  EnterPhase("teardown");
  stack.reset();
  return res;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

void PrintMetric(const std::string& name, const std::string& unit,
                 double value, bool first) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name.c_str(),
              std::isfinite(value) ? value : 0.0,
              unit.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: serve_bench [--make-graph] --workload "
               "cold_batch|heavy_enum|live_stream|sharded --seed N "
               "--graph FILE [--seconds S] [--trace 0|1] [--spans FILE]\n");
  return 2;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--make-graph") {
      args.make_graph = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) != "0";
    } else if (a == "--graph" && has_value) {
      args.graph_path = argv[++i];
    } else if (a == "--spans" && has_value) {
      args.spans_path = argv[++i];
    } else {
      return Usage();
    }
  }
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (args.workload == w.name) info = &w;
  }
  if (info == nullptr || args.graph_path.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  if (args.make_graph) {
    pe::SaveBinary(MakeGraph(info->dataset, info->scale, args.seed),
                   args.graph_path);
    return 0;
  }

  const Watchdog watchdog(std::chrono::seconds(150));
  RunResult r;
  if (args.workload == "cold_batch") {
    r = RunColdBatch(args);
  } else if (args.workload == "heavy_enum") {
    r = RunHeavyEnum(args);
  } else if (args.workload == "live_stream") {
    r = RunLiveStream(args);
  } else {
    r = RunSharded(args);
  }
  const bool correct = r.check.mismatches == 0 && r.check.checked > 0;
  std::printf("# workload %s seed %llu graph %s scale %.2f nproc %u\n",
              info->name, static_cast<unsigned long long>(args.seed),
              info->dataset, info->scale, std::thread::hardware_concurrency());
  std::printf("# facts %s\n", r.facts.c_str());
  std::printf("# check: %llu answers checked, %llu mismatches%s%s\n",
              static_cast<unsigned long long>(r.check.checked),
              static_cast<unsigned long long>(r.check.mismatches),
              r.check.first_mismatch.empty() ? "" : "; first: ",
              r.check.first_mismatch.c_str());
  for (const MetricDef& d : kEndToEndMetrics) {
    std::printf("# %s %.6g %s\n", d.name, Value(r.e2e, d.name), d.unit);
  }
  for (const char* wall : {"wall.latency_p50_ms", "wall.latency_tail_ms",
                           "wall.response_p50_ms", "wall.setup_s",
                           "host.ruler_ms", "engine.paths_per_cpu_s"}) {
    std::printf("# %s %.6g\n", wall, Value(r.layer, wall));
  }
  if (!r.valid) {
    std::fprintf(stderr,
                 "serve_bench: invalid run: the open-loop generator fell "
                 "behind its schedule (see late_ms_p99 in the facts)\n");
    return 3;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  if (args.trace) {
    for (const MetricDef& d : kLayerMetrics) {
      PrintMetric(d.name, d.unit, Value(r.layer, d.name), first);
      first = false;
    }
    for (const MetricDef& d : kEndToEndMetrics) {
      PrintMetric(std::string("traced.") + d.name, d.unit, Value(r.e2e, d.name),
                  false);
    }
  } else {
    for (const MetricDef& d : kEndToEndMetrics) {
      PrintMetric(d.name, d.unit, Value(r.e2e, d.name), first);
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
