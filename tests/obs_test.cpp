// Tests for the observability layer (DESIGN.md §12): sharded counters and
// histograms under real concurrency, registry exposition, query-span stage
// accounting end to end through the AsyncEngine, and the Chrome
// trace-event export (validated with a minimal JSON reader).
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/index.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "live/async_engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace pathenum {
namespace {

// ---------------------------------------------------------------------------
// ShardedCounter / Histogram under concurrency
// ---------------------------------------------------------------------------

TEST(ShardedCounterTest, ConcurrentIncrementsAreExact) {
  obs::ShardedCounter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPer = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPer; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPer);
}

TEST(ShardedCounterTest, WeightedIncrements) {
  obs::ShardedCounter c;
  c.Inc(5);
  c.Inc(0);
  c.Inc(37);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(HistogramTest, ConcurrentObservationsMergeExactly) {
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPer = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kPer; ++i) {
        // 1us .. 100us: all observations land in buckets 1..7.
        h.Observe(0.001 * static_cast<double>(i % 100 + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, kThreads * kPer);
  uint64_t bucket_sum = 0;
  for (const uint64_t b : s.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, s.count);
  EXPECT_GT(s.sum_ms, 0.0);
  EXPECT_LE(s.Quantile(0.5), s.Quantile(0.99));
  // 100us falls in the bucket with upper edge 128us = 2^7us.
  EXPECT_LE(s.Quantile(1.0), obs::Histogram::BucketUpperMs(7));
}

TEST(HistogramTest, BucketEdges) {
  obs::Histogram h;
  h.Observe(0.0);        // < 1us -> bucket 0
  h.Observe(0.0005);     // 0.5us -> bucket 0
  h.Observe(1.0);        // 1000us -> bucket 10 (1024us edge)
  const obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[10], 1u);
}

// ---------------------------------------------------------------------------
// MetricRegistry exposition
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, BorrowedCountersAndGaugesDumpAndUnregister) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::ShardedCounter c;
  c.Inc(7);
  int owner = 0;
  reg.RegisterCounter(&owner, "pathenum_test_borrowed_total",
                      "case=\"dump\"", &c);
  reg.RegisterGauge(&owner, "pathenum_test_gauge", "case=\"dump\"",
                    [] { return 3.0; });
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("pathenum_test_borrowed_total{case=\"dump\"} 7"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pathenum_test_gauge{case=\"dump\"} 3"),
            std::string::npos)
      << text;
  reg.UnregisterOwner(&owner);
  EXPECT_EQ(reg.DumpText().find("pathenum_test_borrowed_total"),
            std::string::npos);
}

TEST(MetricRegistryTest, OwnedHistogramDumpsPrometheusTriplets) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::RegHistogram* h =
      reg.GetHistogram("pathenum_test_ms", "case=\"triplet\"");
  h->Observe(0.5);
  h->Observe(2.0);
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("pathenum_test_ms_bucket{case=\"triplet\",le=\"+Inf\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pathenum_test_ms_sum{case=\"triplet\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pathenum_test_ms_count{case=\"triplet\"} 2"),
            std::string::npos);
  // The JSON exposition carries the same histogram.
  const std::string json = obs::DumpMetricsJson();
  EXPECT_NE(json.find("\"pathenum_test_ms{case=\\\"triplet\\\"}\""),
            std::string::npos)
      << json;
}

TEST(MetricRegistryTest, GetCounterIsStablePerKey) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::RegCounter* a = reg.GetCounter("pathenum_test_stable_total");
  obs::RegCounter* b = reg.GetCounter("pathenum_test_stable_total");
  EXPECT_EQ(a, b);
  a->Inc();
  EXPECT_EQ(b->Value(), obs::kEnabled ? 1u : 0u);
}

// ---------------------------------------------------------------------------
// QuerySpan stage accounting
// ---------------------------------------------------------------------------

TEST(QuerySpanTest, SegmentsAreContiguousAndSumToTotal) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::QuerySpan span;
  span.Begin(1, 2, 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  span.Mark(obs::SpanStage::kIndexAcquire);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  span.Mark(obs::SpanStage::kEnumerate);
  span.Finish(QueryState::kOk);
  const obs::QuerySpanData& d = span.data();
  EXPECT_EQ(d.source, 1u);
  EXPECT_EQ(d.state, QueryState::kOk);
  ASSERT_GE(d.num_segments, 3u);  // index_acquire, enumerate, sink_complete
  EXPECT_GT(d.StageMs(obs::SpanStage::kIndexAcquire), 0.0);
  EXPECT_GT(d.StageMs(obs::SpanStage::kEnumerate), 0.0);
  // Contiguous segments: the stage sum IS the wall total.
  EXPECT_NEAR(d.SegmentSumMs(), d.total_ms, 0.05 * d.total_ms + 1e-6);
}

TEST(QuerySpanTest, OverflowFoldsIntoLastSegment) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::QuerySpan span;
  span.Begin(0, 1, 2);
  for (uint32_t i = 0; i < 3 * obs::QuerySpanData::kMaxSegments; ++i) {
    span.Mark(obs::SpanStage::kEnumerate);
  }
  span.Finish(QueryState::kOk);
  const obs::QuerySpanData& d = span.data();
  EXPECT_LE(d.num_segments, obs::QuerySpanData::kMaxSegments);
  EXPECT_NEAR(d.SegmentSumMs(), d.total_ms, 0.05 * d.total_ms + 1e-6);
}

// An AsyncEngine query's span must lie inside the interval the caller
// observes, read on the recorder clock: it begins on the first line of
// admission and finishes before the waiter is woken. The rest of the
// caller's wall time is the waiter's wake-up latency, which the OS scheduler
// sets, so it is only printed, never bounded.
TEST(QuerySpanTest, AsyncEngineSpanMatchesMeasuredWall) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  obs::TraceRecorder::SetSampleEvery(1);  // admit_ts_us is stamped if sampled
  AsyncEngineOptions opts;
  opts.num_workers = 2;
  AsyncEngine engine(LayeredGraph(7, 6), opts);  // 6^7 = 279936 paths
  CountingSink sink;
  const uint64_t before_us = rec.NowUs();
  QueryTicket ticket =
      engine.Submit({0, static_cast<VertexId>(7 * 6 + 1), 8}, sink);
  const QueryStats& stats = ticket.Wait();
  const uint64_t after_us = rec.NowUs();
  obs::TraceRecorder::SetSampleEvery(0);
  ASSERT_TRUE(ticket.ok()) << ticket.error();
  EXPECT_GT(stats.counters.num_results, 0u);

  const obs::QuerySpanData span = ticket.span();
  ASSERT_TRUE(span.sampled);
  EXPECT_EQ(span.state, QueryState::kOk);
  EXPECT_GT(span.num_segments, 0u);
  EXPECT_GT(span.StageMs(obs::SpanStage::kEnumerate), 0.0);
  // Stage segments tile the span exactly (contiguity).
  EXPECT_NEAR(span.SegmentSumMs(), span.total_ms, 1e-9);
  // Containment: Submit called <= admit, and admit + span <= Wait returned,
  // allowing 1 us for the recorder clock's whole-microsecond rounding.
  const double span_us = span.total_ms * 1e3;
  EXPECT_LE(before_us, span.admit_ts_us);
  EXPECT_LE(static_cast<double>(span.admit_ts_us) + span_us,
            static_cast<double>(after_us) + 1.0);
  const uint64_t wall_us = after_us - before_us;
  std::printf("span %.1f us of a %llu us Submit..Wait wall: %.1f us "
              "unattributed\n",
              span_us, static_cast<unsigned long long>(wall_us),
              static_cast<double>(wall_us) - span_us);
}

// The span explains the plan (DESIGN.md §3, §12): the method that ran,
// Eq. 5's estimate and both prices as kAuto compares them — for a serial
// query, a split query and a result-cache replay, which reports the cached
// method. Every finished span that ran a method counts once in
// pathenum_query_method_total.
TEST(QuerySpanTest, SpanCarriesThePlanThatRan) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const auto ran = [&reg](Method method) {
    std::string label = "method=\"";
    label += MethodName(method);
    label += '"';
    return reg.GetCounter("pathenum_query_method_total", label)->Value();
  };

  AsyncEngineOptions opts;
  opts.num_workers = 2;
  AsyncEngine engine(LayeredGraph(4, 5), opts);  // 5^4 = 625 paths
  const Query q{0, 4 * 5 + 1, 5};
  EnumOptions priced;
  priced.tau = 0.0;  // always run the optimizer, so both prices exist
  const auto run = [&](const SubmitOptions& submit) {
    CountingSink sink;
    QueryTicket ticket = engine.Submit(q, sink, submit);
    const QueryStats stats = ticket.Wait();
    EXPECT_TRUE(ticket.ok()) << ticket.error();
    EXPECT_EQ(sink.count(), 625u);
    return std::make_pair(stats, ticket.span());
  };

  // The key's first miss is not recorded; the serial run below is its
  // second, which records the replayed set.
  run(SubmitOptions{.query = priced});
  const uint64_t dfs_before = ran(Method::kDfs);
  const uint64_t join_before = ran(Method::kJoin);

  const auto [serial, serial_span] = run(SubmitOptions{.query = priced});
  ASSERT_EQ(engine.stats().cache.result_inserts, 1u);
  EXPECT_FALSE(serial_span.result_cache_hit);
  EXPECT_FALSE(serial_span.split);
  EXPECT_EQ(serial_span.method, serial.method);
  EXPECT_GT(serial_span.estimate, 0.0);
  EXPECT_DOUBLE_EQ(serial_span.estimate, serial.preliminary_estimate);
  EXPECT_GT(serial_span.dfs_price, 0.0);
  EXPECT_GT(serial_span.join_price, 0.0);
  EXPECT_DOUBLE_EQ(serial_span.dfs_price, serial.t_dfs_cost);
  EXPECT_DOUBLE_EQ(serial_span.join_price,
                   kJoinTupleCost * serial.t_join_cost);
  EXPECT_EQ(serial_span.method == Method::kJoin,
            serial_span.join_price < serial_span.dfs_price);

  const auto [replay, replay_span] = run(SubmitOptions{.query = priced});
  EXPECT_TRUE(replay_span.result_cache_hit);
  EXPECT_EQ(replay_span.method, serial.method);
  EXPECT_EQ(replay.method, serial.method);
  EXPECT_DOUBLE_EQ(replay_span.dfs_price, 0.0);  // nothing was planned
  EXPECT_DOUBLE_EQ(replay_span.join_price, 0.0);

  const auto [split, split_span] =
      run(SubmitOptions{.query = priced, .split_branches = true});
  EXPECT_TRUE(split_span.split);
  EXPECT_EQ(split.method, serial.method);  // plans like the serial path
  EXPECT_EQ(split_span.method, split.method);
  EXPECT_DOUBLE_EQ(split_span.estimate, serial.preliminary_estimate);
  EXPECT_DOUBLE_EQ(split_span.dfs_price, serial_span.dfs_price);
  EXPECT_DOUBLE_EQ(split_span.join_price, serial_span.join_price);

  EnumOptions join;
  join.method = Method::kJoin;
  const auto [forced, forced_span] =
      run(SubmitOptions{.query = join, .split_branches = true});
  EXPECT_EQ(forced_span.method, Method::kJoin);
  // Forced IDX-JOIN runs Alg. 5 for its cut, so the span still shows what
  // kAuto would have compared.
  EXPECT_DOUBLE_EQ(forced_span.dfs_price, serial_span.dfs_price);
  EXPECT_DOUBLE_EQ(forced_span.join_price, serial_span.join_price);

  // Four finished spans ran a method: three the planned one, one IDX-JOIN.
  const bool serial_joined = serial.method == Method::kJoin;
  EXPECT_EQ(ran(Method::kDfs) - dfs_before, serial_joined ? 0u : 3u);
  EXPECT_EQ(ran(Method::kJoin) - join_before, serial_joined ? 4u : 1u);
}

// The span carries the enumeration work (ROADMAP item 1(c)): the paths the
// sink received and the index edges examined, for a serial query, a
// result-cache replay (nothing examined) and a split query (the serial
// counts, plus the blocks its participants deferred).
TEST(QuerySpanTest, SpanRecordsTheEnumerationWork) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  AsyncEngineOptions opts;
  opts.num_workers = 4;
  AsyncEngine engine(LayeredGraph(4, 6), opts);  // 6^4 = 1296 paths
  const Query q{0, 4 * 6 + 1, 5};
  const auto run = [&](const SubmitOptions& submit) {
    CountingSink sink;
    QueryTicket ticket = engine.Submit(q, sink, submit);
    const QueryStats stats = ticket.Wait();
    EXPECT_TRUE(ticket.ok()) << ticket.error();
    EXPECT_EQ(sink.count(), 1296u);
    const obs::QuerySpanData span = ticket.span();
    EXPECT_EQ(span.results, sink.count());
    EXPECT_EQ(span.edges_accessed, stats.counters.edges_accessed);
    EXPECT_EQ(span.deferred_blocks, stats.counters.deferred_blocks);
    return span;
  };

  run({});  // the key's first miss: not recorded
  const obs::QuerySpanData serial = run({});
  ASSERT_EQ(engine.stats().cache.result_inserts, 1u);
  EXPECT_FALSE(serial.result_cache_hit);
  EXPECT_GT(serial.edges_accessed, 0u);
  EXPECT_EQ(serial.deferred_blocks, 0u) << "a serial run defers nothing";

  const obs::QuerySpanData replay = run({});
  EXPECT_TRUE(replay.result_cache_hit);
  EXPECT_EQ(replay.edges_accessed, 0u) << "a replay examines no index edge";
  EXPECT_EQ(replay.deferred_blocks, 0u);

  SubmitOptions split_submit;
  split_submit.split_branches = true;
  const obs::QuerySpanData split = run(split_submit);
  EXPECT_TRUE(split.split);
  EXPECT_EQ(split.edges_accessed, serial.edges_accessed)
      << "the fan-out examines what the serial IDX-DFS does";
}

// A RunBatch caller reads each query's span from BatchResult::spans, as an
// AsyncEngine caller reads it from its ticket: for a serial query, a
// result-cache replay and a split query. A duplicate carries its
// representative's span, and a query rejected at admission its own
// zero-width span.
TEST(QuerySpanTest, BatchResultCarriesEachQuerySpan) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  const Graph g = LayeredGraph(4, 6);  // 6^4 = 1296 paths
  QueryEngine engine(g, {.num_workers = 4, .enable_cache = true});
  const Query q{0, 4 * 6 + 1, 5};
  const Query invalid{0, g.num_vertices(), 5};
  const std::vector<Query> queries = {q, q, invalid};
  const auto run = [&](const BatchOptions& opts) {
    std::vector<CountingSink> sinks(queries.size());
    std::vector<PathSink*> ptrs;
    for (CountingSink& sink : sinks) ptrs.push_back(&sink);
    const BatchResult r = engine.RunBatch(queries, ptrs, opts);
    EXPECT_EQ(r.spans.size(), queries.size());
    EXPECT_EQ(sinks[0].count(), 1296u);

    const obs::QuerySpanData& span = r.spans[0];
    EXPECT_EQ(span.state, QueryState::kOk);
    EXPECT_EQ(span.source, q.source);
    EXPECT_EQ(span.target, q.target);
    EXPECT_EQ(span.method, r.stats[0].method);
    EXPECT_EQ(span.results, sinks[0].count());
    EXPECT_EQ(span.edges_accessed, r.stats[0].counters.edges_accessed);
    EXPECT_EQ(span.deferred_blocks, r.stats[0].counters.deferred_blocks);
    EXPECT_EQ(span.result_cache_hit, r.stats[0].result_cache_hit);
    EXPECT_EQ(r.spans[1].id, span.id)
        << "a duplicate carries its representative's span";

    const obs::QuerySpanData& rejected = r.spans[2];
    EXPECT_EQ(r.states[2], QueryState::kRejected);
    EXPECT_EQ(rejected.state, QueryState::kRejected);
    EXPECT_NE(rejected.id, span.id);
    EXPECT_EQ(rejected.target, invalid.target);
    EXPECT_EQ(rejected.method, Method::kAuto) << "nothing ran";
    EXPECT_EQ(rejected.results, 0u);
    EXPECT_DOUBLE_EQ(rejected.StageMs(obs::SpanStage::kIndexAcquire), 0.0);
    EXPECT_DOUBLE_EQ(rejected.StageMs(obs::SpanStage::kEnumerate), 0.0);
    return span;
  };

  run({});  // the key's first miss: not recorded
  const obs::QuerySpanData serial = run({});
  ASSERT_EQ(engine.cache()->Stats().result_inserts, 1u);
  EXPECT_FALSE(serial.result_cache_hit);
  EXPECT_FALSE(serial.split);
  EXPECT_GT(serial.edges_accessed, 0u);
  EXPECT_EQ(serial.deferred_blocks, 0u);

  const obs::QuerySpanData replay = run({});
  EXPECT_TRUE(replay.result_cache_hit);
  EXPECT_EQ(replay.method, serial.method);
  EXPECT_EQ(replay.edges_accessed, 0u) << "a replay examines no index edge";

  BatchOptions split_opts;
  split_opts.split_branches = true;
  const obs::QuerySpanData split = run(split_opts);
  EXPECT_TRUE(split.split);
  EXPECT_TRUE(split.index_cache_hit);
  EXPECT_EQ(split.edges_accessed, serial.edges_accessed)
      << "the fan-out examines what the serial IDX-DFS does";
}

// Every meet-in-the-middle build counts its X-only levels by direction in
// pathenum_build_levels_total (DESIGN.md §1, §12), as its stats report
// them.
TEST(BuildMetricsTest, LevelDirectionsMatchTheBuildStats) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const auto levels = [&reg](const std::string& direction) {
    return reg
        .GetCounter("pathenum_build_levels_total",
                    "direction=\"" + direction + '"')
        ->Value();
  };
  const uint64_t bottom_up_before = levels("bottom_up");
  const uint64_t top_down_before = levels("top_down");

  const Graph g = RMat(/*scale=*/7, /*num_edges=*/1200, /*seed=*/75);
  IndexBuilder builder;
  uint64_t bottom_up = 0, top_down = 0;
  for (VertexId s = 0; s < 16; ++s) {
    for (uint32_t k = 3; k <= 5; ++k) {
      const VertexId t = (s * 37 + 5) % g.num_vertices();
      const LightweightIndex idx = builder.Build(g, {s, t, k});
      const LightweightIndex::BuildStats& bs = idx.build_stats();
      bottom_up += bs.bottom_up_levels;
      top_down += bs.x_only_levels - bs.bottom_up_levels;
    }
  }
  EXPECT_GT(bottom_up, 0u);
  EXPECT_EQ(levels("bottom_up") - bottom_up_before, bottom_up);
  EXPECT_EQ(levels("top_down") - top_down_before, top_down);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

// A deliberately tiny JSON reader — just enough structure to prove the
// export is well-formed and to walk traceEvents. Throws-free: parse
// failures surface as nullopt and fail the test.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json* Get(const std::string& key) const {
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  std::optional<Json> Parse() {
    std::optional<Json> v = Value();
    Ws();
    if (!v.has_value() || pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void Ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    Ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Lit(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::optional<std::string> String() {
    if (!Eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return std::nullopt;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = esc; break;  // \" \\ \/ and friends
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) return std::nullopt;
    ++pos_;  // closing quote
    return out;
  }

  std::optional<Json> Value() {
    Ws();
    if (pos_ >= s_.size()) return std::nullopt;
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = Json::Kind::kObject;
      Ws();
      if (Eat('}')) return v;
      do {
        Ws();
        std::optional<std::string> key = String();
        if (!key.has_value() || !Eat(':')) return std::nullopt;
        std::optional<Json> member = Value();
        if (!member.has_value()) return std::nullopt;
        v.fields.emplace(std::move(*key), std::move(*member));
      } while (Eat(','));
      if (!Eat('}')) return std::nullopt;
      return v;
    }
    if (c == '[') {
      ++pos_;
      v.kind = Json::Kind::kArray;
      Ws();
      if (Eat(']')) return v;
      do {
        std::optional<Json> item = Value();
        if (!item.has_value()) return std::nullopt;
        v.items.push_back(std::move(*item));
      } while (Eat(','));
      if (!Eat(']')) return std::nullopt;
      return v;
    }
    if (c == '"') {
      std::optional<std::string> str = String();
      if (!str.has_value()) return std::nullopt;
      v.kind = Json::Kind::kString;
      v.str = std::move(*str);
      return v;
    }
    if (Lit("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (Lit("false")) {
      v.kind = Json::Kind::kBool;
      return v;
    }
    if (Lit("null")) return v;
    // Number.
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    v.kind = Json::Kind::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string s_;
  size_t pos_ = 0;
};

TEST(TraceExportTest, ChromeJsonParsesAndNestsStages) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  obs::TraceRecorder::SetSampleEvery(1);  // trace every query

  {
    AsyncEngineOptions opts;
    opts.num_workers = 2;
    AsyncEngine engine(GridGraph(4, 4), opts);
    CountingSink sinks[3];
    std::vector<QueryTicket> tickets;
    for (int i = 0; i < 3; ++i) {
      tickets.push_back(engine.Submit({0, 15, 6}, sinks[i]));
    }
    for (const QueryTicket& t : tickets) t.Wait();
  }
  obs::TraceRecorder::SetSampleEvery(0);

  const std::string json = rec.ExportChromeJson();
  std::optional<Json> root = JsonReader(json).Parse();
  ASSERT_TRUE(root.has_value()) << json;
  ASSERT_EQ(root->kind, Json::Kind::kObject);
  const Json* events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::Kind::kArray);
  ASSERT_GE(events->items.size(), 3u);

  // Index the enclosing "query" slices by qid, then check every stage
  // slice nests inside its query's [ts, ts+dur] window and that per query
  // the stage durations exactly cover [query ts, last stage end] — the
  // contiguous-tiling guarantee, checked order-insensitively because the
  // export's (ts asc, dur desc) sort may reorder zero-duration slices.
  struct Window {
    double ts = 0.0, end = 0.0;
    double stage_dur_sum = 0.0;
    double min_ts = 0.0, max_end = 0.0;
    size_t stages = 0;
  };
  std::map<uint64_t, Window> windows;
  for (const Json& e : events->items) {
    ASSERT_EQ(e.kind, Json::Kind::kObject);
    ASSERT_NE(e.Get("ph"), nullptr);
    EXPECT_EQ(e.Get("ph")->str, "X");
    ASSERT_NE(e.Get("cat"), nullptr);
    ASSERT_NE(e.Get("ts"), nullptr);
    ASSERT_NE(e.Get("dur"), nullptr);
    const Json* args = e.Get("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->Get("qid"), nullptr);
    if (e.Get("cat")->str != "query") continue;
    const uint64_t qid = static_cast<uint64_t>(args->Get("qid")->number);
    Window w;
    w.ts = e.Get("ts")->number;
    w.end = w.ts + e.Get("dur")->number;
    windows[qid] = w;
    // Query slices carry the terminal state and cache-outcome booleans.
    EXPECT_NE(args->Get("state"), nullptr);
    EXPECT_NE(args->Get("index_cache_hit"), nullptr);
  }
  EXPECT_EQ(windows.size(), 3u);

  for (const Json& e : events->items) {
    if (e.Get("cat")->str != "stage") continue;
    const uint64_t qid =
        static_cast<uint64_t>(e.Get("args")->Get("qid")->number);
    ASSERT_TRUE(windows.count(qid)) << "stage with no enclosing query";
    Window& w = windows[qid];
    const double ts = e.Get("ts")->number;
    const double end = ts + e.Get("dur")->number;
    EXPECT_GE(ts, w.ts) << "stage starts before its query slice";
    EXPECT_LE(end, w.end + 1e-9) << "stage escapes its query slice";
    if (w.stages == 0 || ts < w.min_ts) w.min_ts = ts;
    if (w.stages == 0 || end > w.max_end) w.max_end = end;
    w.stage_dur_sum += end - ts;
    ++w.stages;
  }
  for (const auto& [qid, w] : windows) {
    ASSERT_GE(w.stages, 1u) << "traced query " << qid << " has no stages";
    // Stages begin exactly at the query's admit timestamp and tile the
    // window gaplessly: their durations sum to the span they cover.
    EXPECT_DOUBLE_EQ(w.min_ts, w.ts);
    EXPECT_DOUBLE_EQ(w.stage_dur_sum, w.max_end - w.ts);
  }
  rec.Clear();
}

TEST(TraceExportTest, SplitBatchSpansCoverTheirWaitInTheBatch) {
  // A split batch has more queries than workers; each query's span must
  // begin at admission, so a member's wait behind the earlier split queries
  // is inside its span: every query slice starts before the first one ends,
  // and its stage slices still tile it. The queries are identical, so dedup
  // is off to keep three runs (and three spans).
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  obs::TraceRecorder::SetSampleEvery(1);  // trace every query
  {
    const Graph g = LayeredGraph(6, 6);  // 6^6 paths of 7 hops per query
    QueryEngine engine(g, {.num_workers = 2});
    const std::vector<Query> queries(3, Query{0, 6 * 6 + 1, 7});
    std::vector<CountingSink> sinks(queries.size());
    std::vector<PathSink*> ptrs;
    for (CountingSink& sink : sinks) ptrs.push_back(&sink);
    BatchOptions opts;
    opts.split_branches = true;
    opts.dedup_identical = false;
    const BatchResult result = engine.RunBatch(queries, ptrs, opts);
    ASSERT_TRUE(result.ok());
  }
  obs::TraceRecorder::SetSampleEvery(0);

  std::optional<Json> root = JsonReader(rec.ExportChromeJson()).Parse();
  ASSERT_TRUE(root.has_value());
  const Json* events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  struct Window {
    double ts = 0.0, end = 0.0;
    double stage_dur_sum = 0.0, min_ts = 0.0, max_end = 0.0;
    size_t stages = 0;
  };
  std::map<uint64_t, Window> windows;
  for (const Json& e : events->items) {
    if (e.Get("cat")->str != "query") continue;
    Window w;
    w.ts = e.Get("ts")->number;
    w.end = w.ts + e.Get("dur")->number;
    windows[static_cast<uint64_t>(e.Get("args")->Get("qid")->number)] = w;
  }
  ASSERT_EQ(windows.size(), 3u);
  for (const Json& e : events->items) {
    if (e.Get("cat")->str != "stage") continue;
    const uint64_t qid =
        static_cast<uint64_t>(e.Get("args")->Get("qid")->number);
    ASSERT_TRUE(windows.count(qid)) << "stage with no enclosing query";
    Window& w = windows[qid];
    const double ts = e.Get("ts")->number;
    const double end = ts + e.Get("dur")->number;
    if (w.stages == 0 || ts < w.min_ts) w.min_ts = ts;
    if (w.stages == 0 || end > w.max_end) w.max_end = end;
    w.stage_dur_sum += end - ts;
    ++w.stages;
  }
  double first_end = windows.begin()->second.end;
  for (const auto& [qid, w] : windows) first_end = std::min(first_end, w.end);
  for (const auto& [qid, w] : windows) {
    EXPECT_LT(w.ts, first_end)
        << "query " << qid << " began its span only when its turn came";
    ASSERT_GE(w.stages, 1u) << "traced query " << qid << " has no stages";
    EXPECT_DOUBLE_EQ(w.min_ts, w.ts);
    EXPECT_DOUBLE_EQ(w.stage_dur_sum, w.max_end - w.ts);
    // Each stage duration rounds to whole microseconds on its own.
    EXPECT_NEAR(w.max_end, w.end, static_cast<double>(w.stages));
  }
  rec.Clear();
}

TEST(TraceExportTest, UnsampledQueriesEmitNothing) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with PATHENUM_OBS=0";
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  obs::TraceRecorder::SetSampleEvery(0);  // sampling off (the default)
  {
    AsyncEngineOptions opts;
    opts.num_workers = 1;
    AsyncEngine engine(PathGraph(6), opts);
    CountingSink sink;
    engine.Submit({0, 5, 5}, sink).Wait();
  }
  std::optional<Json> root = JsonReader(rec.ExportChromeJson()).Parse();
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->Get("traceEvents")->items.empty());
}

}  // namespace
}  // namespace pathenum
