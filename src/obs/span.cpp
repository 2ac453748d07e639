#include "obs/span.h"

#include <atomic>

#include "core/estimator.h"
#include "obs/trace.h"

#if PATHENUM_OBS

namespace pathenum::obs {

namespace {

std::atomic<uint64_t> g_query_seq{0};

double DurMs(QuerySpan::Clock::time_point from, QuerySpan::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Registry-owned span metrics, resolved once: the per-stage latency
// histograms and the terminal-state and method counters every finished
// span feeds.
struct SpanMetrics {
  RegHistogram* total_ms;
  RegHistogram* stage_ms[static_cast<size_t>(SpanStage::kStageCount)];
  RegCounter* finished[kNumQueryStates];
  // Indexed by Method; kAuto's (no method ran) stays null.
  RegCounter* ran[3] = {};

  SpanMetrics() {
    MetricRegistry& reg = MetricRegistry::Global();
    total_ms = reg.GetHistogram("pathenum_query_total_ms");
    for (size_t s = 0; s < static_cast<size_t>(SpanStage::kStageCount); ++s) {
      std::string label = "stage=\"";
      label += SpanStageName(static_cast<SpanStage>(s));
      label += '"';
      stage_ms[s] = reg.GetHistogram("pathenum_query_stage_ms", label);
    }
    for (size_t st = 0; st < kNumQueryStates; ++st) {
      std::string label = "state=\"";
      label += QueryStateName(static_cast<QueryState>(st));
      label += '"';
      finished[st] = reg.GetCounter("pathenum_query_finished_total", label);
    }
    for (const Method method : {Method::kDfs, Method::kJoin}) {
      std::string label = "method=\"";
      label += MethodName(method);
      label += '"';
      ran[static_cast<size_t>(method)] =
          reg.GetCounter("pathenum_query_method_total", label);
    }
  }
};

SpanMetrics& Metrics() {
  static SpanMetrics* m = new SpanMetrics();  // leaked: process scope
  return *m;
}

}  // namespace

void QuerySpan::Begin(uint32_t source, uint32_t target, uint32_t hops) {
  data_ = QuerySpanData{};
  data_.id = g_query_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  data_.source = source;
  data_.target = target;
  data_.hops = hops;
  const uint32_t every = TraceRecorder::SampleEvery();
  data_.sampled = every > 0 && data_.id % every == 0;
  if (data_.sampled) data_.admit_ts_us = TraceRecorder::Global().NowUs();
  admit_ = Clock::now();
  last_ = admit_;
  active_ = true;
}

void QuerySpan::Mark(SpanStage stage) {
  if (!active_) return;
  const Clock::time_point now = Clock::now();
  const double ms = DurMs(last_, now);
  if (data_.num_segments < QuerySpanData::kMaxSegments) {
    data_.segments[data_.num_segments++] = {stage, ms};
  } else {
    // Overflow folds into the last segment: the label degrades, the
    // total stays exact.
    data_.segments[QuerySpanData::kMaxSegments - 1].ms += ms;
  }
  last_ = now;
}

void QuerySpan::SetPlan(const QueryStats& stats) {
  data_.method = stats.method;
  data_.estimate = stats.preliminary_estimate;
  data_.dfs_price = stats.t_dfs_cost;
  data_.join_price = kJoinTupleCost * stats.t_join_cost;
  data_.results = stats.counters.num_results;
  data_.edges_accessed = stats.counters.edges_accessed;
  data_.deferred_blocks = stats.counters.deferred_blocks;
}

void QuerySpan::Finish(QueryState state) {
  if (!active_) return;
  Mark(SpanStage::kSinkComplete);
  data_.state = state;
  data_.total_ms = DurMs(admit_, last_);
  active_ = false;

  SpanMetrics& m = Metrics();
  m.total_ms->Observe(data_.total_ms);
  for (size_t s = 0; s < static_cast<size_t>(SpanStage::kStageCount); ++s) {
    bool present = false;
    for (uint32_t i = 0; i < data_.num_segments; ++i) {
      if (data_.segments[i].stage == static_cast<SpanStage>(s)) {
        present = true;
        break;
      }
    }
    if (present) m.stage_ms[s]->Observe(data_.StageMs(static_cast<SpanStage>(s)));
  }
  const size_t st = static_cast<size_t>(state);
  if (st < kNumQueryStates) m.finished[st]->Inc();
  if (RegCounter* c = m.ran[static_cast<size_t>(data_.method)]) c->Inc();

  if (data_.sampled) TraceRecorder::Global().EmitSpan(data_);
}

}  // namespace pathenum::obs

#endif  // PATHENUM_OBS
