// Per-query lifecycle spans (DESIGN.md §12). A QuerySpan travels alongside
// QueryControl from admission to sink completion and records the query's
// time as a sequence of contiguous stage segments:
//
//   admit → [queue_wait] → [index_acquire] → [enumerate] → [merge]
//         → [sink_complete] → Finish(terminal state)
//
// Mark(stage) closes the segment that started at the previous mark (or at
// Begin) and attributes it to `stage`; Finish() closes the trailing
// segment as kSinkComplete. Segments are contiguous by construction, so
// the per-stage durations always sum to the span's wall time — stage
// attribution can be wrong only in *label*, never in *total*. Stages may
// repeat and may be absent (a shed query has only queue_wait).
//
// On Finish the span feeds the per-stage latency histograms and terminal
// state counters in the global MetricRegistry, and — for the sampled
// subset (see TraceRecorder::SampleEvery) — emits Chrome trace events.
// Everything here is fixed-size and allocation-free; under PATHENUM_OBS=0
// QuerySpan is an empty no-op and only the QuerySpanData POD remains.
#ifndef PATHENUM_OBS_SPAN_H_
#define PATHENUM_OBS_SPAN_H_

#include <chrono>
#include <cstdint>

#include "core/control.h"
#include "obs/metrics.h"

namespace pathenum::obs {

enum class SpanStage : uint8_t {
  kQueueWait = 0,   // admission to worker claim
  kIndexAcquire,    // cache lookup + index build / result replay
  kEnumerate,       // DFS/JOIN enumeration, incl. cooperative split drain
  kMerge,           // split merge barrier
  kSinkComplete,    // everything after the last explicit mark
  kStageCount,
};

inline const char* SpanStageName(SpanStage s) {
  switch (s) {
    case SpanStage::kQueueWait: return "queue_wait";
    case SpanStage::kIndexAcquire: return "index_acquire";
    case SpanStage::kEnumerate: return "enumerate";
    case SpanStage::kMerge: return "merge";
    case SpanStage::kSinkComplete: return "sink_complete";
    default: return "?";
  }
}

/// The finished-span record: plain data, safe to copy into ticket state
/// and read from any thread once the query completed. Defined in both
/// builds (zeroed under PATHENUM_OBS=0).
struct QuerySpanData {
  static constexpr uint32_t kMaxSegments = 10;

  struct Segment {
    SpanStage stage;
    double ms;
  };

  uint64_t id = 0;  // process-wide query sequence number (1-based)
  uint32_t source = 0;
  uint32_t target = 0;
  uint32_t hops = 0;
  QueryState state = QueryState::kOk;
  bool sampled = false;
  bool index_cache_hit = false;
  bool result_cache_hit = false;
  bool split = false;
  uint32_t num_segments = 0;
  Segment segments[kMaxSegments] = {};
  double total_ms = 0.0;     // admit → Finish wall time (== segment sum)
  uint64_t admit_ts_us = 0;  // microseconds on the trace-recorder clock

  /// Sum of every segment attributed to `stage`.
  double StageMs(SpanStage stage) const {
    double ms = 0.0;
    for (uint32_t i = 0; i < num_segments; ++i) {
      if (segments[i].stage == stage) ms += segments[i].ms;
    }
    return ms;
  }

  double SegmentSumMs() const {
    double ms = 0.0;
    for (uint32_t i = 0; i < num_segments; ++i) ms += segments[i].ms;
    return ms;
  }
};

#if PATHENUM_OBS

class QuerySpan {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts the span: stamps the admit time, assigns the global query id
  /// and decides trace sampling. Re-Begin resets a used span.
  void Begin(uint32_t source, uint32_t target, uint32_t hops);

  /// Attributes everything since the previous mark (or Begin) to `stage`.
  /// No-op if the span is inactive. Overflowing kMaxSegments folds into
  /// the last segment (total time is still exact).
  void Mark(SpanStage stage);

  void SetIndexOutcome(bool index_cache_hit, bool result_cache_hit) {
    data_.index_cache_hit = index_cache_hit;
    data_.result_cache_hit = result_cache_hit;
  }

  void SetSplit() { data_.split = true; }

  /// Ends the span: the trailing segment becomes kSinkComplete, the stage
  /// histograms / terminal-state counters are fed, and — if sampled — the
  /// span is emitted to the TraceRecorder. Idempotent.
  void Finish(QueryState state);

  bool active() const { return active_; }
  const QuerySpanData& data() const { return data_; }

 private:
  QuerySpanData data_;
  bool active_ = false;
  Clock::time_point admit_{};
  Clock::time_point last_{};
};

#else  // !PATHENUM_OBS

class QuerySpan {
 public:
  void Begin(uint32_t, uint32_t, uint32_t) {}
  void Mark(SpanStage) {}
  void SetIndexOutcome(bool, bool) {}
  void SetSplit() {}
  void Finish(QueryState) {}
  bool active() const { return false; }
  const QuerySpanData& data() const {
    static const QuerySpanData empty;
    return empty;
  }
};

#endif  // PATHENUM_OBS

}  // namespace pathenum::obs

#endif  // PATHENUM_OBS_SPAN_H_
