#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#if PATHENUM_OBS

namespace pathenum::obs {

namespace {

// One recorded slice. Fixed-size; `name`/`state` are static literals.
struct TraceEvent {
  const char* name;
  const char* cat;  // "query" (enclosing) or "stage" (nested)
  uint64_t ts_us;
  uint64_t dur_us;
  uint64_t qid;
  uint32_t source, target, hops;  // query events only
  const char* state;              // terminal state name; null for stages
  uint8_t flags;                  // bit0 idx-hit, bit1 result-hit,
                                  // bit2 split
};

size_t RingCapacity() {
  static const size_t cap = [] {
    const char* env = std::getenv("PATHENUM_OBS_TRACE_CAP");
    if (env != nullptr) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<size_t>(v);
    }
    return size_t{4096};
  }();
  return cap;
}

uint32_t EnvSampleEvery() {
  const char* env = std::getenv("PATHENUM_OBS_SAMPLE");
  if (env == nullptr) return 0;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<uint32_t>(v) : 0;
}

std::atomic<uint32_t>& SampleSlot() {
  static std::atomic<uint32_t> v{EnvSampleEvery()};
  return v;
}

void AppendEscaped(std::ostringstream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
}

}  // namespace

struct TraceRecorder::Impl {
  struct Ring {
    std::mutex mutex;
    uint32_t tid;
    std::vector<TraceEvent> events;  // sized once at registration
    size_t head = 0;                 // next write position
    size_t count = 0;                // min(pushes, capacity)

    void Push(const TraceEvent& e) {
      events[head] = e;
      head = (head + 1) % events.size();
      count = std::min(count + 1, events.size());
    }
  };

  std::mutex mutex;  // guards `rings` (registration + export walk)
  std::vector<std::shared_ptr<Ring>> rings;
  std::atomic<uint32_t> next_tid{1};
  std::chrono::steady_clock::time_point epoch;

  Ring& ThisRing() {
    thread_local std::shared_ptr<Ring> ring;
    if (ring == nullptr) {
      ring = std::make_shared<Ring>();
      ring->tid = next_tid.fetch_add(1, std::memory_order_relaxed);
      ring->events.resize(RingCapacity());
      std::lock_guard<std::mutex> lock(mutex);
      rings.push_back(ring);
    }
    return *ring;
  }
};

TraceRecorder::TraceRecorder() : impl_(new Impl()) {
  impl_->epoch = std::chrono::steady_clock::now();
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* r = new TraceRecorder();  // leaked: process scope
  return *r;
}

uint64_t TraceRecorder::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - impl_->epoch)
          .count());
}

uint32_t TraceRecorder::SampleEvery() {
  return SampleSlot().load(std::memory_order_relaxed);
}

void TraceRecorder::SetSampleEvery(uint32_t n) {
  SampleSlot().store(n, std::memory_order_relaxed);
}

void TraceRecorder::EmitSpan(const QuerySpanData& span) {
  const uint64_t total_us =
      static_cast<uint64_t>(std::llround(span.total_ms * 1000.0));
  uint8_t flags = 0;
  if (span.index_cache_hit) flags |= 1;
  if (span.result_cache_hit) flags |= 2;
  if (span.split) flags |= 4;

  Impl::Ring& ring = impl_->ThisRing();
  std::lock_guard<std::mutex> lock(ring.mutex);
  ring.Push({"query", "query", span.admit_ts_us, total_us, span.id,
             span.source, span.target, span.hops,
             QueryStateName(span.state).data(), flags});
  // Stage slices tile [admit, admit+total] left to right; durations are
  // clamped so integer rounding can never push a child past its parent.
  uint64_t ts = span.admit_ts_us;
  const uint64_t end = span.admit_ts_us + total_us;
  for (uint32_t i = 0; i < span.num_segments; ++i) {
    const uint64_t dur = std::min(
        end - ts,
        static_cast<uint64_t>(std::llround(span.segments[i].ms * 1000.0)));
    ring.Push({SpanStageName(span.segments[i].stage), "stage", ts, dur,
               span.id, 0, 0, 0, nullptr, 0});
    ts += dur;
  }
}

std::string TraceRecorder::ExportChromeJson() const {
  std::vector<std::pair<TraceEvent, uint32_t>> events;  // event + tid
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto& ring : impl_->rings) {
      std::lock_guard<std::mutex> ring_lock(ring->mutex);
      for (size_t i = 0; i < ring->count; ++i) {
        // Oldest-first: when full, head is also the oldest entry.
        const size_t idx =
            ring->count == ring->events.size()
                ? (ring->head + i) % ring->events.size()
                : i;
        events.emplace_back(ring->events[idx], ring->tid);
      }
    }
  }
  // Timestamp order; parent ("query") slices before their stages at equal
  // ts so tracing UIs nest them correctly.
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first.ts_us != b.first.ts_us) {
                       return a.first.ts_us < b.first.ts_us;
                     }
                     return a.first.dur_us > b.first.dur_us;
                   });

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [e, tid] : events) {
    os << (first ? "" : ",");
    first = false;
    os << "{\"name\":\"";
    AppendEscaped(os, e.name);
    os << "\",\"cat\":\"" << e.cat << "\",\"ph\":\"X\",\"ts\":" << e.ts_us
       << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"qid\":" << e.qid;
    if (e.state != nullptr) {
      os << ",\"s\":" << e.source << ",\"t\":" << e.target
         << ",\"k\":" << e.hops << ",\"state\":\"";
      AppendEscaped(os, e.state);
      os << "\",\"index_cache_hit\":" << ((e.flags & 1) ? "true" : "false")
         << ",\"result_cache_hit\":" << ((e.flags & 2) ? "true" : "false")
         << ",\"split\":" << ((e.flags & 4) ? "true" : "false");
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& ring : impl_->rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->head = 0;
    ring->count = 0;
  }
}

}  // namespace pathenum::obs

#endif  // PATHENUM_OBS
