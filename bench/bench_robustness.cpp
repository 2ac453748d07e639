// Robustness-layer overhead and overload-shedding bench (DESIGN.md §10)
// plus the observability overhead gate (DESIGN.md §12).
//
// Three sections:
//
//  1. Cancellation-check overhead on the *unstopped* hot path: the same
//     canned layered-DAG enumeration as bench_hotpath, run plain vs. with
//     the full control bundle armed but never firing (a cancellable token,
//     a far-future deadline, a huge work budget). Each rep times plain and
//     guarded back to back, alternating which runs first, and the gate
//     reads the median of the per-rep guarded/plain paths/sec ratios: a
//     change in the shared host's speed between reps cancels instead of
//     landing in the ratio. That ratio is the price every production query
//     pays for cancellability; the acceptance bar is <= 2% regression.
//
//  2. Deadline-miss/shed behavior under overload: an AsyncEngine sized to
//     be overrun (few workers, short admission queue) takes a burst of
//     TrySubmit queries with tight per-query deadlines, under each shed
//     policy. Reported: admission shed rate, deadline-miss rate among the
//     queries that ran, and terminal-state counts — the service-level
//     picture of graceful degradation.
//
//  3. Observability overhead: bursts of span-instrumented queries on one
//     AsyncEngine, alternating trace sampling off and sampling every query
//     (each pair alternates which runs first) — the runtime price of the
//     span/trace layer, gated as the median of the per-pair on/off ratios
//     at the same tolerance. A PATHENUM_OBS=0 build compiles sampling to
//     nothing, so there the section does not run and the record marks it
//     not applicable. When PATHENUM_OBS_BASELINE_PPS carries
//     section 1's best-of-reps plain paths/sec from a PATHENUM_OBS=0
//     build, the cross-build comparison (the cost of compiling obs in at
//     all) is gated too. Optionally dumps the metrics exposition and the
//     sampled bursts' Chrome trace to files so CI can archive them.
//
// Environment:
//   PATHENUM_ROBUST_WIDTH      vertices per inner layer      (default 32)
//   PATHENUM_ROBUST_LAYERS     inner layers                  (default 4)
//   PATHENUM_ROBUST_REPS       measured pairs per gate       (default 5)
//   PATHENUM_ROBUST_BURST      overload burst size           (default 64)
//   PATHENUM_ROBUST_TOLERANCE  max allowed overhead fraction (default 0.02)
//   PATHENUM_OBS_BASELINE_PPS  plain paths/sec from an PATHENUM_OBS=0
//                              build of this bench (optional gate)
//   PATHENUM_OBS_METRICS_OUT   file for DumpMetricsText ("" disables)
//   PATHENUM_OBS_TRACE_OUT     file for the Chrome trace ("" disables)
//   PATHENUM_BENCH_JSON        output path ("" disables;
//                              default "BENCH_robustness.json")
//                              The record opens with the host (CPU model,
//                              hardware threads) and the repetition count.
//
// Exit status is nonzero when any overhead gate exceeds the tolerance —
// the regression gates the perf trajectory tracks.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "core/control.h"
#include "core/dfs_enumerator.h"
#include "core/index.h"
#include "core/sink.h"
#include "graph/builder.h"
#include "live/async_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace {

using namespace pathenum;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<uint64_t>(std::atoll(v)) : fallback;
}

double EnvF64(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

/// s -> W x L complete-bipartite inner grid -> t (same canned instance as
/// bench_hotpath: the index walk is in cache, emission+checks dominate).
Graph LayeredDag(uint32_t width, uint32_t layers) {
  const VertexId n = 2 + width * layers;
  GraphBuilder builder(n);
  const auto lv = [&](uint32_t l, uint32_t i) {
    return static_cast<VertexId>(1 + l * width + i);
  };
  for (uint32_t i = 0; i < width; ++i) builder.AddEdge(0, lv(0, i));
  for (uint32_t l = 0; l + 1 < layers; ++l) {
    for (uint32_t i = 0; i < width; ++i) {
      for (uint32_t j = 0; j < width; ++j) {
        builder.AddEdge(lv(l, i), lv(l + 1, j));
      }
    }
  }
  for (uint32_t i = 0; i < width; ++i) {
    builder.AddEdge(lv(layers - 1, i), n - 1);
  }
  return builder.Build();
}

/// Median of a non-empty sample (mean of the middle two for an even size).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// One A/B comparison measured in back-to-back pairs: `best_a`/`best_b`
/// are each side's best-of-pairs rate, `ratio` the median of the per-pair
/// b/a ratios, which is what the gates read.
struct PairedRates {
  double best_a = 0.0;
  double best_b = 0.0;
  double ratio = 0.0;
};

/// Calls `rate(false)` (side a) and `rate(true)` (side b) back to back in
/// each of `reps` pairs, alternating which side runs first, so drift in
/// the host's speed hits both sides of a pair alike.
template <typename Rate>
PairedRates MeasurePaired(int reps, Rate&& rate) {
  PairedRates out;
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    double a = 0.0;
    double b = 0.0;
    if (r % 2 == 0) {
      a = rate(false);
      b = rate(true);
    } else {
      b = rate(true);
      a = rate(false);
    }
    out.best_a = std::max(out.best_a, a);
    out.best_b = std::max(out.best_b, b);
    ratios.push_back(a > 0.0 ? b / a : 0.0);
  }
  if (!ratios.empty()) out.ratio = Median(std::move(ratios));
  return out;
}

/// Paths/sec of one timed enumeration; `*results_out` gets its count.
double RunPathsPerSec(DfsEnumerator& dfs, const LightweightIndex& index,
                      const EnumOptions& opts, uint64_t* results_out) {
  CountingSink sink;
  Timer t;
  dfs.Run(index, sink, opts);
  const double ms = t.ElapsedMs();
  *results_out = sink.count();
  return ms > 0.0 ? sink.count() / (ms / 1e3) : 0.0;
}

struct OverloadRow {
  std::string policy;
  uint64_t attempts = 0;
  uint64_t admission_sheds = 0;  // rejected or cancel-oldest evictions
  uint64_t ran = 0;
  uint64_t deadline_missed = 0;  // ran but tripped its deadline
  uint64_t ok = 0;
  double wall_ms = 0.0;
};

OverloadRow RunOverload(const Graph& g, AsyncEngineOptions::ShedPolicy policy,
                        const char* name, uint32_t burst) {
  AsyncEngineOptions eopts;
  eopts.num_workers = 2;
  eopts.max_queue = 8;
  eopts.shed_policy = policy;
  AsyncEngine engine(Graph(g), eopts);

  const Query q{0, g.num_vertices() - 1,
                static_cast<uint32_t>(
                    std::min<uint64_t>(kMaxHops, 8))};
  EnumOptions qopts;
  qopts.time_limit_ms = 2.0;  // tight: heavy queries will miss it

  OverloadRow row;
  row.policy = name;
  row.attempts = burst;
  std::vector<QueryTicket> tickets;
  std::vector<CountingSink> sinks(burst);
  tickets.reserve(burst);
  Timer wall;
  for (uint32_t i = 0; i < burst; ++i) {
    QueryTicket t = engine.TrySubmit(q, sinks[i], qopts);
    if (t.valid()) tickets.push_back(std::move(t));
  }
  for (const QueryTicket& t : tickets) t.Wait();
  row.wall_ms = wall.ElapsedMs();
  engine.Drain();

  const AsyncEngine::Stats stats = engine.stats();
  row.admission_sheds = stats.queue_rejects + stats.sheds;
  for (const QueryTicket& t : tickets) {
    switch (t.state()) {
      case QueryState::kDeadlineExceeded:
        ++row.ran;
        ++row.deadline_missed;
        break;
      case QueryState::kCancelled:
        break;  // shed while queued (kCancelOldest): never ran
      default:
        ++row.ran;
        ++row.ok;
        break;
    }
  }
  return row;
}

/// Paths/sec of one burst of span-instrumented AsyncEngine queries at the
/// given trace-sampling rate. Identical queries after the first hit the
/// cache, so a warm burst measures enumeration plus the span/counter
/// instrumentation itself.
double RunObsBurst(AsyncEngine& engine, const Query& q, uint32_t burst,
                   uint32_t sample_every) {
  obs::TraceRecorder::SetSampleEvery(sample_every);
  std::vector<CountingSink> sinks(burst);
  std::vector<QueryTicket> tickets;
  tickets.reserve(burst);
  Timer wall;
  for (uint32_t i = 0; i < burst; ++i) {
    tickets.push_back(engine.Submit(q, sinks[i]));
  }
  uint64_t paths = 0;
  for (uint32_t i = 0; i < burst; ++i) {
    tickets[i].Wait();
    paths += sinks[i].count();
  }
  const double ms = wall.ElapsedMs();
  obs::TraceRecorder::SetSampleEvery(0);
  return ms > 0.0 ? paths / (ms / 1e3) : 0.0;
}

}  // namespace

int main() {
  const uint32_t width =
      static_cast<uint32_t>(EnvU64("PATHENUM_ROBUST_WIDTH", 32));
  const uint32_t layers =
      static_cast<uint32_t>(EnvU64("PATHENUM_ROBUST_LAYERS", 4));
  const int reps = static_cast<int>(EnvU64("PATHENUM_ROBUST_REPS", 5));
  const uint32_t burst =
      static_cast<uint32_t>(EnvU64("PATHENUM_ROBUST_BURST", 64));
  const double tolerance = EnvF64("PATHENUM_ROBUST_TOLERANCE", 0.02);

  std::printf("== Robustness layer: control-check overhead + overload ==\n");

  // -- Section 1: armed-but-idle control bundle on the hot path. ----------
  const Graph g = LayeredDag(width, layers);
  const Query q{0, g.num_vertices() - 1, layers + 1};
  IndexBuilder index_builder;
  const LightweightIndex index = index_builder.Build(g, q);

  DfsEnumerator dfs;
  const EnumOptions plain;
  EnumOptions guarded;
  guarded.cancel = CancelToken::Cancellable();  // armed, never fired
  guarded.time_limit_ms = 1e9;                  // real deadline, far away
  guarded.work_budget_edges = uint64_t{1} << 62;
  uint64_t plain_results = 0;
  uint64_t guarded_results = 0;
  // Scratch reaches steady state for both configurations.
  RunPathsPerSec(dfs, index, plain, &plain_results);
  RunPathsPerSec(dfs, index, guarded, &guarded_results);
  const PairedRates checks = MeasurePaired(reps, [&](bool is_guarded) {
    return is_guarded ? RunPathsPerSec(dfs, index, guarded, &guarded_results)
                      : RunPathsPerSec(dfs, index, plain, &plain_results);
  });
  // The cross-build gate compares this across two processes, where no
  // pairing is possible: best-of-reps, so scheduler noise cannot fake a
  // regression.
  const double plain_pps = checks.best_a;
  const double guarded_pps = checks.best_b;
  const double ratio = checks.ratio;
  const double overhead = 1.0 - ratio;
  const bool pass = guarded_results == plain_results && overhead <= tolerance;
  std::printf("  [checks] plain %.3fM paths/s, guarded %.3fM paths/s "
              "(median paired ratio %.4f, overhead %.2f%%) -> %s\n",
              plain_pps / 1e6, guarded_pps / 1e6, ratio, overhead * 100.0,
              pass ? "PASS" : "FAIL");

  // -- Section 2: overload shedding under each policy. --------------------
  std::vector<OverloadRow> rows;
  rows.push_back(RunOverload(g, AsyncEngineOptions::ShedPolicy::kRejectNewest,
                             "reject_newest", burst));
  rows.push_back(RunOverload(g, AsyncEngineOptions::ShedPolicy::kCancelOldest,
                             "cancel_oldest", burst));
  for (const OverloadRow& r : rows) {
    std::printf("  [overload/%s] %llu submitted: %llu shed at admission, "
                "%llu ran (%llu deadline-missed, %llu ok) in %.0f ms\n",
                r.policy.c_str(),
                static_cast<unsigned long long>(r.attempts),
                static_cast<unsigned long long>(r.admission_sheds),
                static_cast<unsigned long long>(r.ran),
                static_cast<unsigned long long>(r.deadline_missed),
                static_cast<unsigned long long>(r.ok), r.wall_ms);
  }

  // -- Section 3: observability overhead (DESIGN.md §12). -----------------
  // Without the obs layer both sides of a pair run the same code, so the
  // ratio would gate run-to-run noise alone.
  const uint32_t obs_burst = 16;
  PairedRates sampling;
  bool obs_pass = true;
  if (obs::kEnabled) {
    AsyncEngineOptions eopts;
    eopts.num_workers = 2;
    AsyncEngine engine(Graph(g), eopts);
    RunObsBurst(engine, q, obs_burst, /*sample_every=*/0);  // warm-up
    obs::TraceRecorder::Global().Clear();  // keep only the sampled bursts
    sampling = MeasurePaired(reps, [&](bool sample_on) {
      return RunObsBurst(engine, q, obs_burst, sample_on ? 1 : 0);
    });
    obs_pass = 1.0 - sampling.ratio <= tolerance;
    std::printf("  [obs] sampling off %.3fM paths/s, every-query tracing "
                "%.3fM paths/s (median paired ratio %.4f) -> %s\n",
                sampling.best_a / 1e6, sampling.best_b / 1e6, sampling.ratio,
                obs_pass ? "PASS" : "FAIL");
  } else {
    std::printf("  [obs] sampling on/off: not applicable (PATHENUM_OBS=0 "
                "compiles sampling to nothing)\n");
  }

  // Cross-build gate: section 1's plain paths/sec vs the same number from
  // a PATHENUM_OBS=0 build — the cost of compiling the obs layer in.
  const double baseline_pps = EnvF64("PATHENUM_OBS_BASELINE_PPS", 0.0);
  double build_ratio = 0.0;
  if (baseline_pps > 0.0) {
    build_ratio = plain_pps / baseline_pps;
    const bool build_pass = 1.0 - build_ratio <= tolerance;
    obs_pass = obs_pass && build_pass;
    std::printf("  [obs] obs-enabled build %.3fM paths/s vs PATHENUM_OBS=0 "
                "build %.3fM paths/s (ratio %.4f) -> %s\n",
                plain_pps / 1e6, baseline_pps / 1e6, build_ratio,
                build_pass ? "PASS" : "FAIL");
  }

  // Archive the exposition + the sampled run's trace when asked (CI
  // uploads these as artifacts).
  const std::string metrics_text = obs::DumpMetricsText();
  const std::string trace_json =
      obs::TraceRecorder::Global().ExportChromeJson();
  if (const char* out = std::getenv("PATHENUM_OBS_METRICS_OUT")) {
    if (out[0] != '\0') {
      std::ofstream f(out);
      f << metrics_text;
      std::printf("  wrote metrics exposition to %s (%zu bytes)\n", out,
                  metrics_text.size());
    }
  }
  if (const char* out = std::getenv("PATHENUM_OBS_TRACE_OUT")) {
    if (out[0] != '\0') {
      std::ofstream f(out);
      f << trace_json;
      std::printf("  wrote Chrome trace to %s (%zu bytes)\n", out,
                  trace_json.size());
    }
  }

  std::ostringstream obs_obj;
  obs_obj << "{\"enabled\": " << (obs::kEnabled ? "true" : "false");
  if (obs::kEnabled) {
    obs_obj << ", \"sample_off_paths_per_sec\": " << sampling.best_a
            << ", \"sample_on_paths_per_sec\": " << sampling.best_b
            << ", \"sample_on_over_off\": " << sampling.ratio;
  } else {
    obs_obj << ", \"sampling\": \"not applicable\"";
  }
  obs_obj << ", \"obs_build_paths_per_sec\": " << plain_pps
          << ", \"noobs_build_paths_per_sec\": " << baseline_pps
          << ", \"obs_build_over_noobs\": " << build_ratio
          << ", \"metrics_dump_bytes\": " << metrics_text.size()
          << ", \"trace_json_bytes\": " << trace_json.size()
          << ", \"tolerance\": " << tolerance
          << ", \"pass\": " << (obs_pass ? "true" : "false") << "}";

  std::ostringstream obj;
  obj << "{\"width\": " << width << ", \"layers\": " << layers
      << ", \"plain_paths_per_sec\": " << plain_pps
      << ", \"guarded_paths_per_sec\": " << guarded_pps
      << ", \"guarded_over_plain\": " << ratio
      << ", \"tolerance\": " << tolerance
      << ", \"pass\": " << (pass ? "true" : "false") << ", \"overload\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const OverloadRow& r = rows[i];
    obj << (i > 0 ? ", " : "") << "{\"policy\": \"" << r.policy
        << "\", \"attempts\": " << r.attempts
        << ", \"admission_sheds\": " << r.admission_sheds
        << ", \"ran\": " << r.ran
        << ", \"deadline_missed\": " << r.deadline_missed
        << ", \"ok\": " << r.ok << ", \"wall_ms\": " << r.wall_ms << "}";
  }
  obj << "]}";

  const char* json_env = std::getenv("PATHENUM_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_robustness.json";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n" << bench::RecordHeaderJson("bench_robustness", reps)
        << ",\n  \"robustness\": " << obj.str() << ",\n  \"obs\": "
        << obs_obj.str() << "\n}\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return pass && obs_pass ? 0 : 1;
}
