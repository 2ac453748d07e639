// Shared infrastructure for the experiment harnesses: environment knobs,
// query-set execution, metric aggregation and paper-style table output.
//
// Environment variables (all optional):
//   PATHENUM_BENCH_SCALE          dataset scale multiplier   (default 1.0,
//                                 on top of the catalog's built-in scaling)
//   PATHENUM_BENCH_QUERIES        queries per set            (default 4)
//   PATHENUM_BENCH_TIME_LIMIT_MS  per-query time limit       (default 3000;
//                                 the paper used 120000)
//   PATHENUM_BENCH_HOPS           default hop constraint k   (default 6)
//   PATHENUM_BENCH_DATASETS       comma list for Table 3     (default all 14)
#ifndef PATHENUM_BENCH_COMMON_BENCH_UTIL_H_
#define PATHENUM_BENCH_COMMON_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "baselines/algorithm.h"
#include "core/options.h"
#include "core/query.h"
#include "graph/graph.h"
#include "workload/query_gen.h"

namespace pathenum::bench {

struct BenchEnv {
  double scale = 1.0;
  uint32_t num_queries = 5;
  double time_limit_ms = 250.0;
  uint32_t hops = 6;
  std::vector<std::string> datasets;  // Table 3 graph list

  static BenchEnv FromEnv();
};

/// EnumOptions matching the paper's harness (time limit, response target
/// 1000), scaled by the environment.
EnumOptions MakeOptions(const BenchEnv& env);

/// Instantiates a catalog dataset through an on-disk binary cache
/// (PATHENUM_BENCH_CACHE_DIR, default "build/bench_cache/") so the 19
/// bench binaries generate each multi-million-edge graph only once. A
/// nonzero `seed` re-seeds the catalog generator the way the serving
/// benchmark (servebench/) derives its graph instances from a run seed.
Graph CachedDataset(const std::string& name, double scale, uint64_t seed = 0);

/// Generates the default (s, t in V', dist <= 3) query set at hop count `k`.
std::vector<Query> MakeQueries(const Graph& g, const BenchEnv& env,
                               uint32_t k, uint64_t seed = 7);

/// Runs every query through `algo` and returns the per-query stats.
std::vector<QueryStats> RunQuerySet(BoundAlgorithm& algo,
                                    const std::vector<Query>& queries,
                                    const EnumOptions& opts);

/// Aggregate of a query set, following the paper's metric definitions
/// (§7.1): arithmetic-mean query time with timed-out queries charged the
/// full limit, mean throughput, mean response time.
struct Aggregate {
  double mean_query_ms = 0.0;
  double mean_throughput = 0.0;
  double mean_response_ms = 0.0;
  double timeout_fraction = 0.0;
  uint64_t total_results = 0;
  size_t count = 0;
};

Aggregate Summarize(const std::vector<QueryStats>& stats);

/// Prints the standard experiment banner: which table/figure of the paper
/// this binary regenerates, plus the active configuration.
void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const BenchEnv& env);

/// Prints the "expected shape vs paper" footnote.
void PrintShapeNote(const std::string& note);

/// The fields a micro benchmark's JSON record opens with, so the record
/// says which host and how many runs its numbers came from:
///   "bench": "<bench>",
///   "machine": {"cpu_model": "<model name from /proc/cpuinfo>",
///               "hardware_concurrency": <std::thread count>},
///   "reps": <measured repetitions per configuration>
/// One field per line, each indented by two spaces, no trailing comma.
std::string RecordHeaderJson(const std::string& bench, int reps);

}  // namespace pathenum::bench

#endif  // PATHENUM_BENCH_COMMON_BENCH_UTIL_H_
