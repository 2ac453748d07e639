#include "common/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "graph/io.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/datasets.h"

namespace pathenum::bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const double parsed = std::atof(v);
  return parsed > 0.0 ? parsed : fallback;
}

}  // namespace

BenchEnv BenchEnv::FromEnv() {
  BenchEnv env;
  env.scale = EnvDouble("PATHENUM_BENCH_SCALE", 1.0);
  env.num_queries = static_cast<uint32_t>(
      EnvDouble("PATHENUM_BENCH_QUERIES", 4));
  env.time_limit_ms = EnvDouble("PATHENUM_BENCH_TIME_LIMIT_MS", 3000.0);
  env.hops = static_cast<uint32_t>(EnvDouble("PATHENUM_BENCH_HOPS", 6));
  const char* ds = std::getenv("PATHENUM_BENCH_DATASETS");
  std::string list = ds != nullptr
                         ? ds
                         : "up,db,gg,st,tw,bk,tr,ep,uk,wt,sl,lj,da,ye";
  std::istringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) env.datasets.push_back(item);
  }
  return env;
}

EnumOptions MakeOptions(const BenchEnv& env) {
  EnumOptions opts;
  opts.time_limit_ms = env.time_limit_ms;
  opts.response_target = 1000;
  return opts;
}

Graph CachedDataset(const std::string& name, double scale, uint64_t seed) {
  // Scratch lives under build/ by default so a source checkout stays clean
  // (build/ is gitignored; the old top-level bench_cache/ default is not
  // regenerated but stays ignored for stale trees).
  const char* dir_env = std::getenv("PATHENUM_BENCH_CACHE_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : "build/bench_cache";
  char scale_str[32];
  std::snprintf(scale_str, sizeof(scale_str), "%g", scale);
  const std::string instance =
      seed == 0 ? name : name + "_seed" + std::to_string(seed);
  const std::string path = dir + "/" + instance + "_" + scale_str + ".bin";
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    try {
      return LoadBinary(path);
    } catch (const std::exception&) {
      // Corrupt/stale cache entry: fall through and regenerate.
    }
  }
  Timer timer;
  DatasetSpec spec = FindDataset(name);
  if (seed != 0) spec.seed = SplitMix64(seed ^ spec.seed).Next();
  Graph g = MakeDataset(spec, scale);
  std::cerr << "[bench] generated dataset " << instance << " (scale " << scale
            << "): " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges in " << static_cast<long>(timer.ElapsedMs())
            << " ms\n";
  std::filesystem::create_directories(dir, ec);
  try {
    SaveBinary(g, path);
  } catch (const std::exception&) {
    // Cache write failure is non-fatal (read-only FS etc.).
    std::remove(path.c_str());
  }
  return g;
}

std::vector<Query> MakeQueries(const Graph& g, const BenchEnv& env,
                               uint32_t k, uint64_t seed) {
  QueryGenOptions qopts;
  qopts.count = env.num_queries;
  qopts.hops = k;
  qopts.seed = seed;
  return GenerateQueries(g, qopts);
}

std::vector<QueryStats> RunQuerySet(BoundAlgorithm& algo,
                                    const std::vector<Query>& queries,
                                    const EnumOptions& opts) {
  std::vector<QueryStats> stats;
  stats.reserve(queries.size());
  for (const Query& q : queries) {
    CountingSink sink;
    stats.push_back(algo.Run(q, sink, opts));
  }
  return stats;
}

Aggregate Summarize(const std::vector<QueryStats>& stats) {
  Aggregate agg;
  agg.count = stats.size();
  if (stats.empty()) return agg;
  double time_sum = 0, tput_sum = 0, resp_sum = 0;
  size_t timeouts = 0;
  for (const QueryStats& s : stats) {
    time_sum += s.total_ms;
    tput_sum += s.ThroughputPerSec();
    resp_sum += s.response_ms;
    agg.total_results += s.counters.num_results;
    if (s.counters.timed_out) ++timeouts;
  }
  const double n = static_cast<double>(stats.size());
  agg.mean_query_ms = time_sum / n;
  agg.mean_throughput = tput_sum / n;
  agg.mean_response_ms = resp_sum / n;
  agg.timeout_fraction = static_cast<double>(timeouts) / n;
  return agg;
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const BenchEnv& env) {
  std::cout << "==========================================================\n"
            << experiment << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Config: scale=" << env.scale
            << " queries/set=" << env.num_queries
            << " time-limit=" << env.time_limit_ms << "ms"
            << " (paper: 1000 queries, 120000ms)\n"
            << "==========================================================\n";
}

void PrintShapeNote(const std::string& note) {
  std::cout << "\n[shape-vs-paper] " << note << "\n\n";
}

std::string RecordHeaderJson(const std::string& bench, int reps) {
  // The first "model name" line of /proc/cpuinfo, or "unknown" where there
  // is none (non-Linux hosts, some ARM kernels).
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const size_t begin = line.find_first_not_of(" \t", colon + 1);
    if (begin != std::string::npos) model = line.substr(begin);
    break;
  }
  std::string escaped;
  for (const char c : model) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  std::ostringstream out;
  out << "  \"bench\": \"" << bench << "\",\n"
      << "  \"machine\": {\"cpu_model\": \"" << escaped
      << "\", \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << "},\n"
      << "  \"reps\": " << reps;
  return out.str();
}

}  // namespace pathenum::bench
