// Batch QueryEngine walkthrough: serve a workload of hop-constrained
// queries through the pooled engine instead of one-at-a-time
// PathEnumerator::Run calls, with the cross-query cache on.
//
//   ./batch_engine [num_workers]   # default: hardware concurrency
//
// Runs the batch three times. The cache admits a key on its second miss
// (DESIGN.md §6), so round 1 publishes nothing, round 2 publishes every
// index and round 3 hits them. Exits 1 if any query's count differs
// between rounds or round 3 has no cache hit.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "workload/query_gen.h"

using namespace pathenum;

int main(int argc, char** argv) {
  // Non-numeric or non-positive input falls back to 0 = hardware pick.
  const int requested = argc > 1 ? std::atoi(argv[1]) : 0;
  const uint32_t workers =
      requested > 0 ? static_cast<uint32_t>(requested) : 0;

  // A scale-free graph and a paper-style query set (s, t in the top degree
  // decile, dist(s, t) <= 3).
  const Graph graph = BarabasiAlbert(20000, 8, /*seed=*/42);
  QueryGenOptions gen;
  gen.count = 64;
  gen.hops = 5;
  const std::vector<Query> queries = GenerateQueries(graph, gen);
  std::cout << "workload: " << queries.size() << " queries over "
            << graph.num_vertices() << " vertices\n";

  QueryEngine engine(graph, {.num_workers = workers, .enable_cache = true});
  std::cout << "engine: " << engine.num_workers() << " pooled workers\n";

  BatchOptions opts;
  opts.query.result_limit = 10000;  // cap heavy hubs per query

  // The first batch also pays the warm-up (scratch growth); repeat batches
  // reuse every buffer.
  std::vector<uint64_t> first_counts;
  uint64_t last_round_hits = 0;
  for (int round = 1; round <= 3; ++round) {
    const BatchResult result = engine.CountBatch(queries, opts);
    if (!result.ok()) {
      std::cerr << "round " << round << ": a query failed\n";
      return 1;
    }
    const IndexCacheStats& c = result.cache;
    last_round_hits = c.index_hits + c.result_hits;
    std::cout << "round " << round << ": " << result.TotalResults()
              << " paths in " << result.wall_ms << " ms ("
              << result.QueriesPerSec() << " queries/s); cache hits "
              << last_round_hits << ", misses "
              << c.index_misses + c.result_misses << ", unadmitted "
              << c.index_unadmitted + c.result_unadmitted << "\n";
    for (size_t i = 0; i < queries.size(); ++i) {
      const uint64_t count = result.stats[i].counters.num_results;
      if (round == 1) {
        first_counts.push_back(count);
      } else if (count != first_counts[i]) {
        std::cerr << "query " << i << " counted " << count << " paths in round "
                  << round << ", " << first_counts[i] << " in round 1\n";
        return 1;
      }
    }
  }
  if (last_round_hits == 0) {
    std::cerr << "round 3 had no cache hit\n";
    return 1;
  }

  const auto stats = engine.Stats();
  std::cout << "served " << stats.queries_run << " queries across "
            << stats.batches_run << " batches; steady-state scratch "
            << stats.scratch_bytes / 1024.0 << " KiB\n";

  // Few heavy queries? Let each query fan its first-level DFS branches out
  // over the idle workers instead (an IDX-JOIN plan runs on one worker).
  BatchOptions split = opts;
  split.split_branches = true;
  const std::vector<Query> heavy(queries.begin(),
                                 queries.begin() +
                                     std::min<size_t>(4, queries.size()));
  const BatchResult result = engine.CountBatch(heavy, split);
  std::cout << "split-branch batch: " << result.TotalResults()
            << " paths in " << result.wall_ms << " ms\n";

  // Everything above also landed in the process-wide metric registry
  // (DESIGN.md §12) — the same exposition a scrape endpoint would serve.
  // Empty when built with -DPATHENUM_OBS=OFF.
  const std::string metrics = obs::DumpMetricsText();
  if (!metrics.empty()) {
    std::cout << "\n-- metrics (DumpMetricsText) --\n" << metrics;
  }
  return 0;
}
