// Batch QueryEngine walkthrough: serve a workload of hop-constrained
// queries through the pooled engine instead of one-at-a-time
// PathEnumerator::Run calls.
//
//   ./batch_engine [num_workers]   # default: hardware concurrency
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

  QueryEngine engine(graph, {.num_workers = workers});
  std::cout << "engine: " << engine.num_workers() << " pooled workers\n";

  BatchOptions opts;
  opts.query.result_limit = 10000;  // cap heavy hubs per query

  // First batch pays the warm-up (scratch growth); repeat batches reuse
  // every buffer.
  for (int round = 0; round < 2; ++round) {
    const BatchResult result = engine.CountBatch(queries, opts);
    std::cout << (round == 0 ? "cold" : "warm") << " batch: "
              << result.TotalResults() << " paths in " << result.wall_ms
              << " ms (" << result.QueriesPerSec() << " queries/s)\n";
  }

  const auto stats = engine.Stats();
  std::cout << "served " << stats.queries_run << " queries across "
            << stats.batches_run << " batches; steady-state scratch "
            << stats.scratch_bytes / 1024.0 << " KiB\n";

  // Few heavy queries? Let each query fan its work out over the idle
  // workers instead (DFS branches or split-join units, as planned).
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
