// Sharded serving demo (DESIGN.md §14): a ShardRouter partitions one graph
// across several shard engines and serves a mixed query/update stream over
// the union. Shows the planner's three outcomes — O(1) unsatisfiable
// rejection from the exact distance fields, whole-query delegation to one
// shard when no cut edge is feasible, and stitched cross-shard execution
// with partial paths shipped between shards as delta-encoded PathBlocks —
// plus update routing (each delta op lands in the shard owning its edge's
// tail, which publishes its own snapshot epoch) and the per-shard metrics
// the registry exports.
//
// Build: cmake --build build --target sharded_engine && ./build/sharded_engine
#include <cstdio>
#include <string>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "shard/router.h"

using namespace pathenum;

namespace {

const char* StateName(QueryState s) {
  switch (s) {
    case QueryState::kOk: return "ok";
    case QueryState::kTruncated: return "truncated";
    case QueryState::kUnsatisfiable: return "unsatisfiable";
    case QueryState::kRejected: return "rejected";
    default: return "other";
  }
}

void ServeOne(ShardRouter& router, const Query& q, uint64_t limit) {
  CountingSink sink;
  EnumOptions opts;
  opts.result_limit = limit;
  const RouterResult r = router.Run(q, sink, opts);
  std::printf("  q(%u, %u, %u): %llu paths, %s, %s", q.source, q.target,
              q.hops,
              static_cast<unsigned long long>(r.stats.counters.num_results),
              StateName(r.state),
              r.state == QueryState::kUnsatisfiable ? "planner rejection"
              : r.delegated                         ? "delegated"
                                                    : "stitched");
  if (r.delegated) {
    std::printf(" to shard %u", r.delegate_shard);
  } else if (r.state != QueryState::kUnsatisfiable) {
    std::printf(" across %llu feasible cut edges",
                static_cast<unsigned long long>(r.feasible_cut_edges));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // A preferential-attachment graph: dense hubs make cross-shard cut edges
  // unavoidable, so both delegation and stitching show up.
  const Graph g = BarabasiAlbert(/*num_vertices=*/400, /*edges_per_vertex=*/3,
                                 /*back_prob=*/0.5, /*seed=*/7);

  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(g, opts);
  std::printf("partitioned %u vertices across %u shards, %zu cut edges\n",
              router.num_vertices(), router.num_shards(), router.cut_size());
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    std::printf("  shard %u: cache salt %#llx\n", s,
                static_cast<unsigned long long>(
                    router.shard(s).cache_key_salt()));
  }

  std::printf("\nquery stream (epoch 0):\n");
  ServeOne(router, Query{1, 9, 4}, 100);
  ServeOne(router, Query{5, 2, 3}, 100);
  ServeOne(router, Query{0, 399, 2}, 100);  // likely beyond 2 hops: rejected
  ServeOne(router, Query{3, 7, 5}, 8);      // tight limit: exact truncation

  // Updates route through the partition map: each op is applied by the
  // shard owning its tail, which publishes its own snapshot epoch; a query
  // pins all shards' views at once, so it sees every publish or none.
  std::printf("\napplying update: +(1 -> 399), +(399 -> 9), -(1 -> 2)\n");
  const Status st = router.SubmitUpdate(
      GraphDelta{}.Insert(1, 399).Insert(399, 9).Delete(1, 2));
  std::printf("  update %s; shard versions now:", st.ok() ? "ok" : "failed");
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    std::printf(" %llu",
                static_cast<unsigned long long>(router.shard(s).version()));
  }
  std::printf("\n\nquery stream (after update):\n");
  ServeOne(router, Query{1, 9, 4}, 100);
  ServeOne(router, Query{0, 399, 2}, 100);  // the new edges may open this up

  std::printf("\nper-shard work:\n");
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    const ShardEngine::Stats ss = router.shard(s).stats();
    std::printf("  shard %u: %llu local queries, %llu frames, %llu "
                "continuations out, %llu paths emitted, %llu updates\n",
                s, static_cast<unsigned long long>(ss.local_queries),
                static_cast<unsigned long long>(ss.frames_processed),
                static_cast<unsigned long long>(ss.continuations_out),
                static_cast<unsigned long long>(ss.paths_emitted),
                static_cast<unsigned long long>(ss.updates));
  }
  const ShardRouter::Stats rs = router.stats();
  std::printf("router: %llu queries (%llu delegated, %llu stitched, %llu "
              "unsatisfiable), %llu updates, %llu frames / %llu "
              "continuations shipped\n",
              static_cast<unsigned long long>(rs.queries),
              static_cast<unsigned long long>(rs.delegated),
              static_cast<unsigned long long>(rs.stitched),
              static_cast<unsigned long long>(rs.unsatisfiable),
              static_cast<unsigned long long>(rs.updates),
              static_cast<unsigned long long>(rs.frames_sent),
              static_cast<unsigned long long>(rs.continuations_sent));

  // Everything above is also exported through the metric registry (the
  // §12 exposition the service scrapes); show the shard/router families.
  const std::string metrics = obs::DumpMetricsText();
  std::printf("\nregistry (shard/router families):\n");
  size_t pos = 0;
  while (pos < metrics.size()) {
    size_t eol = metrics.find('\n', pos);
    if (eol == std::string::npos) eol = metrics.size();
    const std::string line = metrics.substr(pos, eol - pos);
    if (line.find("pathenum_shard_") != std::string::npos ||
        line.find("pathenum_router_") != std::string::npos) {
      std::printf("  %s\n", line.c_str());
    }
    pos = eol + 1;
  }
  return 0;
}
