// Live-graph demo (DESIGN.md §7, §13): an AsyncEngine serving streaming
// hop-constrained path queries while edge updates land between them.
// Shows MVCC snapshot isolation (a query in flight across an update keeps
// its own version), streaming delivery through the sink contract, the
// cache surviving updates that happen far from the hot query, and the live
// oracle rejecting an unsatisfiable query at admission. Every ticket's
// count is checked against brute force on the graph at the ticket's
// snapshot version; the demo exits 1 on any mismatch.
//
// Build: cmake --build build --target live_updates && ./build/live_updates
#include <cstdio>
#include <vector>

#include "core/reference.h"
#include "graph/builder.h"
#include "graph/view.h"
#include "live/async_engine.h"

using namespace pathenum;

namespace {

/// Streams each path to stdout as it is found (the sink runs on a worker
/// thread; this demo only reads from the main thread after Wait()).
class PrintingSink : public PathSink {
 public:
  explicit PrintingSink(const char* tag) : tag_(tag) {}

  bool OnPath(std::span<const VertexId> path) override {
    std::printf("  [%s] path:", tag_);
    for (const VertexId v : path) std::printf(" %u", v);
    std::printf("\n");
    return true;
  }

 private:
  const char* tag_;
};

/// The graph at every version the engine publishes, replayed from the
/// same deltas: the ground truth each ticket is checked against.
class VersionedTruth {
 public:
  explicit VersionedTruth(const Graph& base) : view_(base) {
    graphs_.push_back(base);
  }

  void Apply(const GraphDelta& delta) {
    view_ = view_.Apply(delta, graphs_.size());
    graphs_.push_back(view_.Materialize());
  }

  /// Waits for `ticket` and compares its count with brute force on its
  /// snapshot version. Prints and returns false on a mismatch.
  bool Check(const char* what, const QueryTicket& ticket, const Query& q) {
    const uint64_t got = ticket.Wait().counters.num_results;
    const uint64_t version = ticket.snapshot_version();
    if (!ticket.ok() || version >= graphs_.size()) {
      std::printf("MISMATCH %s: ticket failed or version %llu unknown\n",
                  what, static_cast<unsigned long long>(version));
      return false;
    }
    const uint64_t want = CountPathsBruteForce(graphs_[version], q);
    if (got != want) {
      std::printf("MISMATCH %s: %llu paths at version %llu, brute force "
                  "%llu\n",
                  what, static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(version),
                  static_cast<unsigned long long>(want));
      return false;
    }
    return true;
  }

 private:
  GraphView view_;
  std::vector<Graph> graphs_;
};

}  // namespace

int main() {
  // A small two-community graph: the hot query lives in vertices 0..9,
  // the churn happens in 10..19, and no edge joins the two.
  GraphBuilder b(20);
  for (VertexId v = 0; v < 9; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(0, 2);
  b.AddEdge(2, 5);
  b.AddEdge(5, 9);
  for (VertexId v = 10; v < 19; ++v) b.AddEdge(v, v + 1);
  const Graph base = b.Build();

  AsyncEngineOptions opts;
  opts.num_workers = 2;
  opts.enable_oracle = true;
  AsyncEngine engine(base, opts);
  VersionedTruth truth(base);
  const Query hot{0, 9, 5};
  const Query unsat{0, 19, 5};  // across the communities: no path at all
  bool ok = true;

  // The oracle proves q(0, 19, 5) unsatisfiable: the ticket completes at
  // admission, before any index build.
  const auto check_unsat = [&](const char* what) {
    CountingSink sink;
    const QueryTicket t = engine.Submit(unsat, sink);
    ok &= truth.Check(what, t, unsat);
    const bool rejected = t.state() == QueryState::kUnsatisfiable;
    std::printf("%s: q(0, 19, 5) at version %llu %s\n", what,
                static_cast<unsigned long long>(t.snapshot_version()),
                rejected ? "rejected by the oracle" : "NOT rejected");
    ok &= rejected;
  };

  std::printf("version %llu: querying q(0, 9, 5)\n",
              static_cast<unsigned long long>(engine.version()));
  PrintingSink sink_v0("v0");
  ok &= truth.Check("v0", engine.Submit(hot, sink_v0), hot);
  check_unsat("before the update");

  // An update inside the hot neighborhood: a shortcut 2 -> 9 opens new
  // paths; the affected cache entries are evicted, far-away ones survive.
  std::printf("\napplying update: +(2 -> 9), +(12 -> 15), -(0 -> 2)\n");
  const GraphDelta update =
      GraphDelta{}.Insert(2, 9).Insert(12, 15).Delete(0, 2);
  engine.SubmitUpdate(update);
  truth.Apply(update);

  std::printf("version %llu: same query, new snapshot\n",
              static_cast<unsigned long long>(engine.version()));
  PrintingSink sink_v1("v1");
  const QueryTicket t1 = engine.Submit(hot, sink_v1);
  ok &= truth.Check("v1", t1, hot);
  std::printf("  -> %llu paths at version %llu\n",
              static_cast<unsigned long long>(
                  t1.Wait().counters.num_results),
              static_cast<unsigned long long>(t1.snapshot_version()));
  check_unsat("after the update");

  // Interleaved: queries submitted before an update keep their snapshot.
  std::vector<CountingSink> counts(4);
  std::vector<QueryTicket> tickets;
  tickets.push_back(engine.Submit(hot, counts[0]));
  tickets.push_back(engine.Submit(hot, counts[1]));
  const GraphDelta restore = GraphDelta{}.Insert(0, 2);  // the shortcut
  engine.SubmitUpdate(restore);
  truth.Apply(restore);
  tickets.push_back(engine.Submit(hot, counts[2]));
  tickets.push_back(engine.Submit(hot, counts[3]));

  std::printf("\ninterleaved submissions straddling an update:\n");
  for (size_t i = 0; i < tickets.size(); ++i) {
    ok &= truth.Check("interleaved", tickets[i], hot);
    std::printf("  query %zu: version %llu, %llu paths\n", i,
                static_cast<unsigned long long>(tickets[i].snapshot_version()),
                static_cast<unsigned long long>(counts[i].count()));
  }

  const AsyncEngine::Stats stats = engine.stats();
  std::printf(
      "\nengine: %llu queries, %llu updates, %llu oracle rejects, cache "
      "%llu hits / %llu misses (%llu evicted incrementally)\n",
      static_cast<unsigned long long>(stats.executed),
      static_cast<unsigned long long>(stats.updates),
      static_cast<unsigned long long>(stats.oracle_rejects),
      static_cast<unsigned long long>(stats.cache.result_hits +
                                      stats.cache.index_hits),
      static_cast<unsigned long long>(stats.cache.index_misses),
      static_cast<unsigned long long>(stats.cache.invalidation_evictions));
  std::printf("%s\n", ok ? "every answer matches brute force"
                         : "FAILED: a check above did not hold");
  return ok ? 0 : 1;
}
