// Query-lifecycle robustness tests (DESIGN.md §10): cooperative
// cancellation and deadlines across the serial, split and async front-ends,
// work budgets, terminal-state reporting, overload shedding, Status-based
// ingestion of untrusted graphs/deltas, ThreadPool teardown under load, and
// the deterministic fault-injection harness that drives the failure
// scenarios (slow index builds, allocation failures, mid-block trips).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/control.h"
#include "core/index.h"
#include "core/path_enum.h"
#include "core/reference.h"
#include "core/thread_pool.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/view.h"
#include "live/async_engine.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace pathenum {
namespace {

using testing::PaperExampleGraph;
using testing::PaperExampleQuery;
using testing::ToSet;

// Every test must leave the global fault registry clean, or an armed hook
// would leak into unrelated tests sharing the binary.
class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

/// Every delivered path must be a well-formed answer to `q` — the partial-
/// result guarantee: a cancelled/expired run may return fewer paths, never
/// wrong ones and never duplicates.
void ExpectValidPaths(const Graph& g,
                      const std::vector<std::vector<VertexId>>& paths,
                      const Query& q) {
  std::set<std::vector<VertexId>> seen;
  for (const auto& p : paths) {
    ASSERT_GE(p.size(), 2u);
    EXPECT_EQ(p.front(), q.source);
    EXPECT_EQ(p.back(), q.target);
    EXPECT_LE(p.size() - 1, q.hops);
    const std::set<VertexId> distinct(p.begin(), p.end());
    EXPECT_EQ(distinct.size(), p.size()) << "path is not simple";
    for (size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(g.HasEdge(p[i], p[i + 1]));
    }
    EXPECT_TRUE(seen.insert(p).second) << "duplicate path delivered";
  }
}

/// Records paths and fires a cancel token once `after` of them arrived,
/// while continuing to accept — cancellation, not a sink stop, must end the
/// run. Split tickets serialize sink calls, so no locking needed.
class CancelAfterSink : public PathSink {
 public:
  CancelAfterSink(CancelToken token, uint64_t after)
      : token_(std::move(token)), after_(after) {}

  bool OnPath(std::span<const VertexId> path) override {
    paths_.emplace_back(path.begin(), path.end());
    if (paths_.size() >= after_) token_.Cancel();
    return true;
  }

  const std::vector<std::vector<VertexId>>& paths() const { return paths_; }

 private:
  CancelToken token_;
  uint64_t after_;
  std::vector<std::vector<VertexId>> paths_;
};

/// Blocks inside OnPath until released — parks an AsyncEngine worker at a
/// deterministic point so tests can fill the admission queue behind it.
class GateSink : public PathSink {
 public:
  bool OnPath(std::span<const VertexId>) override {
    std::unique_lock<std::mutex> lock(mutex_);
    started_ = true;
    started_cv_.notify_all();
    release_cv_.wait(lock, [this] { return released_; });
    return false;  // one path is enough; wind the query down
  }

  void WaitStarted() {
    std::unique_lock<std::mutex> lock(mutex_);
    started_cv_.wait(lock, [this] { return started_; });
  }

  void Release() {
    const std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable started_cv_;
  std::condition_variable release_cv_;
  bool started_ = false;
  bool released_ = false;
};

// ---------------------------------------------------------------------------
// Control primitives
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, NullCancelTokenNeverFires) {
  const CancelToken token;
  EXPECT_FALSE(token.can_cancel());
  EXPECT_FALSE(token.cancelled());
  token.Cancel();  // no-op, not a crash
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.flag(), nullptr);
}

TEST_F(RobustnessTest, CancellableTokenSharesFlagAcrossCopies) {
  const CancelToken token = CancelToken::Cancellable();
  const CancelToken copy = token;
  EXPECT_TRUE(token.can_cancel());
  EXPECT_FALSE(copy.cancelled());
  token.Cancel();
  EXPECT_TRUE(copy.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST_F(RobustnessTest, QueryControlTripPrecedence) {
  QueryControl control;
  EXPECT_EQ(control.Check(0), QueryControl::Trip::kNone);
  control.work_budget_edges = 10;
  EXPECT_EQ(control.Check(10), QueryControl::Trip::kWorkBudget);
  control.deadline = Deadline::AfterMs(0.0);
  EXPECT_EQ(control.Check(10), QueryControl::Trip::kDeadline);
  control.cancel = CancelToken::Cancellable();
  control.cancel.Cancel();
  EXPECT_EQ(control.Check(10), QueryControl::Trip::kCancelled);
}

TEST_F(RobustnessTest, FaultHooksSkipAndCount) {
  int fired = 0;
  fault::Arm(fault::Site::kIoRead, [&fired] { ++fired; },
             /*skip_hits=*/2);
  fault::Hit(fault::Site::kIoRead);
  fault::Hit(fault::Site::kIoRead);
  EXPECT_EQ(fired, 0);  // first two hits pass through
  fault::Hit(fault::Site::kIoRead);
  fault::Hit(fault::Site::kIoRead);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(fault::HitCount(fault::Site::kIoRead), 4u);
  fault::Disarm(fault::Site::kIoRead);
  fault::Hit(fault::Site::kIoRead);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(fault::HitCount(fault::Site::kIoRead), 0u);
}

// ---------------------------------------------------------------------------
// Serial enumeration: cancellation, deadlines, work budget
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, CancelMidEnumerationDeliversValidPartialResult) {
  const Graph g = LayeredGraph(6, 8);  // 8^6 = 262144 paths
  const Query q{0, g.num_vertices() - 1, 7};
  const CancelToken token = CancelToken::Cancellable();
  CancelAfterSink sink(token, 100);
  EnumOptions opts;
  opts.cancel = token;

  PathEnumerator pe(g);
  const QueryStats stats = pe.Run(q, sink, opts);

  EXPECT_TRUE(stats.counters.cancelled);
  EXPECT_EQ(stats.counters.TerminalState(), QueryState::kCancelled);
  EXPECT_GE(sink.paths().size(), 100u);
  EXPECT_LT(sink.paths().size(), 262144u);
  ExpectValidPaths(g, sink.paths(), q);
}

TEST_F(RobustnessTest, WorkBudgetTruncatesDeterministically) {
  // Polls are countdown-gated (~8192 search steps), so the budget needs a
  // run long enough to reach a poll with the budget already blown.
  const Graph g = LayeredGraph(6, 8);  // 262144 paths
  const Query q{0, g.num_vertices() - 1, 7};
  EnumOptions opts;
  opts.work_budget_edges = 5000;

  PathEnumerator pe(g);
  CollectingSink sink;
  const QueryStats stats = pe.Run(q, sink, opts);

  EXPECT_TRUE(stats.counters.work_exceeded);
  EXPECT_EQ(stats.counters.TerminalState(), QueryState::kTruncated);
  EXPECT_LT(sink.paths().size(), 262144u);
  ExpectValidPaths(g, sink.paths(), q);

  // Clock-free budget: the same query stops at the same point every time.
  PathEnumerator pe2(g);
  CollectingSink sink2;
  const QueryStats stats2 = pe2.Run(q, sink2, opts);
  EXPECT_EQ(stats2.counters.edges_accessed, stats.counters.edges_accessed);
  EXPECT_EQ(sink2.paths().size(), sink.paths().size());
}

TEST_F(RobustnessTest, DeadlineDuringIndexBuildReturnsEmptyWellFormed) {
  // A slow BFS wave (fault hook) against a 1 ms budget: the build itself
  // must trip, returning an empty-but-well-formed result, not enumerate on
  // a half-built index.
  const fault::ScopedFault slow(fault::Site::kIndexBuildWave, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  const Graph g = PaperExampleGraph();
  EnumOptions opts;
  opts.time_limit_ms = 1.0;

  PathEnumerator pe(g);
  CollectingSink sink;
  const QueryStats stats = pe.Run(PaperExampleQuery(), sink, opts);

  EXPECT_TRUE(stats.counters.timed_out);
  EXPECT_EQ(stats.counters.TerminalState(), QueryState::kDeadlineExceeded);
  EXPECT_TRUE(sink.paths().empty());
  EXPECT_EQ(stats.counters.num_results, 0u);
}

TEST_F(RobustnessTest, CancelDuringIndexBuildReportsCancelled) {
  const CancelToken token = CancelToken::Cancellable();
  const fault::ScopedFault trip(fault::Site::kIndexBuildWave,
                                [token] { token.Cancel(); });
  const Graph g = PaperExampleGraph();
  EnumOptions opts;
  opts.cancel = token;

  PathEnumerator pe(g);
  CollectingSink sink;
  const QueryStats stats = pe.Run(PaperExampleQuery(), sink, opts);

  EXPECT_TRUE(stats.counters.cancelled);
  EXPECT_EQ(stats.counters.TerminalState(), QueryState::kCancelled);
  EXPECT_TRUE(sink.paths().empty());
}

TEST_F(RobustnessTest, DeadlineMidJoinMaterializationDeliversValidPrefix) {
  // Force IDX-JOIN and stall tuple materialization: the deadline must trip
  // inside the join, and whatever reached the sink must be real paths.
  const fault::ScopedFault slow(fault::Site::kJoinMaterialize, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  const Graph g = LayeredGraph(4, 6);
  const Query q{0, g.num_vertices() - 1, 5};
  EnumOptions opts;
  opts.method = Method::kJoin;
  opts.time_limit_ms = 1.0;

  PathEnumerator pe(g);
  CollectingSink sink;
  const QueryStats stats = pe.Run(q, sink, opts);

  EXPECT_TRUE(stats.counters.timed_out);
  EXPECT_EQ(stats.counters.TerminalState(), QueryState::kDeadlineExceeded);
  EXPECT_LT(sink.paths().size(), 1296u);
  ExpectValidPaths(g, sink.paths(), q);
}

// ---------------------------------------------------------------------------
// Batch engine: terminal states, rejected queries, split-mode cancellation
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, BatchReportsPerQueryTerminalStates) {
  const Graph g = PaperExampleGraph();
  QueryEngine engine(g, {.num_workers = 2});

  const Query good = PaperExampleQuery();
  const Query bad{g.num_vertices() + 7, 1, 4};  // source out of range
  const Query self{1, 1, 4};                    // source == target
  std::vector<Query> queries = {good, bad, self, good};
  std::vector<CollectingSink> sinks(queries.size());
  std::vector<PathSink*> sink_ptrs;
  for (auto& s : sinks) sink_ptrs.push_back(&s);

  BatchOptions opts;
  opts.query.result_limit = 2;  // the last duplicate: truncated, not kOk
  opts.dedup_identical = false;
  const BatchResult result = engine.RunBatch(queries, sink_ptrs, opts);

  ASSERT_EQ(result.states.size(), queries.size());
  EXPECT_EQ(result.states[0], QueryState::kTruncated);
  EXPECT_EQ(result.states[1], QueryState::kRejected);
  EXPECT_EQ(result.states[2], QueryState::kRejected);
  EXPECT_EQ(result.states[3], QueryState::kTruncated);
  EXPECT_FALSE(result.errors[1].empty());
  EXPECT_FALSE(result.errors[2].empty());
  EXPECT_TRUE(result.errors[0].empty());
  // The rejected queries never ran and did not disturb their neighbors.
  EXPECT_EQ(result.stats[1].counters.num_results, 0u);
  EXPECT_EQ(sinks[0].paths().size(), 2u);
  EXPECT_EQ(sinks[3].paths().size(), 2u);

  BatchOptions full;
  full.dedup_identical = false;
  const BatchResult ok = engine.RunBatch(
      std::vector<Query>{good}, std::vector<PathSink*>{&sinks[1]}, full);
  EXPECT_EQ(ok.states[0], QueryState::kOk);
}

TEST_F(RobustnessTest, CancelRacesSplitFanout) {
  const Graph g = LayeredGraph(6, 8);
  const Query q{0, g.num_vertices() - 1, 7};
  const CancelToken token = CancelToken::Cancellable();
  CancelAfterSink sink(token, 100);

  QueryEngine engine(g, {.num_workers = 4});
  BatchOptions opts;
  opts.query.cancel = token;
  opts.split_branches = true;
  std::vector<Query> queries = {q};
  std::vector<PathSink*> sinks = {&sink};
  const BatchResult result = engine.RunBatch(queries, sinks, opts);

  ASSERT_EQ(result.states.size(), 1u);
  EXPECT_EQ(result.states[0], QueryState::kCancelled);
  EXPECT_TRUE(result.stats[0].counters.cancelled);
  EXPECT_GE(sink.paths().size(), 100u);
  EXPECT_LT(sink.paths().size(), 262144u);
  ExpectValidPaths(g, sink.paths(), q);
}

TEST_F(RobustnessTest, SplitDeadlineDuringBuildShortCircuits) {
  const fault::ScopedFault slow(fault::Site::kIndexBuildWave, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  const Graph g = PaperExampleGraph();
  QueryEngine engine(g, {.num_workers = 2});
  BatchOptions opts;
  opts.query.time_limit_ms = 1.0;
  opts.split_branches = true;
  CollectingSink sink;
  std::vector<Query> queries = {PaperExampleQuery()};
  std::vector<PathSink*> sinks = {&sink};
  const BatchResult result = engine.RunBatch(queries, sinks, opts);

  EXPECT_EQ(result.states[0], QueryState::kDeadlineExceeded);
  EXPECT_TRUE(sink.paths().empty());
}

TEST_F(RobustnessTest, CacheBuildFailureFailsOverAndRecovers) {
  // An "allocation failure" inside the cached build: every query of the
  // batch gets kError (no deadlock — the single-flight latch must be
  // released on the failure path), and once the fault clears the same
  // engine serves the query normally.
  const Graph g = PaperExampleGraph();
  QueryEngine engine(g, {.num_workers = 2, .enable_cache = true});
  const Query q = PaperExampleQuery();
  std::vector<Query> queries = {q, q};
  std::vector<CollectingSink> sinks(2);
  std::vector<PathSink*> sink_ptrs = {&sinks[0], &sinks[1]};
  BatchOptions opts;
  opts.dedup_identical = false;  // both workers race the same cache key

  {
    const fault::ScopedFault boom(fault::Site::kCacheBuild, [] {
      throw std::runtime_error("injected: index allocation failed");
    });
    const BatchResult result = engine.RunBatch(queries, sink_ptrs, opts);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(result.states[i], QueryState::kError);
      EXPECT_FALSE(result.errors[i].empty());
    }
  }

  const BatchResult result = engine.RunBatch(queries, sink_ptrs, opts);
  EXPECT_EQ(result.states[0], QueryState::kOk);
  EXPECT_EQ(result.states[1], QueryState::kOk);
  EXPECT_EQ(ToSet(sinks[0].paths()), ToSet(BruteForcePaths(g, q)));
}

TEST_F(RobustnessTest, ClaimFaultFailsOnlyTheClaimedQuery) {
  // A fault at the queue's claim step completes the claimed query as
  // kError with the fault's message; the worker keeps serving. One worker,
  // so every later query runs on the worker that hit the fault.
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  std::atomic<bool> fired{false};
  const auto throw_once = [&fired] {
    if (!fired.exchange(true)) {
      throw std::runtime_error("injected: claim failed");
    }
  };

  {
    AsyncEngineOptions opts;
    opts.num_workers = 1;
    AsyncEngine engine(g, opts);
    const fault::ScopedFault boom(fault::Site::kQueueClaim, throw_once);
    CollectingSink first;
    CollectingSink second;
    const QueryTicket t1 = engine.Submit(q, first);
    const QueryTicket t2 = engine.Submit(q, second);
    t1.Wait();
    t2.Wait();
    EXPECT_EQ(t1.state(), QueryState::kError);
    EXPECT_EQ(t1.error(), "injected: claim failed");
    EXPECT_TRUE(first.paths().empty());
    EXPECT_EQ(t2.state(), QueryState::kOk);
    EXPECT_EQ(ToSet(second.paths()), ToSet(BruteForcePaths(g, q)));
    engine.Shutdown();
  }

  fired = false;
  const Graph er = ErdosRenyi(40, 300, 5);
  const std::vector<Query> queries = {{0, 10, 4}, {1, 20, 3}, {2, 30, 4}};
  std::vector<CountingSink> sinks(queries.size());
  std::vector<PathSink*> sink_ptrs;
  for (CountingSink& sink : sinks) sink_ptrs.push_back(&sink);
  QueryEngine engine(er, {.num_workers = 1});
  const fault::ScopedFault boom(fault::Site::kQueueClaim, throw_once);
  const BatchResult result = engine.RunBatch(queries, sink_ptrs);
  // Without a cache the queue keeps batch order: query 0 is claimed first.
  EXPECT_EQ(result.states[0], QueryState::kError);
  EXPECT_EQ(result.errors[0], "injected: claim failed");
  EXPECT_EQ(sinks[0].count(), 0u);
  for (size_t i = 1; i < queries.size(); ++i) {
    CountingSink serial;
    PathEnumerator(er).Run(queries[i], serial);
    EXPECT_EQ(result.states[i], QueryState::kOk) << "query " << i;
    EXPECT_EQ(sinks[i].count(), serial.count()) << "query " << i;
    EXPECT_EQ(result.stats[i].counters.num_results, serial.count());
  }
}

TEST_F(RobustnessTest, NonStandardThrowFailsOnlyItsQuery) {
  // A sink throwing something that is not a std::exception fails its own
  // query as kError; the worker survives to serve the next one.
  class ThrowsInt : public PathSink {
   public:
    bool OnPath(std::span<const VertexId>) override { throw 42; }
  };
  const Graph g = PaperExampleGraph();
  const Query q = PaperExampleQuery();
  AsyncEngineOptions opts;
  opts.num_workers = 1;
  AsyncEngine engine(g, opts);
  ThrowsInt bad;
  CollectingSink good;
  const QueryTicket t1 = engine.Submit(q, bad);
  const QueryTicket t2 = engine.Submit(q, good);
  t1.Wait();
  t2.Wait();
  EXPECT_EQ(t1.state(), QueryState::kError);
  EXPECT_EQ(t1.error(), "unknown exception");
  EXPECT_EQ(t2.state(), QueryState::kOk);
  EXPECT_EQ(ToSet(good.paths()), ToSet(BruteForcePaths(g, q)));
}

TEST_F(RobustnessTest, ThrowMidAssemblyLeavesTheBuilderClean) {
  // A fault thrown after the builder wrote its staging vertex -> slot
  // lookup must not leak into the next build on the same builder: the
  // next query's s = v4 lies in the failed query's X but not in its own
  // (v4 has no edge to v3), so a stale entry would hand it a source slot.
  const Graph g = PaperExampleGraph();
  IndexBuilder builder;
  {
    const fault::ScopedFault boom(fault::Site::kIndexAdjacency, [] {
      throw std::runtime_error("injected: adjacency allocation failed");
    });
    EXPECT_THROW(builder.Build(g, PaperExampleQuery()), std::runtime_error);
  }
  const LightweightIndex idx =
      builder.Build(g, Query{testing::kV4, testing::kV3, 1});
  EXPECT_EQ(idx.num_vertices(), 0u);
  EXPECT_EQ(idx.source_slot(), kInvalidSlot);
  EXPECT_EQ(idx.target_slot(), kInvalidSlot);
  const LightweightIndex full = builder.Build(g, PaperExampleQuery());
  EXPECT_EQ(full.num_vertices(), 9u);
  EXPECT_EQ(full.num_edges(), 13u);
}

TEST_F(RobustnessTest, InterruptedCachedBuildIsNotPublished) {
  // A deadline-interrupted build must fail over like a throwing one: the
  // query reports kDeadlineExceeded, the stub is never cached, and the next
  // run (fault cleared, no deadline) gets the full result set.
  const Graph g = PaperExampleGraph();
  QueryEngine engine(g, {.num_workers = 1, .enable_cache = true});
  const Query q = PaperExampleQuery();
  std::vector<Query> queries = {q};
  CollectingSink first;
  std::vector<PathSink*> sinks = {&first};

  {
    const fault::ScopedFault slow(fault::Site::kIndexBuildWave, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    });
    BatchOptions opts;
    opts.query.time_limit_ms = 1.0;
    const BatchResult result = engine.RunBatch(queries, sinks, opts);
    EXPECT_EQ(result.states[0], QueryState::kDeadlineExceeded);
    EXPECT_TRUE(first.paths().empty());
  }

  CollectingSink second;
  sinks[0] = &second;
  const BatchResult result = engine.RunBatch(queries, sinks, {});
  EXPECT_EQ(result.states[0], QueryState::kOk);
  EXPECT_EQ(ToSet(second.paths()), ToSet(BruteForcePaths(g, q)));
}

// ---------------------------------------------------------------------------
// AsyncEngine: per-ticket cancel, shed policies, teardown under load
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, TicketCancelWhileQueuedSkipsExecution) {
  AsyncEngine engine(PaperExampleGraph(),
                     {.num_workers = 1, .max_queue = 8});
  GateSink gate;
  const QueryTicket t1 = engine.Submit(PaperExampleQuery(), gate);
  gate.WaitStarted();  // the only worker is now parked inside q1's sink

  CountingSink counter;
  const QueryTicket t2 = engine.Submit(PaperExampleQuery(), counter);
  t2.Cancel();
  gate.Release();

  t2.Wait();
  EXPECT_EQ(t2.state(), QueryState::kCancelled);
  EXPECT_TRUE(t2.ok());
  EXPECT_EQ(counter.count(), 0u);  // never ran, sink untouched
  EXPECT_TRUE(DeliveredResults(t2.state()));

  t1.Wait();
  EXPECT_EQ(t1.state(), QueryState::kTruncated);  // sink stop
  EXPECT_EQ(engine.stats().cancelled_before_run, 1u);
}

TEST_F(RobustnessTest, TicketCancelWhileRunningWindsDown) {
  const Graph g = LayeredGraph(6, 8);
  AsyncEngine engine(g, {.num_workers = 2});
  const Query q{0, g.num_vertices() - 1, 7};
  const CancelToken token = CancelToken::Cancellable();
  CancelAfterSink sink(token, 100);
  EnumOptions opts;
  opts.cancel = token;  // the ticket shares this token

  const QueryTicket t = engine.Submit(q, sink, opts);
  const QueryStats& stats = t.Wait();

  EXPECT_EQ(t.state(), QueryState::kCancelled);
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(stats.counters.cancelled);
  EXPECT_GE(sink.paths().size(), 100u);
  EXPECT_LT(sink.paths().size(), 262144u);
  ExpectValidPaths(g, sink.paths(), q);
}

TEST_F(RobustnessTest, SplitTicketCancelTerminatesAllUnits) {
  const Graph g = LayeredGraph(6, 8);
  AsyncEngine engine(g, {.num_workers = 4});
  const Query q{0, g.num_vertices() - 1, 7};
  const CancelToken token = CancelToken::Cancellable();
  CancelAfterSink sink(token, 100);
  SubmitOptions opts;
  opts.query.cancel = token;
  opts.split_branches = true;

  const QueryTicket t = engine.Submit(q, sink, opts);
  t.Wait();

  EXPECT_EQ(t.state(), QueryState::kCancelled);
  EXPECT_TRUE(t.ok());
  EXPECT_LT(sink.paths().size(), 262144u);
  ExpectValidPaths(g, sink.paths(), q);
  engine.Drain();  // no stuck units: drain returns
}

TEST_F(RobustnessTest, RejectNewestShedReturnsRetryAfterHint) {
  AsyncEngine engine(PaperExampleGraph(),
                     {.num_workers = 1, .max_queue = 1});
  GateSink gate;
  const QueryTicket t1 = engine.Submit(PaperExampleQuery(), gate);
  gate.WaitStarted();
  CountingSink c2;
  const QueryTicket t2 = engine.Submit(PaperExampleQuery(), c2);  // fills q

  CountingSink c3;
  double retry_after_ms = -1.0;
  const QueryTicket t3 =
      engine.TrySubmit(PaperExampleQuery(), c3, SubmitOptions{},
                       &retry_after_ms);
  EXPECT_FALSE(t3.valid());
  EXPECT_GT(retry_after_ms, 0.0);
  EXPECT_GE(engine.stats().queue_rejects, 1u);

  gate.Release();
  t1.Wait();
  t2.Wait();
  EXPECT_EQ(t2.state(), QueryState::kOk);
}

TEST_F(RobustnessTest, CancelOldestShedEvictsQueuedTicket) {
  AsyncEngineOptions eopts;
  eopts.num_workers = 1;
  eopts.max_queue = 1;
  eopts.shed_policy = AsyncEngineOptions::ShedPolicy::kCancelOldest;
  AsyncEngine engine(PaperExampleGraph(), eopts);

  GateSink gate;
  const QueryTicket t1 = engine.Submit(PaperExampleQuery(), gate);
  gate.WaitStarted();
  CountingSink c2, c3;
  const QueryTicket t2 = engine.Submit(PaperExampleQuery(), c2);  // queued
  const QueryTicket t3 = engine.Submit(PaperExampleQuery(), c3);  // sheds t2

  t2.Wait();  // completed synchronously by the shed, before gate release
  EXPECT_EQ(t2.state(), QueryState::kCancelled);
  EXPECT_EQ(c2.count(), 0u);

  gate.Release();
  t3.Wait();
  EXPECT_EQ(t3.state(), QueryState::kOk);
  EXPECT_GT(c3.count(), 0u);
  EXPECT_EQ(engine.stats().sheds, 1u);
}

/// Two disconnected path components, 0..9 and 10..19: every cross pair is
/// oracle-certified unsatisfiable.
Graph TwoPathComponents() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 9; ++v) edges.push_back({v, v + 1});
  for (VertexId v = 10; v < 19; ++v) edges.push_back({v, v + 1});
  return Graph::FromEdges(20, edges);
}

/// A one-worker oracle engine with a one-slot admission queue: once the
/// worker is parked in a GateSink and one ticket is queued, the next
/// blocking Submit meets the full-queue policy.
AsyncEngineOptions FullQueueOracleOptions(
    AsyncEngineOptions::ShedPolicy policy) {
  AsyncEngineOptions eopts;
  eopts.num_workers = 1;
  eopts.max_queue = 1;
  eopts.shed_policy = policy;
  eopts.enable_oracle = true;
  eopts.oracle.background_relabel = false;
  return eopts;
}

TEST_F(RobustnessTest, OracleShedSubmitNeverEvictsQueuedTicket) {
  // The oracle verdict precedes the queue-full policy: an unsatisfiable
  // Submit needs no slot, so under kCancelOldest it must not shed the
  // queued ticket to make room for itself.
  AsyncEngine engine(
      TwoPathComponents(),
      FullQueueOracleOptions(AsyncEngineOptions::ShedPolicy::kCancelOldest));
  GateSink gate;
  const QueryTicket running = engine.Submit(Query{0, 9, 9}, gate);
  gate.WaitStarted();
  CountingSink queued_sink;
  const QueryTicket queued = engine.Submit(Query{0, 5, 6}, queued_sink);

  CountingSink unsat_sink;
  const QueryTicket unsat = engine.Submit(Query{0, 15, 6}, unsat_sink);
  unsat.Wait();
  EXPECT_EQ(unsat.state(), QueryState::kUnsatisfiable);

  gate.Release();
  running.Wait();
  queued.Wait();
  EXPECT_EQ(queued.state(), QueryState::kOk);
  EXPECT_EQ(queued_sink.count(), 1u);
  EXPECT_EQ(engine.stats().sheds, 0u);
}

TEST_F(RobustnessTest, OracleShedSubmitNeverWaitsForQueueSpace) {
  // Under kRejectNewest a blocking Submit waits for queue space — but an
  // unsatisfiable one needs none and must return at once, as TrySubmit
  // does. Released after the deadline, a Submit wrongly waiting behind the
  // parked worker fails this test instead of hanging it.
  AsyncEngine engine(
      TwoPathComponents(),
      FullQueueOracleOptions(AsyncEngineOptions::ShedPolicy::kRejectNewest));
  GateSink gate;
  const QueryTicket running = engine.Submit(Query{0, 9, 9}, gate);
  gate.WaitStarted();
  CountingSink queued_sink;
  const QueryTicket queued = engine.Submit(Query{0, 5, 6}, queued_sink);

  CountingSink unsat_sink;
  std::future<QueryTicket> submit = std::async(std::launch::async, [&] {
    return engine.Submit(Query{0, 15, 6}, unsat_sink);
  });
  const bool returned = submit.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  gate.Release();
  const QueryTicket unsat = submit.get();
  EXPECT_TRUE(returned) << "Submit waited for queue space";
  unsat.Wait();
  EXPECT_EQ(unsat.state(), QueryState::kUnsatisfiable);

  running.Wait();
  queued.Wait();
  EXPECT_EQ(queued.state(), QueryState::kOk);
}

TEST_F(RobustnessTest, ShutdownCancelPendingCompletesQueuedAsCancelled) {
  auto engine = std::make_unique<AsyncEngine>(
      PaperExampleGraph(), AsyncEngineOptions{.num_workers = 1,
                                              .max_queue = 8});
  GateSink gate;
  const QueryTicket t1 = engine->Submit(PaperExampleQuery(), gate);
  gate.WaitStarted();
  CountingSink c2, c3;
  const QueryTicket t2 = engine->Submit(PaperExampleQuery(), c2);
  const QueryTicket t3 = engine->Submit(PaperExampleQuery(), c3);

  std::thread shutdown([&engine] { engine->Shutdown(true); });
  // Shutdown(cancel_pending) completes the queued tickets immediately, even
  // while the in-flight query still holds the worker.
  t2.Wait();
  t3.Wait();
  EXPECT_EQ(t2.state(), QueryState::kCancelled);
  EXPECT_EQ(t3.state(), QueryState::kCancelled);
  EXPECT_EQ(c2.count(), 0u);
  EXPECT_EQ(c3.count(), 0u);

  gate.Release();  // let the in-flight query finish; Shutdown can join
  shutdown.join();
  t1.Wait();
  EXPECT_TRUE(DeliveredResults(t1.state()));

  CountingSink c4;
  const QueryTicket t4 = engine->Submit(PaperExampleQuery(), c4);
  t4.Wait();
  EXPECT_EQ(t4.state(), QueryState::kRejected);
  EXPECT_FALSE(t4.ok());
}

TEST_F(RobustnessTest, TrySubmitUpdateValidatesDelta) {
  AsyncEngine engine(PaperExampleGraph(), {.num_workers = 1});
  const uint64_t v0 = engine.version();

  GraphDelta bad;
  bad.Insert(0, 10'000);  // outside the 10-vertex base space
  const Status rejected = engine.TrySubmitUpdate(bad);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.version(), v0);  // nothing applied

  GraphDelta good;
  good.Insert(testing::kV7, testing::kT);
  uint64_t new_version = 0;
  const Status applied = engine.TrySubmitUpdate(good, &new_version);
  EXPECT_TRUE(applied.ok());
  EXPECT_GT(new_version, v0);

  engine.Shutdown();
  const Status after = engine.TrySubmitUpdate(good);
  EXPECT_EQ(after.code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// ThreadPool teardown
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, ThreadPoolShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op, destructor another
}

TEST_F(RobustnessTest, ThreadPoolShutdownUnderLoadRunsPendingGeneration) {
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::thread caller([&] {
    pool.RunOnAllWorkers([&](uint32_t) {
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
  });
  while (started.load() == 0) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  pool.Shutdown();  // races the in-flight generation
  caller.join();    // must unblock normally, all invocations complete
  EXPECT_EQ(finished.load(), 4);
}

// ---------------------------------------------------------------------------
// Untrusted graph ingestion (Status-based I/O)
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, EdgeListMalformedLineReportsLineNumber) {
  std::istringstream in("0 1\nbogus line\n1 2\n");
  const StatusOr<Graph> g = TryReadEdgeList(in);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST_F(RobustnessTest, EdgeListVertexIdOutOfRangeRejected) {
  std::istringstream in("0 4294967295\n");
  const StatusOr<Graph> g = TryReadEdgeList(in);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, EdgeListMissingWeightColumnRejected) {
  std::istringstream in("0 1 0.5\n1 2\n");
  const StatusOr<Graph> g =
      TryReadEdgeList(in, {.format = EdgeListFormat::kWeighted});
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST_F(RobustnessTest, StrictModeRejectsDuplicatesAndSelfLoops) {
  {
    std::istringstream in("0 1\n0 1\n");
    const StatusOr<Graph> g = TryReadEdgeList(in, {.strict = true});
    ASSERT_FALSE(g.ok());
    EXPECT_NE(g.status().message().find("duplicate"), std::string::npos);
  }
  {
    std::istringstream in("1 1\n");
    const StatusOr<Graph> g = TryReadEdgeList(in, {.strict = true});
    ASSERT_FALSE(g.ok());
    EXPECT_NE(g.status().message().find("self-loop"), std::string::npos);
  }
  {
    // The same inputs are tolerated (and deduplicated) without strict.
    std::istringstream in("0 1\n0 1\n1 1\n");
    const StatusOr<Graph> g = TryReadEdgeList(in);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().num_edges(), 1u);
  }
}

TEST_F(RobustnessTest, MissingFilesReportNotFound) {
  EXPECT_EQ(TryLoadEdgeList("/nonexistent/graph.txt").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(TryLoadBinary("/nonexistent/graph.bin").status().code(),
            StatusCode::kNotFound);
}

TEST_F(RobustnessTest, ThrowingWrappersStillThrow) {
  std::istringstream in("not a graph\n");
  EXPECT_THROW(ReadEdgeList(in), std::runtime_error);
  EXPECT_THROW(LoadBinary("/nonexistent/graph.bin"), std::runtime_error);
}

TEST_F(RobustnessTest, BinaryRoundTripThroughStatusApi) {
  const Graph g = PaperExampleGraph();
  const std::string path =
      ::testing::TempDir() + "pathenum_robust_roundtrip.bin";
  SaveBinary(g, path);
  const StatusOr<Graph> loaded = TryLoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.value().num_edges(), g.num_edges());
  std::filesystem::remove(path);
}

TEST_F(RobustnessTest, TruncatedBinaryReportsDataLoss) {
  const Graph g = PaperExampleGraph();
  const std::string path =
      ::testing::TempDir() + "pathenum_robust_truncated.bin";
  SaveBinary(g, path);
  std::filesystem::resize_file(path, 12);  // cut inside the header
  const StatusOr<Graph> loaded = TryLoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

TEST_F(RobustnessTest, ForeignMagicReportsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "pathenum_robust_magic.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const char junk[32] = "definitely not a pathenum graph";
    out.write(junk, sizeof(junk));
  }
  const StatusOr<Graph> loaded = TryLoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST_F(RobustnessTest, CorruptLengthFieldFailsCleanlyInsteadOfAllocating) {
  const Graph g = PaperExampleGraph();
  const std::string path =
      ::testing::TempDir() + "pathenum_robust_badlen.bin";
  SaveBinary(g, path);
  {
    // The sources-array length sits right after magic(8) + vertices(8) +
    // flags(1). Claim ~10^18 edges: the loader must refuse, not allocate.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(17);
    const uint64_t absurd = uint64_t{1} << 60;
    f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  const StatusOr<Graph> loaded = TryLoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

TEST_F(RobustnessTest, CheckDeltaRejectsOutOfRangeEndpoints) {
  GraphDelta delta;
  delta.Insert(2, 3).Delete(1, 99);
  EXPECT_TRUE(CheckDelta(delta, 100).ok());
  EXPECT_EQ(CheckDelta(delta, 50).code(), StatusCode::kInvalidArgument);
  delta = GraphDelta{};
  delta.Insert(200, 0);
  EXPECT_EQ(CheckDelta(delta, 100).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Standing live oracle under adverse conditions (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, OracleShedStaysSoundUnderFaultsAndCancel) {
  // The oracle's never-wrongly-reject contract must survive the worst of
  // the lifecycle machinery at once: slow faulted index builds, tickets
  // cancelled at random, and an update stream racing the submissions.
  // Every kUnsatisfiable ticket must belong to a version whose true answer
  // is empty; every kOk ticket must report exactly its version's truth;
  // cancelled tickets may deliver any prefix. (Runs under TSan in CI.)
  const VertexId n = 22;
  const Graph base = ErdosRenyi(n, 33, /*seed=*/73);  // sparse: many unsat
  const Query q{0, n - 1, 4};

  constexpr int kEpochs = 8;
  std::vector<GraphDelta> deltas;
  std::vector<uint64_t> expected;
  {
    Rng rng(19);
    GraphView view(base);
    expected.push_back(BruteForcePaths(base, q).size());
    for (int e = 0; e < kEpochs; ++e) {
      GraphDelta d;
      for (int i = 0; i < 4; ++i) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (e < kEpochs / 2 && rng.NextBounded(3) == 0) {
          d.Delete(u, v);
        } else {
          d.Insert(u, v);
        }
      }
      // Halfway through, a bridge makes q satisfiable (and the later
      // insert-only epochs keep it so): the stream deterministically
      // exercises both sides of the admission gate.
      if (e == kEpochs / 2) d.Insert(0, 10).Insert(10, n - 1);
      deltas.push_back(d);
      view = view.Apply(d, e + 1);
      expected.push_back(BruteForcePaths(view.Materialize(), q).size());
    }
    ASSERT_EQ(expected.front(), 0u);  // version 0: oracle-rejectable
    ASSERT_GT(expected.back(), 0u);   // final versions: must execute
  }

  const fault::ScopedFault slow(fault::Site::kIndexBuildWave, [] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  AsyncEngineOptions opts;
  opts.num_workers = 2;
  opts.enable_oracle = true;
  opts.oracle.background_relabel = false;
  opts.oracle.relabel_budget = 6;
  AsyncEngine engine(base, opts);

  std::vector<CountingSink> sinks(kEpochs * 6);
  std::vector<QueryTicket> tickets;
  size_t slot = 0;
  for (int e = 0; e < kEpochs; ++e) {
    for (int i = 0; i < 6; ++i, ++slot) {
      tickets.push_back(engine.Submit(q, sinks[slot]));
      if (slot % 3 == 2) tickets.back().Cancel();
    }
    engine.SubmitUpdate(deltas[e]);
  }

  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryStats& stats = tickets[i].Wait();
    ASSERT_TRUE(tickets[i].ok()) << tickets[i].error();
    const uint64_t version = tickets[i].snapshot_version();
    ASSERT_LT(version, expected.size());
    switch (tickets[i].state()) {
      case QueryState::kUnsatisfiable:
        ASSERT_EQ(expected[version], 0u)
            << "ticket " << i << " wrongly rejected at version " << version;
        ASSERT_EQ(stats.counters.num_results, 0u);
        break;
      case QueryState::kOk:
        ASSERT_EQ(stats.counters.num_results, expected[version])
            << "ticket " << i << " on version " << version;
        break;
      case QueryState::kCancelled:
        ASSERT_LE(stats.counters.num_results, expected[version]);
        break;
      default:
        FAIL() << "unexpected terminal state "
               << QueryStateName(tickets[i].state()) << " for ticket " << i;
    }
  }
  // The run must have exercised both sides of the gate.
  engine.Drain();  // ticket completion precedes the executed_ bookkeeping
  const AsyncEngine::Stats st = engine.stats();
  EXPECT_GT(st.oracle_rejects, 0u);
  EXPECT_GT(st.executed, 0u);
}

}  // namespace
}  // namespace pathenum
