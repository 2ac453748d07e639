// Tests for the PathSink implementations and the branch fan-out gate and
// its per-participant adapters (DESIGN.md §8), including the
// exact-at-the-limit regression — delivered() must pin to the limit, never
// limit + 1, under concurrency — and block deferral while another
// participant is inside the caller's sink.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/sink.h"
#include "util/timer.h"

namespace pathenum {
namespace {

std::vector<VertexId> P(std::initializer_list<VertexId> v) { return v; }

TEST(CountingSinkTest, CountsAndSumsLengths) {
  CountingSink sink;
  EXPECT_TRUE(sink.OnPath(P({0, 1})));
  EXPECT_TRUE(sink.OnPath(P({0, 2, 1})));
  EXPECT_TRUE(sink.OnPath(P({0, 3, 4, 1})));
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.total_length(), 1u + 2u + 3u);
}

TEST(CollectingSinkTest, StoresCopies) {
  CollectingSink sink;
  std::vector<VertexId> buf{5, 6, 7};
  sink.OnPath(buf);
  buf[0] = 99;  // the sink must have copied, not referenced
  ASSERT_EQ(sink.paths().size(), 1u);
  EXPECT_EQ(sink.paths()[0][0], 5u);
  EXPECT_FALSE(sink.truncated());
}

TEST(CollectingSinkTest, CapStopsEnumeration) {
  CollectingSink sink(2);
  EXPECT_TRUE(sink.OnPath(P({0, 1})));
  EXPECT_FALSE(sink.OnPath(P({0, 2, 1}))) << "cap reached: signal stop";
  EXPECT_FALSE(sink.OnPath(P({0, 3, 1})));
  EXPECT_EQ(sink.paths().size(), 2u);
  EXPECT_TRUE(sink.truncated());
}

TEST(CollectingSinkTest, CapZeroAcceptsNothing) {
  CollectingSink sink(0);
  EXPECT_FALSE(sink.OnPath(P({0, 1})));
  EXPECT_TRUE(sink.paths().empty());
  EXPECT_TRUE(sink.truncated());
}

TEST(CallbackSinkTest, ForwardsReturnValue) {
  int calls = 0;
  CallbackSink sink([&](std::span<const VertexId> p) {
    ++calls;
    return p.size() < 3;
  });
  EXPECT_TRUE(sink.OnPath(P({0, 1})));
  EXPECT_FALSE(sink.OnPath(P({0, 2, 1})));
  EXPECT_EQ(calls, 2);
}

// --- BranchGate / BranchSink (the fan-out adapters) -------------------------

TEST(BranchSinkTest, SerializedModeStopsAtTheLimitExactly) {
  Timer timer;
  BranchGate gate(/*result_limit=*/3, /*response_target=*/2, timer);
  CountingSink inner;
  DeferredBlocks deferred;
  BranchSink sink(gate, inner, deferred);
  const auto path = P({0, 1});
  EXPECT_TRUE(sink.OnPath(path));
  EXPECT_TRUE(sink.OnPath(path));
  EXPECT_FALSE(sink.OnPath(path)) << "the limit-th delivery signals stop";
  EXPECT_FALSE(sink.OnPath(path)) << "beyond the limit nothing is delivered";
  EXPECT_EQ(gate.delivered(), 3u);
  EXPECT_EQ(inner.count(), 3u);
  EXPECT_GE(gate.response_ms(), 0.0) << "response target 2 was reached";
  EXPECT_FALSE(gate.stopped()) << "limit refusals are not the sink latch";
}

TEST(BranchSinkTest, SerializedModeLatchesOnInnerRefusal) {
  Timer timer;
  BranchGate gate(/*result_limit=*/100, /*response_target=*/0, timer);
  CollectingSink inner(2);
  DeferredBlocks deferred;
  BranchSink sink(gate, inner, deferred);
  EXPECT_TRUE(sink.OnPath(P({0, 1})));
  EXPECT_FALSE(sink.OnPath(P({0, 2, 1})));
  EXPECT_TRUE(gate.stopped());
  EXPECT_FALSE(sink.OnPath(P({0, 3, 1})))
      << "the latch must keep the inner sink from ever being called again";
  EXPECT_EQ(inner.paths().size(), 2u);
  EXPECT_EQ(gate.delivered(), 2u);
}

TEST(BranchSinkTest, SerializedModeLatchesOnInnerThrow) {
  // A throwing inner sink must trip the latch before the exception leaves
  // the serialization mutex: another participant's adapter over the same
  // gate then signals stop without calling the broken sink again — for
  // per-path and block delivery alike.
  class ThrowingSink : public PathSink {
   public:
    bool OnPath(std::span<const VertexId>) override {
      ++calls;
      throw std::runtime_error("sink exploded");
    }
    int calls = 0;
  };
  const auto path = P({0, 2, 1});
  PathBlock block;
  block.Append(path);
  const PathBlockView view(block);
  for (const bool blocks : {false, true}) {
    Timer timer;
    BranchGate gate(/*result_limit=*/100, /*response_target=*/0, timer);
    ThrowingSink inner;
    DeferredBlocks deferred_a, deferred_b;
    BranchSink a(gate, inner, deferred_a);
    BranchSink b(gate, inner, deferred_b);
    if (blocks) {
      EXPECT_THROW(a.OnBlock(view), std::runtime_error);
    } else {
      EXPECT_THROW(a.OnPath(path), std::runtime_error);
    }
    EXPECT_TRUE(gate.stopped()) << "blocks=" << blocks;
    if (blocks) {
      const PathSink::BlockResult r = b.OnBlock(view);
      EXPECT_EQ(r.consumed, 0u);
      EXPECT_TRUE(r.stop);
    } else {
      EXPECT_FALSE(b.OnPath(path));
    }
    EXPECT_EQ(inner.calls, 1) << "blocks=" << blocks;
  }
}

TEST(BranchSinkTest, ExternalStopCutsDelivery) {
  Timer timer;
  BranchGate gate(100, 0, timer);
  CountingSink inner;
  DeferredBlocks deferred;
  BranchSink sink(gate, inner, deferred);
  EXPECT_TRUE(sink.OnPath(P({0, 1})));
  gate.Stop();
  EXPECT_FALSE(sink.OnPath(P({0, 1})));
  EXPECT_EQ(inner.count(), 1u);
}

/// The merge-barrier double-count regression: many participants deliver
/// through their own adapters over one gate, and once each has flushed,
/// delivered() must equal the limit exactly — never limit + 1, which the
/// pre-unification accounting could report when a branch hit the limit
/// exactly at a merge barrier (the raw reservation counter overshoots by up
/// to the number of workers). Block delivery defers while another thread
/// holds the gate; the 3-path blocks cross the limit mid-block.
TEST(BranchSinkTest, ConcurrentDeliveryPinsDeliveredToLimitExactly) {
  constexpr uint64_t kLimit = 1000;
  constexpr int kThreads = 8;
  PathBlock block;
  for (const VertexId v : {2u, 3u, 4u}) block.Append(P({0, v, 1}));
  const PathBlockView view(block);
  for (const bool blocks : {false, true}) {
    Timer timer;
    BranchGate gate(kLimit, 0, timer);
    CountingSink inner;
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&] {
        DeferredBlocks deferred;
        BranchSink sink(gate, inner, deferred);
        const auto path = P({0, 1});
        if (blocks) {
          while (!sink.OnBlock(view).stop) {
          }
        } else {
          while (sink.OnPath(path)) {
          }
        }
        sink.Flush();
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(gate.delivered(), kLimit) << "never limit + 1";
    EXPECT_EQ(inner.count(), kLimit);
    EXPECT_FALSE(gate.stopped());
  }
}

// --- Deferral: a block that finds the gate busy waits in its buffer --------

/// The caller's sink for the deferral tests. It records every delivered
/// path in order and can park its next OnBlock call until Release(), so a
/// test holds the gate on one thread while another adapter finds it busy.
/// Its `fail_call`-th OnBlock call refuses after the first path, or throws.
class ParkingSink : public PathSink {
 public:
  enum class Fail { kRefuse, kThrow };

  ParkingSink(int fail_call = 0, Fail fail = Fail::kRefuse)
      : fail_call_(fail_call), fail_(fail) {}

  bool OnPath(std::span<const VertexId> path) override {
    paths.emplace_back(path.begin(), path.end());
    return true;
  }

  BlockResult OnBlock(const PathBlockView& block) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++calls_;
      if (park_next_) {
        park_next_ = false;
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
      if (calls_ == fail_call_) {
        if (fail_ == Fail::kThrow) throw std::runtime_error("sink exploded");
        PathSink::OnBlock(block.Prefix(1));
        return {1, true};
      }
    }
    return PathSink::OnBlock(block);
  }

  void ParkNextBlock() {
    const std::lock_guard<std::mutex> lock(mutex_);
    park_next_ = true;
  }
  void WaitUntilParked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }
  int calls() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

  std::vector<std::vector<VertexId>> paths;

 private:
  const int fail_call_;
  const Fail fail_;
  std::mutex mutex_;  // guards the fields below
  std::condition_variable cv_;
  int calls_ = 0;
  bool park_next_ = false;
  bool parked_ = false;
  bool released_ = false;
};

/// A block of one path per vertex of `mids`: s = 0 -> mid -> t = 9.
PathBlock BlockThrough(std::initializer_list<VertexId> mids) {
  PathBlock block;
  for (const VertexId mid : mids) block.Append(P({0, mid, 9}));
  return block;
}

/// Runs `then` on this thread while adapter `a`, on a second thread, is
/// inside the caller's sink delivering `a_block` (the sink parks there),
/// and returns once that delivery has returned.
template <typename Fn>
void WhileGateHeld(BranchSink& a, const PathBlock& a_block,
                   ParkingSink& inner, Fn&& then) {
  inner.ParkNextBlock();
  std::thread holder([&] { a.OnBlock(PathBlockView(a_block)); });
  inner.WaitUntilParked();
  then();
  inner.Release();
  holder.join();
}

TEST(BranchSinkDeferralTest, BusyGateDefersAndFlushDeliversInOrder) {
  Timer timer;
  BranchGate gate(/*result_limit=*/100, /*response_target=*/0, timer);
  ParkingSink inner;
  DeferredBlocks deferred_a, deferred_b;
  BranchSink a(gate, inner, deferred_a);
  BranchSink b(gate, inner, deferred_b);
  const PathBlock a_block = BlockThrough({1, 2});
  const PathBlock b_block = BlockThrough({3, 4, 5});
  WhileGateHeld(a, a_block, inner, [&] {
    const PathSink::BlockResult r = b.OnBlock(PathBlockView(b_block));
    EXPECT_EQ(r.consumed, 3u) << "the grant is kept for later";
    EXPECT_FALSE(r.stop);
    EXPECT_EQ(inner.calls(), 1) << "B returned without calling the sink";
    EXPECT_EQ(gate.deferred_blocks(), 1u);
    EXPECT_EQ(deferred_b.size(), 1u);
  });
  EXPECT_EQ(gate.delivered(), 2u) << "only A's block so far";
  b.Flush();
  EXPECT_TRUE(deferred_b.empty());
  EXPECT_EQ(gate.delivered(), 5u);
  EXPECT_EQ(inner.calls(), 2);
  const std::vector<std::vector<VertexId>> expected = {
      P({0, 1, 9}), P({0, 2, 9}), P({0, 3, 9}), P({0, 4, 9}), P({0, 5, 9})};
  EXPECT_EQ(inner.paths, expected);
}

TEST(BranchSinkDeferralTest, TakenGateDeliversDeferredBlocksFirst) {
  Timer timer;
  BranchGate gate(/*result_limit=*/100, /*response_target=*/0, timer);
  ParkingSink inner;
  DeferredBlocks deferred_a, deferred_b;
  BranchSink a(gate, inner, deferred_a);
  BranchSink b(gate, inner, deferred_b);
  WhileGateHeld(a, BlockThrough({1}), inner, [&] {
    EXPECT_FALSE(b.OnBlock(PathBlockView(BlockThrough({2, 3}))).stop);
    EXPECT_FALSE(b.OnBlock(PathBlockView(BlockThrough({4}))).stop);
    EXPECT_EQ(gate.deferred_blocks(), 2u);
  });
  // The gate is free: B's next block takes it, behind B's deferred ones.
  const PathSink::BlockResult r = b.OnBlock(PathBlockView(BlockThrough({5})));
  EXPECT_EQ(r.consumed, 1u);
  EXPECT_FALSE(r.stop);
  EXPECT_TRUE(deferred_b.empty());
  EXPECT_EQ(gate.deferred_blocks(), 2u);
  const std::vector<std::vector<VertexId>> expected = {
      P({0, 1, 9}), P({0, 2, 9}), P({0, 3, 9}), P({0, 4, 9}), P({0, 5, 9})};
  EXPECT_EQ(inner.paths, expected);
  EXPECT_EQ(gate.delivered(), 5u);
}

TEST(BranchSinkDeferralTest, RefusalDropsDeferredBlocks) {
  Timer timer;
  BranchGate gate(/*result_limit=*/100, /*response_target=*/0, timer);
  ParkingSink inner(/*fail_call=*/1, ParkingSink::Fail::kRefuse);
  DeferredBlocks deferred_a, deferred_b;
  BranchSink a(gate, inner, deferred_a);
  BranchSink b(gate, inner, deferred_b);
  WhileGateHeld(a, BlockThrough({1, 2}), inner, [&] {
    EXPECT_FALSE(b.OnBlock(PathBlockView(BlockThrough({3, 4}))).stop)
        << "the refusal has not happened yet";
  });
  EXPECT_TRUE(gate.stopped()) << "A's delivery was refused";
  b.Flush();
  EXPECT_TRUE(deferred_b.empty()) << "the deferred block was dropped";
  const PathSink::BlockResult r = b.OnBlock(PathBlockView(BlockThrough({5})));
  EXPECT_EQ(r.consumed, 0u);
  EXPECT_TRUE(r.stop);
  EXPECT_EQ(inner.calls(), 1) << "the sink is never called after refusing";
  EXPECT_EQ(inner.paths, std::vector<std::vector<VertexId>>{P({0, 1, 9})});
  EXPECT_EQ(gate.delivered(), 1u) << "the refused path counts, as OnPath's";
}

TEST(BranchSinkDeferralTest, ThrowDuringFlushTripsTheLatch) {
  Timer timer;
  BranchGate gate(/*result_limit=*/100, /*response_target=*/0, timer);
  ParkingSink inner(/*fail_call=*/2, ParkingSink::Fail::kThrow);
  DeferredBlocks deferred_a, deferred_b;
  BranchSink a(gate, inner, deferred_a);
  BranchSink b(gate, inner, deferred_b);
  WhileGateHeld(a, BlockThrough({1, 2}), inner, [&] {
    EXPECT_FALSE(b.OnBlock(PathBlockView(BlockThrough({3}))).stop);
  });
  EXPECT_FALSE(gate.stopped());
  EXPECT_THROW(b.Flush(), std::runtime_error);
  EXPECT_TRUE(gate.stopped());
  const PathSink::BlockResult r = a.OnBlock(PathBlockView(BlockThrough({4})));
  EXPECT_EQ(r.consumed, 0u);
  EXPECT_TRUE(r.stop);
  b.Flush();
  EXPECT_TRUE(deferred_b.empty());
  EXPECT_EQ(inner.calls(), 2) << "the sink is never called after throwing";
  EXPECT_EQ(gate.delivered(), 2u);
}

TEST(BranchSinkDeferralTest, DeferredGrantEndingAtTheLimit) {
  Timer timer;
  BranchGate gate(/*result_limit=*/3, /*response_target=*/0, timer);
  ParkingSink inner;
  DeferredBlocks deferred_a, deferred_b;
  BranchSink a(gate, inner, deferred_a);
  BranchSink b(gate, inner, deferred_b);
  WhileGateHeld(a, BlockThrough({1, 2}), inner, [&] {
    const PathSink::BlockResult r = b.OnBlock(PathBlockView(BlockThrough({3, 4})));
    EXPECT_EQ(r.consumed, 1u) << "the granted share of a 2-path block";
    EXPECT_TRUE(r.stop) << "the grant reaches the limit";
    EXPECT_EQ(gate.deferred_blocks(), 1u);
  });
  EXPECT_EQ(gate.delivered(), 2u);
  b.Flush();
  EXPECT_EQ(gate.delivered(), 3u) << "delivered() == limit after the flush";
  EXPECT_FALSE(gate.stopped()) << "the limit is not the sink latch";
  const std::vector<std::vector<VertexId>> expected = {
      P({0, 1, 9}), P({0, 2, 9}), P({0, 3, 9})};
  EXPECT_EQ(inner.paths, expected);
}

TEST(BranchSinkDeferralTest, ResponseTimeIsStampedAtDelivery) {
  // The response time is when the sink holds the target-th path: a deferred
  // block that reserved it stamps nothing until its flush delivers it.
  Timer timer;
  BranchGate gate(/*result_limit=*/100, /*response_target=*/3, timer);
  ParkingSink inner;
  DeferredBlocks deferred_a, deferred_b;
  BranchSink a(gate, inner, deferred_a);
  BranchSink b(gate, inner, deferred_b);
  WhileGateHeld(a, BlockThrough({1, 2}), inner, [&] {
    EXPECT_FALSE(b.OnBlock(PathBlockView(BlockThrough({3, 4}))).stop);
  });
  EXPECT_LT(gate.response_ms(), 0.0) << "path 3 is reserved, not delivered";
  b.Flush();
  EXPECT_GE(gate.response_ms(), 0.0);
}

TEST(DeferredBlocksTest, FullBufferRefusesAndKeepsCapacity) {
  DeferredBlocks deferred;
  EXPECT_EQ(deferred.CapacityBytes(), 0u) << "nothing reserved before use";
  PathBlock block;
  for (VertexId v = 1; v <= PathBlock::kMaxPaths; ++v) {
    block.Append(P({0, v, 100000 + v, 9}));
  }
  const PathBlockView view(block);
  size_t held = 0;
  while (deferred.TryAppend(view)) ++held;
  // 256 paths with 3 suffix vertices each but the first's 4: 769 vertices
  // per copy, so 42 copies fill the 32K vertex capacity.
  EXPECT_EQ(held, DeferredBlocks::kMaxVerts / 769);
  EXPECT_EQ(deferred.size(), held);
  const size_t capacity = deferred.CapacityBytes();
  EXPECT_GT(capacity, 0u);
  size_t walked = 0;
  deferred.ForEach([&](const PathBlockView& b) {
    EXPECT_EQ(b.count, view.count);
    EXPECT_EQ(b.total_path_vertices, view.total_path_vertices);
    ++walked;
    return true;
  });
  EXPECT_EQ(walked, held);
  deferred.Clear();
  EXPECT_TRUE(deferred.empty());
  EXPECT_TRUE(deferred.TryAppend(view));
  EXPECT_EQ(deferred.CapacityBytes(), capacity) << "reused, not regrown";
}

}  // namespace
}  // namespace pathenum
