// Tests for the PathSink implementations and the unified branch fan-out
// gate/adapter (DESIGN.md §8), including the exact-at-the-limit regression:
// delivered() must pin to the limit, never limit + 1, under concurrency.
#include <gtest/gtest.h>

#include <atomic>
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

// --- BranchGate / BranchSink (the unified fan-out adapter) -------------------

TEST(BranchSinkTest, SerializedModeStopsAtTheLimitExactly) {
  Timer timer;
  BranchGate gate(/*result_limit=*/3, /*response_target=*/2, timer);
  CountingSink inner;
  BranchSink sink(gate, inner, BranchSink::Mode::kSerialized);
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
  BranchSink sink(gate, inner, BranchSink::Mode::kSerialized);
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
    BranchSink a(gate, inner, BranchSink::Mode::kSerialized);
    BranchSink b(gate, inner, BranchSink::Mode::kSerialized);
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

TEST(BranchSinkTest, ExternalStopCutsDeliveryInBothModes) {
  for (const auto mode :
       {BranchSink::Mode::kPerWorker, BranchSink::Mode::kSerialized}) {
    Timer timer;
    BranchGate gate(100, 0, timer);
    CountingSink inner;
    BranchSink sink(gate, inner, mode);
    EXPECT_TRUE(sink.OnPath(P({0, 1})));
    gate.Stop();
    EXPECT_FALSE(sink.OnPath(P({0, 1})));
    EXPECT_EQ(inner.count(), 1u);
  }
}

TEST(BranchSinkTest, PerWorkerInnerRefusalStopsOnlyThatWorker) {
  Timer timer;
  BranchGate gate(100, 0, timer);
  CollectingSink quitter(1);
  CountingSink steady;
  BranchSink a(gate, quitter, BranchSink::Mode::kPerWorker);
  BranchSink b(gate, steady, BranchSink::Mode::kPerWorker);
  EXPECT_FALSE(a.OnPath(P({0, 1}))) << "worker a's private sink is full";
  EXPECT_TRUE(b.OnPath(P({0, 2, 1}))) << "worker b keeps going";
  EXPECT_FALSE(gate.stopped());
  EXPECT_EQ(gate.delivered(), 2u);
}

/// The merge-barrier double-count regression: many threads hammer one gate
/// (per-worker and serialized), and delivered() must equal the limit
/// exactly — never limit + 1, which the pre-unification accounting could
/// report when a branch hit the limit exactly at a merge barrier (the raw
/// reservation counter overshoots by up to the number of workers).
TEST(BranchSinkTest, ConcurrentDeliveryPinsDeliveredToLimitExactly) {
  for (const auto mode :
       {BranchSink::Mode::kPerWorker, BranchSink::Mode::kSerialized}) {
    constexpr uint64_t kLimit = 1000;
    constexpr int kThreads = 8;
    Timer timer;
    BranchGate gate(kLimit, 0, timer);
    CountingSink shared_inner;
    BranchSink shared_sink(gate, shared_inner,
                           BranchSink::Mode::kSerialized);
    std::vector<CountingSink> inners(kThreads);
    std::atomic<uint64_t> private_total{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        const auto path = P({0, 1});
        if (mode == BranchSink::Mode::kSerialized) {
          while (shared_sink.OnPath(path)) {
          }
        } else {
          BranchSink mine(gate, inners[w], BranchSink::Mode::kPerWorker);
          while (mine.OnPath(path)) {
          }
          private_total.fetch_add(inners[w].count());
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(gate.delivered(), kLimit) << "never limit + 1";
    const uint64_t inner_total = mode == BranchSink::Mode::kSerialized
                                     ? shared_inner.count()
                                     : private_total.load();
    EXPECT_EQ(inner_total, kLimit);
  }
}

}  // namespace
}  // namespace pathenum
