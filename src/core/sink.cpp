#include "core/sink.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace pathenum {

PathSink::BlockResult PathSink::OnBlock(const PathBlockView& block) {
  // Per-path fallback: OnPath-only sinks observe exactly the sequence (and
  // stop point) a per-path enumerator would have produced.
  return ForEachPathInBlock(
      block, [this](std::span<const VertexId> path) { return OnPath(path); });
}

bool CountingSink::OnPath(std::span<const VertexId> path) {
  ++count_;
  total_length_ += path.size() - 1;
  return true;
}

PathSink::BlockResult CountingSink::OnBlock(const PathBlockView& block) {
  count_ += block.count;
  // Per path, edges = vertices - 1; summed over the block in O(1).
  total_length_ += block.total_path_vertices - block.count;
  return {block.count, false};
}

bool CollectingSink::OnPath(std::span<const VertexId> path) {
  if (paths_.size() >= max_paths_) {
    truncated_ = true;
    return false;
  }
  paths_.emplace_back(path.begin(), path.end());
  return paths_.size() < max_paths_;
}

PathSink::BlockResult CollectingSink::OnBlock(const PathBlockView& block) {
  // Decode through the per-path logic (non-virtually) so capacity/
  // truncation semantics stay identical to per-path emission.
  return ForEachPathInBlock(block, [this](std::span<const VertexId> path) {
    return CollectingSink::OnPath(path);
  });
}

bool BlockEmitter::Flush() {
  if (block_.empty()) return true;
  fault::Hit(fault::Site::kBlockFlush);
  const PathBlockView view(block_);
  const uint64_t before = counters_->num_results;
  const PathSink::BlockResult r = sink_->OnBlock(view);
  counters_->num_results += r.consumed;
  if (response_target_ > before &&
      response_target_ <= counters_->num_results) {
    counters_->response_ms = timer_->ElapsedMs();
  }
  block_.Clear();
  // Sink stop beats a simultaneous limit hit — the per-path precedence.
  if (r.stop || r.consumed < view.count) {
    counters_->stopped_by_sink = true;
    return false;
  }
  if (counters_->num_results >= result_limit_) {
    counters_->hit_result_limit = true;
    return false;
  }
  return true;
}

namespace {

/// Calls the inner sink under the gate mutex; if it throws, the stop latch
/// trips before the exception leaves the mutex, so no other participant
/// waiting on it calls the broken sink again.
template <typename Deliver>
auto LatchOnThrow(BranchGate& gate, Deliver&& deliver) {
  try {
    return deliver();
  } catch (...) {
    gate.Stop();
    throw;
  }
}

}  // namespace

bool BranchSink::OnPath(std::span<const VertexId> path) {
  BranchGate& g = gate_;
  if (g.stopped_.load(std::memory_order_relaxed)) return false;
  const uint64_t n = g.emitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n > g.limit_) return false;  // reservation failed: stop this worker
  if (n == g.response_target_ &&
      !g.response_recorded_.exchange(true, std::memory_order_relaxed)) {
    g.response_ms_.store(g.timer_.ElapsedMs(), std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(g.mutex_);
    // The latch is re-checked under the serialization mutex: once the
    // inner sink returns false or throws it must never be called again
    // (it may have torn down its state on that contract).
    if (g.stopped_.load(std::memory_order_relaxed)) return false;
    g.delivered_.fetch_add(1, std::memory_order_relaxed);
    if (!LatchOnThrow(g, [&] { return inner_.OnPath(path); })) {
      g.stopped_.store(true, std::memory_order_relaxed);
      return false;
    }
  }
  return n < g.limit_;
}

PathSink::BlockResult BranchSink::OnBlock(const PathBlockView& block) {
  BranchGate& g = gate_;
  if (block.count == 0) {
    return {0, g.stopped_.load(std::memory_order_relaxed)};
  }
  if (g.stopped_.load(std::memory_order_relaxed)) return {0, true};
  // One reservation per block: claim [old, old + count), keep the share
  // below the limit. The refused remainder (and any over-reservation) only
  // inflates `emitted_`, which is attempts — delivered() stays capped.
  const uint64_t old = g.emitted_.fetch_add(block.count,
                                            std::memory_order_relaxed);
  if (old >= g.limit_) return {0, true};
  const uint64_t grant = std::min<uint64_t>(block.count, g.limit_ - old);
  if (g.response_target_ > old && g.response_target_ <= old + grant &&
      !g.response_recorded_.exchange(true, std::memory_order_relaxed)) {
    g.response_ms_.store(g.timer_.ElapsedMs(), std::memory_order_relaxed);
  }
  const PathBlockView granted =
      block.Prefix(static_cast<uint32_t>(grant));
  BlockResult inner;
  {
    const std::lock_guard<std::mutex> lock(g.mutex_);
    if (g.stopped_.load(std::memory_order_relaxed)) return {0, true};
    inner = LatchOnThrow(g, [&] { return inner_.OnBlock(granted); });
    g.delivered_.fetch_add(inner.consumed, std::memory_order_relaxed);
    if (inner.stop || inner.consumed < granted.count) {
      g.stopped_.store(true, std::memory_order_relaxed);
      return {inner.consumed, true};
    }
  }
  return {inner.consumed, old + grant >= g.limit_};
}

}  // namespace pathenum
