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

bool DeferredBlocks::TryAppend(const PathBlockView& block) {
  uint32_t num_verts = 0;
  for (uint32_t i = 0; i < block.count; ++i) {
    num_verts += block.entries[i].suffix_len;
  }
  if (blocks_.size() == kMaxBlocks ||
      entries_.size() + block.count > kMaxEntries ||
      verts_.size() + num_verts > kMaxVerts) {
    return false;
  }
  if (blocks_.capacity() == 0) {
    entries_.reserve(kMaxEntries);
    verts_.reserve(kMaxVerts);
    blocks_.reserve(kMaxBlocks);
  }
  entries_.insert(entries_.end(), block.entries, block.entries + block.count);
  verts_.insert(verts_.end(), block.verts, block.verts + num_verts);
  blocks_.push_back({block.count, num_verts, block.total_path_vertices});
  return true;
}

size_t DeferredBlocks::CapacityBytes() const {
  return entries_.capacity() * sizeof(PathBlock::Entry) +
         verts_.capacity() * sizeof(VertexId) +
         blocks_.capacity() * sizeof(Header);
}

BranchSink::BranchSink(BranchGate& gate, PathSink& inner,
                       DeferredBlocks& deferred)
    : gate_(gate), inner_(inner), deferred_(deferred) {
  deferred_.Clear();
}

BranchSink::~BranchSink() { deferred_.Clear(); }

void BranchSink::CountDeliveredLocked(uint64_t n) {
  BranchGate& g = gate_;
  const uint64_t before =
      g.delivered_.fetch_add(n, std::memory_order_relaxed);
  if (g.response_target_ > before && g.response_target_ <= before + n) {
    g.response_ms_.store(g.timer_.ElapsedMs(), std::memory_order_relaxed);
  }
}

PathSink::BlockResult BranchSink::DeliverLocked(const PathBlockView& block) {
  BranchGate& g = gate_;
  // The latch is checked under the serialization mutex: once the inner
  // sink returns false or throws it must never be called again (it may
  // have torn down its state on that contract).
  if (g.stopped_.load(std::memory_order_relaxed)) return {0, true};
  const BlockResult r = LatchOnThrow(g, [&] { return inner_.OnBlock(block); });
  CountDeliveredLocked(r.consumed);
  if (r.stop || r.consumed < block.count) {
    g.stopped_.store(true, std::memory_order_relaxed);
    return {r.consumed, true};
  }
  return r;
}

bool BranchSink::DeliverDeferredLocked() {
  BranchGate& g = gate_;
  bool tripped = false;
  deferred_.ForEach([&](const PathBlockView& b) {
    const QueryControl::Trip trip = g.control_.Check(0);
    if (trip != QueryControl::Trip::kNone) {
      g.dropped_by_.store(trip, std::memory_order_relaxed);
      tripped = true;
      return false;
    }
    return !DeliverLocked(b).stop;
  });
  deferred_.Clear();
  return !tripped && !g.stopped_.load(std::memory_order_relaxed);
}

bool BranchSink::OnPath(std::span<const VertexId> path) {
  BranchGate& g = gate_;
  if (g.stopped_.load(std::memory_order_relaxed)) return false;
  const uint64_t n = g.emitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n > g.limit_) return false;  // reservation failed: stop this worker
  {
    const std::lock_guard<std::mutex> lock(g.mutex_);
    if (!DeliverDeferredLocked()) return false;
    const bool more = LatchOnThrow(g, [&] { return inner_.OnPath(path); });
    CountDeliveredLocked(1);  // a refused path was delivered too
    if (!more) {
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
  const PathBlockView granted =
      block.Prefix(static_cast<uint32_t>(grant));
  const bool at_limit = old + grant >= g.limit_;
  std::unique_lock<std::mutex> lock(g.mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Another participant is delivering: keep the grant for later rather
    // than wait, unless the buffer is full.
    if (deferred_.TryAppend(granted)) {
      g.deferred_.fetch_add(1, std::memory_order_relaxed);
      return {granted.count, at_limit};
    }
    lock.lock();
  }
  if (!DeliverDeferredLocked()) return {0, true};
  const BlockResult r = DeliverLocked(granted);
  return {r.consumed, r.stop || at_limit};
}

void BranchSink::Flush() {
  if (deferred_.empty()) return;
  const std::lock_guard<std::mutex> lock(gate_.mutex_);
  DeliverDeferredLocked();
}

}  // namespace pathenum
