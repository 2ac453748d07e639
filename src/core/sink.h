// Result consumers. Enumerators push discovered paths into a PathSink —
// either one at a time (OnPath) or, on the hot paths, as delta-encoded
// blocks of hundreds of paths (OnBlock; DESIGN.md §9) so the virtual call
// and the consumer's bookkeeping amortize over the whole block. The sink
// can stop the enumeration early by returning false / signalling stop.
#ifndef PATHENUM_CORE_SINK_H_
#define PATHENUM_CORE_SINK_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/options.h"
#include "util/common.h"
#include "util/timer.h"

namespace pathenum {

/// A batch of enumerated paths with shared-prefix delta encoding
/// (DESIGN.md §9). Consecutive DFS paths share long prefixes, so each path
/// is stored as (common_prefix_len, suffix): the first path of a block is
/// all suffix, and every later entry only stores the vertices past its
/// common prefix with the path immediately before it. Storage is a fixed
/// inline arena — appending never allocates, and a block-emitting
/// enumerator reaches a zero-allocation steady state by construction.
///
/// Appending is either `AppendDelta` (the caller already knows the shared
/// prefix — the DFS tracks it as its stack diverges) or `Append` (the block
/// compares against the previous path itself — the join's emit path). The
/// two must not be mixed within one block: Append relies on the previous
/// path retained by Append alone. An optional `translate` array maps the
/// appended ids (index slots) to vertex ids as the suffix is copied in, so
/// each emitted vertex is translated exactly once per block instead of once
/// per path it appears on.
class PathBlock {
 public:
  struct Entry {
    uint16_t prefix_len;  // vertices shared with the previous path
    uint16_t suffix_len;  // vertices stored in the suffix buffer
  };

  /// Capacity: blocks flush at 256 paths (or earlier when the suffix
  /// buffer cannot fit another worst-case path), which amortizes the
  /// virtual dispatch ~256x while keeping the inline arena ~32 KiB.
  static constexpr uint32_t kMaxPaths = 256;
  static constexpr uint32_t kMaxVerts = kMaxPaths * (kMaxHops + 1);

  uint32_t size() const { return num_paths_; }
  bool empty() const { return num_paths_ == 0; }

  /// Sum of the lengths (in vertices) of the paths currently held; lets
  /// counting consumers do O(1) per-block work.
  uint64_t total_path_vertices() const { return total_path_verts_; }

  bool HasRoomFor(uint32_t path_len) const {
    return num_paths_ < kMaxPaths && num_verts_ + path_len <= kMaxVerts;
  }

  /// Appends a path of `prefix_len + suffix_len` vertices whose first
  /// `prefix_len` vertices equal the previously appended path's. The first
  /// append of a block must pass prefix_len 0. With `translate` non-null,
  /// suffix ids are mapped through it (slot -> vertex id) as they are
  /// copied.
  void AppendDelta(uint32_t prefix_len, const uint32_t* suffix,
                   uint32_t suffix_len, const VertexId* translate = nullptr) {
    assert(prefix_len + suffix_len <= kMaxHops + 1);
    assert(prefix_len <= last_len_);
    assert(HasRoomFor(prefix_len + suffix_len));
    VertexId* dst = verts_ + num_verts_;
    if (translate != nullptr) {
      for (uint32_t i = 0; i < suffix_len; ++i) dst[i] = translate[suffix[i]];
    } else {
      for (uint32_t i = 0; i < suffix_len; ++i) dst[i] = suffix[i];
    }
    entries_[num_paths_++] = {static_cast<uint16_t>(prefix_len),
                              static_cast<uint16_t>(suffix_len)};
    num_verts_ += suffix_len;
    total_path_verts_ += prefix_len + suffix_len;
    last_len_ = prefix_len + suffix_len;
  }

  /// Appends a full path, computing the shared prefix against the
  /// previously Append-ed path itself.
  void Append(std::span<const uint32_t> path,
              const VertexId* translate = nullptr) {
    const uint32_t len = static_cast<uint32_t>(path.size());
    uint32_t prefix = 0;
    const uint32_t bound = len < last_len_ ? len : last_len_;
    while (prefix < bound && last_path_[prefix] == path[prefix]) ++prefix;
    AppendDelta(prefix, path.data() + prefix, len - prefix, translate);
    // Retain the raw (untranslated) path: the next Append compares in the
    // caller's id space.
    for (uint32_t i = prefix; i < len; ++i) last_path_[i] = path[i];
  }

  void Clear() {
    num_paths_ = 0;
    num_verts_ = 0;
    last_len_ = 0;
    total_path_verts_ = 0;
  }

 private:
  friend struct PathBlockView;

  uint32_t num_paths_ = 0;
  uint32_t num_verts_ = 0;
  uint32_t last_len_ = 0;  // length of the previously appended path
  uint64_t total_path_verts_ = 0;
  Entry entries_[kMaxPaths];
  VertexId verts_[kMaxVerts];
  uint32_t last_path_[kMaxHops + 1];  // previous Append()-ed path, raw ids
};

/// Read-only view of a PathBlock handed to sinks. `Prefix(n)` narrows the
/// view to the first n paths (delta entries are cumulative, so a prefix of
/// the entries plus the shared suffix buffer is always self-contained).
struct PathBlockView {
  const PathBlock::Entry* entries = nullptr;
  const VertexId* verts = nullptr;
  uint32_t count = 0;
  uint64_t total_path_vertices = 0;

  explicit PathBlockView(const PathBlock& b)
      : entries(b.entries_),
        verts(b.verts_),
        count(b.num_paths_),
        total_path_vertices(b.total_path_verts_) {}

  PathBlockView(const PathBlock::Entry* e, const VertexId* v, uint32_t n,
                uint64_t total)
      : entries(e), verts(v), count(n), total_path_vertices(total) {}

  PathBlockView Prefix(uint32_t n) const {
    if (n >= count) return *this;
    uint64_t total = 0;
    for (uint32_t i = 0; i < n; ++i) {
      total += entries[i].prefix_len + entries[i].suffix_len;
    }
    return {entries, verts, n, total};
  }
};

/// Consumer interface for enumerated paths. `path` spans handed to OnPath
/// (and the decoded paths of a block) are the full vertex sequence (source
/// first, target last) and are only valid during the call.
class PathSink {
 public:
  /// Outcome of one block delivery: how many of the block's paths were
  /// consumed (including the path the sink refused on, mirroring the
  /// OnPath contract where a refused path was still delivered), and
  /// whether the producer must stop. `consumed < block.count` implies
  /// stop.
  struct BlockResult {
    uint64_t consumed = 0;
    bool stop = false;
  };

  virtual ~PathSink() = default;

  /// Returns false to stop the enumeration. Once a sink returns false it
  /// is never called again for that enumeration.
  virtual bool OnPath(std::span<const VertexId> path) = 0;

  /// Block protocol (DESIGN.md §9): the hot-path enumerators deliver paths
  /// in delta-encoded blocks. The default decodes the block and forwards
  /// per-path through OnPath, so OnPath-only sinks keep exact per-path
  /// semantics; override to amortize the work over the whole block.
  virtual BlockResult OnBlock(const PathBlockView& block);
};

/// Decodes `block` path by path into an inline buffer and calls
/// `fn(std::span<const VertexId>)` for each; `fn` returns false to stop.
/// Returns the delivered count / stop flag under the BlockResult contract.
template <typename Fn>
PathSink::BlockResult ForEachPathInBlock(const PathBlockView& block, Fn&& fn) {
  VertexId buf[kMaxHops + 1];
  const VertexId* suffix = block.verts;
  for (uint32_t i = 0; i < block.count; ++i) {
    const PathBlock::Entry e = block.entries[i];
    for (uint32_t j = 0; j < e.suffix_len; ++j) {
      buf[e.prefix_len + j] = suffix[j];
    }
    suffix += e.suffix_len;
    if (!fn(std::span<const VertexId>(
            buf, static_cast<size_t>(e.prefix_len) + e.suffix_len))) {
      return {i + 1, true};
    }
  }
  return {block.count, false};
}

/// Counts results; never stops the enumeration.
class CountingSink : public PathSink {
 public:
  bool OnPath(std::span<const VertexId> path) override;
  /// O(1) per block: the block carries its path count and vertex total.
  BlockResult OnBlock(const PathBlockView& block) override;

  uint64_t count() const { return count_; }
  /// Sum of path lengths (edges), handy for cheap result checksums.
  uint64_t total_length() const { return total_length_; }

 private:
  uint64_t count_ = 0;
  uint64_t total_length_ = 0;
};

/// Stores every result (up to `max_paths`); stops when full.
class CollectingSink : public PathSink {
 public:
  explicit CollectingSink(
      size_t max_paths = std::numeric_limits<size_t>::max())
      : max_paths_(max_paths) {}

  bool OnPath(std::span<const VertexId> path) override;
  BlockResult OnBlock(const PathBlockView& block) override;

  const std::vector<std::vector<VertexId>>& paths() const { return paths_; }
  bool truncated() const { return truncated_; }

 private:
  size_t max_paths_;
  bool truncated_ = false;
  std::vector<std::vector<VertexId>> paths_;
};

/// Adapts a callable `bool(std::span<const VertexId>)` or
/// `void(std::span<const VertexId>)` into a sink.
class CallbackSink : public PathSink {
 public:
  explicit CallbackSink(std::function<bool(std::span<const VertexId>)> fn)
      : fn_(std::move(fn)) {}

  bool OnPath(std::span<const VertexId> path) override { return fn_(path); }

 private:
  std::function<bool(std::span<const VertexId>)> fn_;
};

/// The shared flush engine of the block-emitting enumerators (DFS and
/// join): owns the pending PathBlock, hands it to the sink, and folds the
/// delivery outcome into the run's counters — delivered results, the
/// response-target timestamp (recorded at block granularity), and the
/// stopped_by_sink / hit_result_limit flags with exactly the per-path
/// precedence (a sink stop beats a simultaneous limit hit).
class BlockEmitter {
 public:
  /// Re-arms for a new run. `counters` and `timer` must outlive the run.
  void Arm(PathSink* sink, EnumCounters* counters, const Timer* timer,
           uint64_t result_limit, uint64_t response_target) {
    sink_ = sink;
    counters_ = counters;
    timer_ = timer;
    result_limit_ = result_limit;
    response_target_ = response_target;
    block_.Clear();
  }

  PathBlock& block() { return block_; }

  /// Results found so far: delivered plus pending in the block.
  uint64_t found() const { return counters_->num_results + block_.size(); }

  bool AtResultLimit() const { return found() >= result_limit_; }

  /// Delivers the pending block (no-op when empty). Returns false when the
  /// enumeration must stop — the sink refused, or the result limit is
  /// reached — with the matching counter flag set.
  bool Flush();

 private:
  PathBlock block_;
  PathSink* sink_ = nullptr;
  EnumCounters* counters_ = nullptr;
  const Timer* timer_ = nullptr;
  uint64_t result_limit_ = 0;
  uint64_t response_target_ = 0;
};

/// Cross-thread accounting shared by every branch unit of one fanned-out
/// enumeration (DESIGN.md §8). The gate owns the query-wide state the
/// branch units must agree on: the result-limit reservation counter, the
/// response-target record, the count of paths actually handed to the inner
/// sink, the mutex that serializes it, and the stop latch. Exactly one gate
/// exists per fanned-out query; the BranchSink adapters below share it.
///
/// Delivery is reservation-based, so `delivered()` is structurally capped
/// at `result_limit`: paths are only handed to the inner sink after winning
/// a reservation, and each reservation is delivered at most once. With
/// block emission a whole block reserves at once (`n..n+count`), is
/// truncated to the granted share, and the grant is delivered in one inner
/// OnBlock call — limit accounting at block granularity. The merge at the
/// fan-out's barrier therefore can never observe limit + 1 — the
/// double-count regression pinned by sink_test.
class BranchGate {
 public:
  /// `timer` is the enumeration stopwatch response_ms is measured against;
  /// it must outlive the gate.
  BranchGate(uint64_t result_limit, uint64_t response_target,
             const Timer& timer)
      : limit_(result_limit),
        response_target_(response_target),
        timer_(timer) {}

  BranchGate(const BranchGate&) = delete;
  BranchGate& operator=(const BranchGate&) = delete;

  /// Paths handed to inner sinks so far (never exceeds result_limit).
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Elapsed ms at the reservation that crossed response_target; negative
  /// if the target was never reached.
  double response_ms() const {
    return response_ms_.load(std::memory_order_relaxed);
  }

  /// True once the latch tripped: the inner sink refused a path or threw,
  /// or Stop() was called.
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  /// External stop (a failed split participant): no further path passes
  /// through any adapter on this gate.
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

 private:
  friend class BranchSink;

  const uint64_t limit_;
  const uint64_t response_target_;
  const Timer& timer_;
  std::mutex mutex_;  // serializes the inner sink
  std::atomic<uint64_t> emitted_{0};    // reservations attempted
  std::atomic<uint64_t> delivered_{0};  // inner OnPath/OnBlock deliveries
  std::atomic<bool> stopped_{false};
  std::atomic<bool> response_recorded_{false};
  std::atomic<double> response_ms_{-1.0};
};

/// The branch fan-out sink adapter (DESIGN.md §8): every participant of a
/// split query shares one adapter over the one caller-owned sink.
/// Deliveries serialize under the gate's mutex, and the stop latch
/// guarantees the inner sink is never called again after it returns false
/// or throws (it may tear down on that signal).
///
/// The adapter also signals stop once the shared result limit is reached,
/// which the enumerators report as a sink stop; the split executor rebuilds
/// the exact hit_result_limit/stopped_by_sink flags from the gate when it
/// merges. Blocks reserve, truncate to the granted share, and deliver in
/// one inner OnBlock call.
class BranchSink : public PathSink {
 public:
  BranchSink(BranchGate& gate, PathSink& inner) : gate_(gate), inner_(inner) {}

  bool OnPath(std::span<const VertexId> path) override;
  BlockResult OnBlock(const PathBlockView& block) override;

 private:
  BranchGate& gate_;
  PathSink& inner_;
};

}  // namespace pathenum

#endif  // PATHENUM_CORE_SINK_H_
