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
#include <utility>
#include <vector>

#include "core/control.h"
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
/// sink, the mutex that serializes it, the stop latch, the query's deadline
/// and cancel token, and the count of deferred blocks. Exactly one gate
/// exists per fanned-out query; the participants' BranchSink adapters below
/// share it.
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
  /// it must outlive the gate. `control` carries the query's deadline and
  /// cancel token, which deferred blocks are delivered under.
  BranchGate(uint64_t result_limit, uint64_t response_target,
             const Timer& timer, QueryControl control = {})
      : limit_(result_limit),
        response_target_(response_target),
        timer_(timer),
        control_(std::move(control)) {}

  BranchGate(const BranchGate&) = delete;
  BranchGate& operator=(const BranchGate&) = delete;

  /// Paths handed to inner sinks so far (never exceeds result_limit).
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Elapsed ms when the inner sink had received response_target paths (at
  /// the delivery that crossed it, as a serial run stamps it); negative if
  /// it never did.
  double response_ms() const {
    return response_ms_.load(std::memory_order_relaxed);
  }

  /// True once the latch tripped: the inner sink refused a path or threw,
  /// or Stop() was called.
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  /// External stop (a failed split participant): no further path passes
  /// through any adapter on this gate.
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

  /// Blocks the adapters deferred because another participant held the
  /// gate (each counted once, whether later delivered or dropped).
  uint64_t deferred_blocks() const {
    return deferred_.load(std::memory_order_relaxed);
  }

  /// The control trip (cancel or deadline) that made an adapter drop its
  /// deferred blocks instead of delivering them; kNone if none did.
  QueryControl::Trip dropped_by() const {
    return dropped_by_.load(std::memory_order_relaxed);
  }

 private:
  friend class BranchSink;

  const uint64_t limit_;
  const uint64_t response_target_;
  const Timer& timer_;
  const QueryControl control_;
  std::mutex mutex_;  // serializes the inner sink
  std::atomic<uint64_t> emitted_{0};    // reservations attempted
  std::atomic<uint64_t> delivered_{0};  // inner OnPath/OnBlock deliveries
  std::atomic<uint64_t> deferred_{0};   // blocks copied into a buffer
  std::atomic<bool> stopped_{false};
  std::atomic<double> response_ms_{-1.0};
  std::atomic<QueryControl::Trip> dropped_by_{QueryControl::Trip::kNone};
};

/// One split participant's deferred blocks (DESIGN.md §8): the granted
/// block prefixes its BranchSink copied, in order, while another
/// participant held the gate. A block is copied compactly — its entries and
/// only the suffix vertices they use. The capacities are fixed: 128 KiB of
/// entries, 128 KiB of vertices and 16 KiB of block headers, reserved at
/// the first deferral and reused by every later query, so a context that
/// never defers allocates nothing. Single-owner: only its participant's
/// thread touches it (each worker's QueryContext owns one).
class DeferredBlocks {
 public:
  static constexpr uint32_t kMaxEntries = 32 * 1024;
  static constexpr uint32_t kMaxVerts = 32 * 1024;
  static constexpr uint32_t kMaxBlocks = 1024;
  static_assert(kMaxEntries >= PathBlock::kMaxPaths &&
                    kMaxVerts >= PathBlock::kMaxVerts,
                "an empty buffer must hold any block");

  /// Copies `block`; false (and nothing copied) when it does not fit.
  bool TryAppend(const PathBlockView& block);

  bool empty() const { return blocks_.empty(); }
  size_t size() const { return blocks_.size(); }

  /// Calls `fn(const PathBlockView&)` on each held block in append order
  /// until it returns false.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    size_t entry = 0, vert = 0;
    for (const Header& h : blocks_) {
      if (!fn(PathBlockView(entries_.data() + entry, verts_.data() + vert,
                            h.count, h.total_path_vertices))) {
        return;
      }
      entry += h.count;
      vert += h.num_verts;
    }
  }

  /// Drops every held block (the capacity stays).
  void Clear() {
    entries_.clear();
    verts_.clear();
    blocks_.clear();
  }

  /// Bytes reserved (0 until the first deferral).
  size_t CapacityBytes() const;

 private:
  struct Header {
    uint32_t count;
    uint32_t num_verts;
    uint64_t total_path_vertices;
  };

  std::vector<PathBlock::Entry> entries_;
  std::vector<VertexId> verts_;
  std::vector<Header> blocks_;
};

/// The branch fan-out sink adapter (DESIGN.md §8): each participant of a
/// split query delivers through its own adapter over the query's one gate
/// and the one caller-owned sink. Deliveries into the inner sink serialize
/// under the gate's mutex, but a block that finds the gate busy is copied
/// into the participant's DeferredBlocks and OnBlock returns at once. The
/// next time the participant takes the gate it delivers its deferred blocks
/// in order, then its current one, so each participant's (hence each
/// branch's) paths reach the inner sink in the order it produced them. It
/// waits for the gate only when its buffer is full, and in Flush, which it
/// calls before leaving the fan-out.
///
/// The stop latch guarantees the inner sink is never called again after it
/// returns false or throws (it may tear down on that signal); deferred
/// blocks behind the latch are dropped. A serial run stops within a block
/// of a deadline or cancel, so deferred blocks are delivered only while
/// neither has tripped: a trip found before a deferred block drops it, the
/// rest and the current block, and stops this participant. The adapter
/// also signals stop once the shared result limit is reached, which the
/// enumerators report as a sink stop; the split executor rebuilds the
/// exact flags from the gate when it merges. A block reserves its granted
/// share before it is delivered or deferred, so `delivered()` reaches the
/// limit once every participant has flushed.
///
/// Not thread-safe: one adapter per participant thread.
class BranchSink : public PathSink {
 public:
  /// `deferred` is the participant's buffer; the adapter clears it on
  /// construction and destruction, and it must outlive the adapter.
  BranchSink(BranchGate& gate, PathSink& inner, DeferredBlocks& deferred);
  /// Drops blocks never flushed (a failed participant's).
  ~BranchSink() override;

  BranchSink(const BranchSink&) = delete;
  BranchSink& operator=(const BranchSink&) = delete;

  /// Per-path delivery always waits for the gate (after the participant's
  /// deferred blocks).
  bool OnPath(std::span<const VertexId> path) override;
  BlockResult OnBlock(const PathBlockView& block) override;

  /// Delivers every deferred block, waiting for the gate, or drops them if
  /// the latch trips first. Throws what the inner sink throws.
  void Flush();

 private:
  /// Under the gate's mutex: counts `n` more paths delivered, stamping the
  /// response time when they cross the response target.
  void CountDeliveredLocked(uint64_t n);
  /// Under the gate's mutex: one block into the inner sink, tripping the
  /// latch if the sink refuses or throws; nothing once the latch tripped.
  BlockResult DeliverLocked(const PathBlockView& block);
  /// Under the gate's mutex: the deferred blocks in order, then clears
  /// them. False once the latch or a control trip stopped the delivery (the
  /// rest are dropped).
  bool DeliverDeferredLocked();

  BranchGate& gate_;
  PathSink& inner_;
  DeferredBlocks& deferred_;
};

}  // namespace pathenum

#endif  // PATHENUM_CORE_SINK_H_
