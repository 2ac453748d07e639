// Cross-query caching for the batch engine (DESIGN.md §6).
//
// At service scale real workloads are skewed: hot (s, t, k) pairs repeat and
// batches contain duplicates, so the single biggest win over the paper's
// build-per-query design is to stop rebuilding the same light-weight index
// at all. `IndexCache` is a sharded, thread-safe LRU over
// shared_ptr<const LightweightIndex> keyed by (s, t, k, options-fingerprint)
// under a byte budget (MemoryBytes()-based accounting), with single-flight
// build latching: concurrent workers hitting the same missing key build the
// index exactly once and share the result — no thundering herd.
//
// It also carries an optional result cache: a query whose previous run
// completed without truncation (no limit / deadline / sink stop) stores its
// full path set, and identical later queries replay it without touching the
// enumerator. Truncated runs never enter the result cache.
//
// Invalidation is generation-stamped: Clear() (e.g. on graph rebind) bumps
// the generation, so an index whose build straddles the swap is handed to
// its waiters but never published into the cache.
//
// For the live-graph subsystem (DESIGN.md §7) entries are additionally
// *snapshot-versioned*: every entry records the snapshot version it was
// built at, lookups pass the querying view's version, and `BeginEpoch`
// advances the cache to a new version while selectively evicting only the
// entries an update could affect — so hot keys survive graph updates that
// happen elsewhere in the graph. An entry that survives an epoch is valid
// for every version from its build to the current one (surviving means the
// intervening updates provably do not affect its key); a query on an older
// snapshot therefore hits surviving entries but never entries built after
// its own version, and an in-flight build whose snapshot is no longer
// current completes for its caller without being published.
#ifndef PATHENUM_ENGINE_INDEX_CACHE_H_
#define PATHENUM_ENGINE_INDEX_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/index.h"
#include "core/options.h"
#include "core/sink.h"
#include "obs/metrics.h"

namespace pathenum {

class GraphView;

/// Cache key: query endpoints + hop bound + an options fingerprint, so
/// indexes built under different IndexBuildOptions (or result sets recorded
/// under result-relevant EnumOptions) never alias each other.
struct CacheKey {
  VertexId source = 0;
  VertexId target = 0;
  uint32_t hops = 0;
  uint64_t fingerprint = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ k.fingerprint;
    const auto mix = [&h](uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(k.source);
    mix(k.target);
    mix(k.hops);
    return static_cast<size_t>(h);
  }
};

/// Fingerprint of the build options that shape an index. The filter must be
/// null — predicate-constrained builds are not cacheable (the predicate's
/// identity cannot be fingerprinted).
uint64_t IndexOptionsFingerprint(const IndexBuildOptions& opts);

/// Fingerprint of the EnumOptions fields that can change the *sequence* of
/// emitted paths (method selection); limits are excluded on purpose — a
/// completed run's result set is limit-independent and replay re-applies
/// the current limits.
uint64_t ResultOptionsFingerprint(const EnumOptions& opts);

/// Construction knobs. Budgets are split evenly across shards; a shard
/// always retains its most recent entry even when that entry alone exceeds
/// the shard budget (caching nothing would thrash strictly harder).
struct IndexCacheOptions {
  size_t max_index_bytes = size_t{128} << 20;
  /// 0 disables the result cache entirely.
  size_t max_result_bytes = size_t{32} << 20;
  /// Per-entry cap: a result set larger than this is never recorded.
  size_t max_result_entry_bytes = size_t{4} << 20;
  /// Rounded up to a power of two.
  uint32_t shards = 8;
};

/// Counter snapshot (monotonic except the byte gauges).
struct IndexCacheStats {
  uint64_t index_hits = 0;
  uint64_t index_misses = 0;
  uint64_t index_evictions = 0;
  /// Lookups that waited on another worker's in-flight build of the same
  /// key instead of building themselves.
  uint64_t coalesced_builds = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_evictions = 0;
  uint64_t result_inserts = 0;
  /// Insert attempts refused by the per-entry cap / disabled result cache
  /// or by a snapshot-version mismatch (stale run completing after an
  /// epoch).
  uint64_t result_rejects = 0;
  /// Entries (index + result) dropped selectively by BeginEpoch.
  uint64_t invalidation_evictions = 0;
  size_t index_bytes = 0;   // gauge: bytes currently cached
  size_t result_bytes = 0;  // gauge

  /// Batch delta: counters subtract, byte gauges keep this (newer) value.
  IndexCacheStats operator-(const IndexCacheStats& o) const {
    IndexCacheStats d = *this;
    d.index_hits -= o.index_hits;
    d.index_misses -= o.index_misses;
    d.index_evictions -= o.index_evictions;
    d.coalesced_builds -= o.coalesced_builds;
    d.result_hits -= o.result_hits;
    d.result_misses -= o.result_misses;
    d.result_evictions -= o.result_evictions;
    d.result_inserts -= o.result_inserts;
    d.result_rejects -= o.result_rejects;
    d.invalidation_evictions -= o.invalidation_evictions;
    return d;
  }
};

/// A fully-enumerated result set, paths flattened into one vertex buffer.
struct CachedResultSet {
  std::vector<VertexId> vertices;  // concatenated path vertex sequences
  std::vector<uint32_t> offsets;   // num_paths() + 1 prefix offsets
  Method method = Method::kDfs;    // what produced it (stats fidelity)
  uint64_t index_vertices = 0;
  uint64_t index_edges = 0;
  size_t index_bytes = 0;

  size_t num_paths() const { return offsets.empty() ? 0 : offsets.size() - 1; }

  std::span<const VertexId> Path(size_t i) const {
    return {vertices.data() + offsets[i],
            static_cast<size_t>(offsets[i + 1] - offsets[i])};
  }

  size_t MemoryBytes() const {
    return sizeof(*this) + vertices.capacity() * sizeof(VertexId) +
           offsets.capacity() * sizeof(uint32_t);
  }
};

class IndexCache {
 public:
  explicit IndexCache(const IndexCacheOptions& opts = {});
  ~IndexCache();

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// Returns the cached index for `key` valid at snapshot `view_version`,
  /// or runs `build` (outside any lock) and publishes the result.
  /// Concurrent same-version callers on the same missing key coalesce onto
  /// one build. A throwing build propagates to the builder and wakes the
  /// waiters, which retry (one becomes the next builder); a build whose own
  /// deadline/cancel tripped (build_stats().interrupted) is returned to its
  /// caller but fails the latch the same way — waiters with laxer budgets
  /// retry instead of inheriting the stub. `was_hit`
  /// (optional) reports whether an already-built index was returned
  /// (including coalesced waits). An entry hits only when it was first
  /// published at a version <= `view_version` (and survived every epoch
  /// since); a build by a caller whose snapshot is no longer current
  /// completes for that caller but is never published. Static-graph users
  /// leave `view_version` at 0 (the cache starts at version 0).
  std::shared_ptr<const LightweightIndex> GetOrBuild(
      const CacheKey& key, const std::function<LightweightIndex()>& build,
      bool* was_hit = nullptr, uint64_t view_version = 0);

  /// Non-mutating probe (no LRU touch, no stats): scheduling uses it to
  /// order cache hits first within a batch.
  std::shared_ptr<const LightweightIndex> PeekIndex(
      const CacheKey& key, uint64_t view_version = 0) const;

  /// Result-cache lookup; counts a hit/miss and touches the LRU.
  std::shared_ptr<const CachedResultSet> GetResult(const CacheKey& key,
                                                   uint64_t view_version = 0);

  /// Non-mutating result probe for scheduling.
  bool HasResult(const CacheKey& key, uint64_t view_version = 0) const;

  /// Inserts a completed result set; returns false when rejected (result
  /// cache disabled, entry above the per-entry cap, or `view_version` no
  /// longer current — a stale run must not publish results).
  bool PutResult(const CacheKey& key,
                 std::shared_ptr<const CachedResultSet> result,
                 uint64_t view_version = 0);

  /// Drops every cached entry and bumps the
  /// generation, so in-flight builds finish for their waiters but are not
  /// published. Call on full graph swap (RebindGraph). `new_version` resets
  /// the snapshot version to whatever the caller is about to serve — 0
  /// matches a freshly bound graph; a live engine passes its current view
  /// version so post-clear publications are not rejected as stale.
  void Clear(uint64_t new_version = 0);

  /// Incremental invalidation (DESIGN.md §7): advances the cache to
  /// snapshot `new_version` and evicts exactly the entries whose key the
  /// update epoch could affect — `affects(s, t, k)` must return true when
  /// a changed edge could lie on some <=k-hop s-t path in the old or new
  /// snapshot (live/impact.h computes a sound such predicate). Everything
  /// else survives and is valid for the new version. In-flight builds of
  /// pre-epoch snapshots finish for their callers but are not published.
  /// Passing an always-true predicate degrades to a versioned full clear
  /// (the baseline the update-heavy bench compares against). Returns the
  /// number of evicted entries. `new_version` must be greater than every
  /// previously seen version; the caller serializes epochs.
  size_t BeginEpoch(uint64_t new_version,
                    const std::function<bool(VertexId source, VertexId target,
                                             uint32_t hops)>& affects);

  /// Snapshot version the cache currently serves (see BeginEpoch).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  IndexCacheStats Stats() const;
  const IndexCacheOptions& options() const { return opts_; }

 private:
  struct Shard;

  Shard& ShardFor(const CacheKey& key) const;

  IndexCacheOptions opts_;
  uint32_t shard_mask_ = 0;
  size_t index_budget_per_shard_ = 0;
  size_t result_budget_per_shard_ = 0;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> version_{0};

  // Counter storage is obs::ShardedCounter (DESIGN.md §12): the same slots
  // back Stats() and the registry exposition (`pathenum_cache_*` with a
  // per-instance label), so nothing is counted twice.
  mutable obs::ShardedCounter index_hits_;
  mutable obs::ShardedCounter index_misses_;
  mutable obs::ShardedCounter index_evictions_;
  mutable obs::ShardedCounter coalesced_builds_;
  mutable obs::ShardedCounter result_hits_;
  mutable obs::ShardedCounter result_misses_;
  mutable obs::ShardedCounter result_evictions_;
  mutable obs::ShardedCounter result_inserts_;
  mutable obs::ShardedCounter result_rejects_;
  mutable obs::ShardedCounter invalidation_evictions_;
  std::atomic<size_t> index_bytes_{0};
  std::atomic<size_t> result_bytes_{0};
};

/// Tees enumerated paths into a CachedResultSet while forwarding them to the
/// inner sink. Recording is abandoned (forwarding continues) once the entry
/// would exceed `max_bytes`, so a surprise-huge query cannot blow the
/// recording buffer.
class RecordingSink : public PathSink {
 public:
  RecordingSink(PathSink& inner, size_t max_bytes);

  bool OnPath(std::span<const VertexId> path) override;

  /// Records the decoded block (flat append, one pass) and forwards it to
  /// the inner sink as a block. A partially consumed block can leave extra
  /// recorded paths, but such a run is truncated and never enters the
  /// result cache (only completed runs are Finish()ed).
  BlockResult OnBlock(const PathBlockView& block) override;

  bool recording() const { return recording_; }

  /// Finalizes and hands the recorded set over (call once, only when the
  /// run completed and recording() is still true).
  std::shared_ptr<const CachedResultSet> Finish(const QueryStats& stats);

 private:
  PathSink& inner_;
  const size_t max_bytes_;
  bool recording_ = true;
  std::shared_ptr<CachedResultSet> set_;
};

/// Replays a cached result set into `sink`, honoring the current run's
/// result limit and sink-stop contract; returns synthesized QueryStats with
/// result_cache_hit set.
QueryStats ReplayCachedResult(const CachedResultSet& result, PathSink& sink,
                              const EnumOptions& opts);

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_INDEX_CACHE_H_
