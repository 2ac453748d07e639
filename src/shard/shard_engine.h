// One shard of the sharded serving tier (DESIGN.md §14): the unchanged
// single-process stack — SnapshotManager MVCC over the shard's tail-owned
// subgraph, a pooled QueryEngine with its own IndexCache — wrapped behind a
// shard id. The wrapper adds the live-update discipline for shard-local
// deltas (Prepare → IndexCache::BeginEpoch with the epoch's impact
// predicate → Publish), so each shard publishes its own snapshot epoch
// stream.
//
// The router builds every query's index over all shards' pinned snapshot
// views without going through the engines, and hands a query to this
// shard's engine (with its index and result caches) when that index
// proves every path stays inside this shard; it runs every other query on
// its own thread. Every shard's engine owns its own IndexCache, so no two
// shards' cache keys ever meet.
#ifndef PATHENUM_SHARD_SHARD_ENGINE_H_
#define PATHENUM_SHARD_SHARD_ENGINE_H_

#include <cstdint>
#include <memory>

#include "engine/query_engine.h"
#include "graph/view.h"
#include "live/snapshot.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace pathenum {

struct ShardEngineOptions {
  /// Per-shard engine knobs. enable_cache defaults on here (the sharded
  /// tier exists to serve repeated traffic).
  EngineOptions engine = [] {
    EngineOptions e;
    e.enable_cache = true;
    return e;
  }();
  SnapshotOptions snapshot;
};

class ShardEngine {
 public:
  /// Takes ownership of the shard's tail-owned subgraph (full global
  /// vertex space — see shard/partition.h). `partition_generation` labels
  /// the shard's metrics.
  ShardEngine(uint32_t shard_id, uint64_t partition_generation,
              Graph shard_graph, const ShardEngineOptions& opts = {});
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  uint32_t shard_id() const { return shard_id_; }

  /// The shard's latest published snapshot (MVCC: callers pin it for the
  /// duration of a query; later epochs never disturb it).
  std::shared_ptr<const GraphView> CurrentView() const {
    return snapshots_.Current();
  }
  uint64_t version() const { return snapshots_.version(); }

  /// Applies a shard-local delta (every op's tail must be owned by this
  /// shard — the router's partition map guarantees it) under the live
  /// epoch discipline: the new version's cache epoch begins before the
  /// snapshot publishes, so no query can observe the new version against
  /// stale cache entries. Serialized by the caller (the router's update
  /// path). Returns InvalidArgument on endpoints outside the vertex space.
  Status SubmitLocalDelta(const GraphDelta& delta);

  QueryEngine& engine() { return engine_; }
  const SnapshotManager& snapshots() const { return snapshots_; }

  /// Counts a query the router delegated to this shard (backs the
  /// registry's `pathenum_shard_local_queries_total`).
  void RecordLocalQuery() { local_queries_.Inc(); }

  struct Stats {
    uint64_t updates = 0;        // shard-local epochs published
    uint64_t local_queries = 0;  // queries delegated wholly to this shard
  };
  Stats stats() const { return {updates_.Value(), local_queries_.Value()}; }

 private:
  uint32_t shard_id_;
  SnapshotManager snapshots_;
  QueryEngine engine_;
  obs::ShardedCounter updates_;
  obs::ShardedCounter local_queries_;
};

}  // namespace pathenum

#endif  // PATHENUM_SHARD_SHARD_ENGINE_H_
