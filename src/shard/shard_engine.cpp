#include "shard/shard_engine.h"

#include <string>

namespace pathenum {

ShardEngine::ShardEngine(uint32_t shard_id, uint64_t partition_generation,
                         Graph shard_graph, const ShardEngineOptions& opts)
    : shard_id_(shard_id),
      snapshots_(std::move(shard_graph), opts.snapshot),
      engine_(*snapshots_.Current(), opts.engine) {
  auto& reg = obs::MetricRegistry::Global();
  const std::string label = "shard=\"" + std::to_string(shard_id_) +
                            "\",gen=\"" +
                            std::to_string(partition_generation) + "\"";
  reg.RegisterCounter(this, "pathenum_shard_updates_total", label, &updates_);
  reg.RegisterCounter(this, "pathenum_shard_local_queries_total", label,
                      &local_queries_);
}

ShardEngine::~ShardEngine() {
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

Status ShardEngine::SubmitLocalDelta(const GraphDelta& delta) {
  const Status st =
      CheckDelta(delta, snapshots_.Current()->num_vertices());
  if (!st.ok()) return st;
  // The live discipline (DESIGN.md §7): epoch the cache onto the new
  // version before any query can observe it, then publish.
  SnapshotManager::Epoch epoch = snapshots_.Prepare(delta);
  if (IndexCache* cache = engine_.cache()) {
    cache->BeginEpoch(epoch.snapshot->version(),
                      [&epoch](VertexId s, VertexId t, uint32_t k) {
                        return epoch.impact.AffectsQuery(s, t, k);
                      });
  }
  snapshots_.Publish(epoch);
  updates_.Inc();
  return Status::Ok();
}

}  // namespace pathenum
