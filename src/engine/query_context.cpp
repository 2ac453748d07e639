#include "engine/query_context.h"

#include <stdexcept>

namespace pathenum {

QueryState FailedRunState(const std::exception& e) {
  return dynamic_cast<const std::logic_error*>(&e) != nullptr
             ? QueryState::kRejected
             : QueryState::kError;
}

QueryStats QueryContext::RunCached(const Query& q, PathSink& sink,
                                   const EnumOptions& opts, IndexCache* cache,
                                   obs::QuerySpan* span) {
  // Validation throws before any cache interaction, exactly like Run.
  ValidateQuery(enumerator_.view(), q);

  // Cache interactions carry this context's snapshot version: a hit must be
  // valid for exactly the snapshot this query observes, and a build/record
  // of a retired snapshot must not publish (DESIGN.md §7).
  const uint64_t view_version = enumerator_.view().version();
  const bool result_cache_on =
      cache != nullptr && cache->options().max_result_bytes > 0;
  const CacheKey result_key{q.source, q.target, q.hops,
                            ResultOptionsFingerprint(opts)};
  // Whether the cache admits this run's paths; false on the key's first
  // miss (DESIGN.md §6), which runs straight into `sink`.
  bool record = false;
  if (result_cache_on) {
    if (const auto cached =
            cache->GetResult(result_key, view_version, &record)) {
      if (span != nullptr) {
        span->SetIndexOutcome(false, /*result_cache_hit=*/true);
        span->Mark(obs::SpanStage::kIndexAcquire);
      }
      const QueryStats stats = ReplayCachedResult(*cached, sink, opts);
      if (span != nullptr) {
        span->Mark(obs::SpanStage::kEnumerate);
        span->SetPlan(stats);
      }
      return stats;
    }
  }

  QueryStats acquired;
  const std::shared_ptr<const LightweightIndex> index = AcquireIndex(
      q, PathEnumerator::BuildOptionsFor(q, opts), cache, acquired);
  if (span != nullptr) {
    span->SetIndexOutcome(acquired.index_cache_hit, false);
    span->Mark(obs::SpanStage::kIndexAcquire);
  }

  if (index->build_stats().interrupted) {
    // This query's own deadline/cancel tripped mid-build (an interrupted
    // build is never published or handed to waiters, so it is always ours).
    FinalizeInterruptedBuild(acquired, *index, acquired.index_ms);
    return acquired;
  }

  QueryStats stats;
  if (record) {
    RecordingSink recorder(sink, cache->options().max_result_entry_bytes);
    stats = enumerator_.RunWithIndex(*index, recorder, opts);
    // Only complete runs enter the result cache: a truncated path set
    // (limit, deadline, sink stop) must never be replayed as the answer.
    if (stats.counters.completed() && recorder.recording()) {
      cache->PutResult(result_key, recorder.Finish(stats), view_version);
    }
  } else {
    stats = enumerator_.RunWithIndex(*index, sink, opts);
  }
  if (span != nullptr) {
    span->Mark(obs::SpanStage::kEnumerate);
    span->SetPlan(stats);
  }
  // A miss paid for the build inside AcquireIndex; charge it (a hit's
  // build times are zero).
  stats.index_cache_hit = acquired.index_cache_hit;
  stats.bfs_ms = acquired.bfs_ms;
  stats.index_ms = acquired.index_ms;
  stats.total_ms += stats.index_ms;
  stats.response_ms += stats.index_ms;
  return stats;
}

std::shared_ptr<const LightweightIndex> QueryContext::AcquireIndex(
    const Query& q, const IndexBuilder::Options& build_opts, IndexCache* cache,
    QueryStats& stats) {
  std::shared_ptr<const LightweightIndex> index;
  if (cache != nullptr) {
    const CacheKey key{q.source, q.target, q.hops,
                       IndexOptionsFingerprint(build_opts)};
    bool hit = false;
    index = cache->GetOrBuild(
        key, [&] { return enumerator_.BuildIndex(q, build_opts); }, &hit,
        enumerator_.view().version());
    stats.index_cache_hit = hit;
    if (!hit) {
      stats.bfs_ms = index->build_stats().bfs_ms;
      stats.index_ms = index->build_stats().total_ms;
    }
  } else {
    index = std::make_shared<const LightweightIndex>(
        enumerator_.BuildIndex(q, build_opts));
    stats.bfs_ms = index->build_stats().bfs_ms;
    stats.index_ms = index->build_stats().total_ms;
  }
  stats.index_vertices = index->num_vertices();
  stats.index_edges = index->num_edges();
  stats.index_bytes = index->MemoryBytes();
  return index;
}

}  // namespace pathenum
