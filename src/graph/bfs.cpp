#include "graph/bfs.h"

#include <algorithm>

namespace pathenum {

void DistanceField::EnsureSize(size_t n) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    dist_.assign(n, 0);
    epoch_ = 0;
  }
}

void TwoSidedField::EnsureSize(size_t n) {
  if (records_.size() < n) {
    records_.assign(n, Record{});
    epoch_ = 0;
  }
}

void BatchedDistanceField::EnsureSize(size_t n, size_t k) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    reached_word_.resize(n);
    blocked_stamp_.assign(n, 0);
    blocked_word_.resize(n);
    frontier_stamp_.assign(n, 0);
    cur_word_.resize(n);
    next_word_.resize(n);
    epoch_ = 0;
    token_ = 0;
  }
  if (dist_.size() < n * k) dist_.resize(n * k);
  if (reached_lists_.size() < k) reached_lists_.resize(k);
  if (wave_offsets_.size() < k) wave_offsets_.resize(k);
}

bool WithinDistance(const Graph& g, VertexId from, VertexId to,
                    uint32_t max_depth) {
  if (from == to) return true;
  DistanceField field;
  DistanceField::Options opts;
  opts.max_depth = max_depth;
  opts.stop_at = to;
  field.Compute(g, Direction::kForward, from, opts);
  return field.Distance(to) <= max_depth;
}

}  // namespace pathenum
