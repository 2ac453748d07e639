#include "core/estimator.h"

#include <algorithm>

namespace pathenum {

double EstimateSearchSpace(const LightweightIndex& idx) {
  const uint32_t k = idx.hops();
  // T̂ = sum_{i=0}^{k-1} prod_{j=0}^{i} gamma_j, with gamma_j the average
  // |I_t(v, k-j-1)| over v in C_j (Eq. 5).
  double total = 0.0;
  double product = 1.0;
  for (uint32_t j = 0; j < k; ++j) {
    const uint64_t count = idx.LevelCount(j);
    if (count == 0) return total;  // dead level: nothing deeper survives
    const double gamma = idx.LevelItSum(j) / static_cast<double>(count);
    product *= gamma;
    total += product;
    if (product == 0.0) break;
  }
  return total;
}

JoinPlan OptimizeJoinOrder(const LightweightIndex& idx) {
  JoinPlan plan;
  const uint32_t k = idx.hops();
  const uint32_t n = idx.num_vertices();
  plan.forward_sizes.assign(k + 1, 0.0);
  plan.backward_sizes.assign(k + 1, 0.0);
  if (n == 0 || idx.source_slot() == kInvalidSlot) return plan;

  // Backward DP (Alg. 5 lines 1-5): c_i^k(v) = number of tuples of Q[i:k]
  // starting at v; c_k^k(v) = 1 on C_k; level i reads level i+1 through
  // I_t(v, k-i-1).
  std::vector<double> cur(n, 0.0);
  std::vector<double> nxt(n, 0.0);
  idx.ForEachSlotInLevel(k, [&](uint32_t slot) {
    nxt[slot] = 1.0;
    plan.backward_sizes[k] += 1.0;
  });
  for (uint32_t i = k; i-- > 0;) {
    double level_sum = 0.0;
    idx.ForEachSlotInLevel(i, [&](uint32_t slot) {
      double c = 0.0;
      for (uint32_t w : idx.OutSlotsWithin(slot, k - i - 1)) c += nxt[w];
      cur[slot] = c;
      level_sum += c;
    });
    plan.backward_sizes[i] = level_sum;
    std::swap(cur, nxt);
  }

  // Forward DP (Alg. 5 lines 6-10): c_0^i(v) = number of tuples of Q[0:i]
  // ending at v; c_0^0(s) = 1. Alg. 5 pulls c_0^i(v) along I_s(v, i-1);
  // pushing c_0^{i-1}(w) along I_t(w, k-i) sums the same edges, because an
  // index edge w -> v with w in C_{i-1} and v.t <= k-i has
  // v.s <= w.s + 1 <= i, so v lies in C_i (DESIGN.md §3). |Q[0:i]| is the
  // pushed mass. Only C_i is zeroed first: a slot outside it may keep a
  // stale level, but the next round reads C_i only.
  std::fill(nxt.begin(), nxt.end(), 0.0);
  idx.ForEachSlotInLevel(0, [&](uint32_t slot) {
    nxt[slot] = 1.0;
    plan.forward_sizes[0] += 1.0;
  });
  for (uint32_t i = 1; i <= k; ++i) {
    idx.ForEachSlotInLevel(i, [&](uint32_t slot) { cur[slot] = 0.0; });
    double level_sum = 0.0;
    idx.ForEachSlotInLevel(i - 1, [&](uint32_t w) {
      const double c = nxt[w];
      if (c == 0.0) return;
      const auto out = idx.OutSlotsWithin(w, k - i);
      for (uint32_t v : out) cur[v] += c;
      level_sum += c * static_cast<double>(out.size());
    });
    plan.forward_sizes[i] = level_sum;
    std::swap(cur, nxt);
  }

  // Cut position (line 11): argmin over i of |Q[0:i]| + |Q[i:k]|, restricted
  // to proper cuts 1 <= i <= k-1 so Alg. 6 has two non-trivial halves.
  plan.t_dfs = 0.0;
  for (uint32_t i = 1; i <= k; ++i) plan.t_dfs += plan.forward_sizes[i];
  if (k >= 2) {
    uint32_t best = 1;
    double best_cost = plan.forward_sizes[1] + plan.backward_sizes[1];
    for (uint32_t i = 2; i < k; ++i) {
      const double cost = plan.forward_sizes[i] + plan.backward_sizes[i];
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    plan.cut = best;
    plan.t_join = plan.backward_sizes[0];  // |Q|
    for (uint32_t i = 1; i <= plan.cut; ++i) {
      plan.t_join += plan.forward_sizes[i];
    }
    for (uint32_t i = plan.cut; i <= k; ++i) {
      plan.t_join += plan.backward_sizes[i];
    }
  }
  return plan;
}

}  // namespace pathenum
