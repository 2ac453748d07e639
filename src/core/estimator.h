// Cardinality estimation and join-order optimization (paper §6).
//
// * `EstimateSearchSpace` is the preliminary estimator of Eq. 5: a product
//   of per-level average fan-outs collected during index construction, O(k^2).
// * `OptimizeJoinOrder` is Alg. 5: an exact dynamic program over the index
//   that computes |Q[0:i]| (walks-with-padding from s) and |Q[i:k]|
//   (suffixes to t), picks the cut position i* minimizing
//   |Q[0:i]| + |Q[i:k]|, and prices the left-deep plan (T_DFS) against the
//   bushy plan (T_JOIN) with the Eq. 1 cost model. Both DPs read only I_t:
//   the backward one pulls along I_t(v, k-i-1), and the forward one pushes
//   along I_t(w, k-i) where Alg. 5 pulls along I_s(v, i-1) — the same edge
//   set (DESIGN.md §3), so the index needs no in-direction.
//
// Counts are kept as doubles: delta_W can exceed 2^64 on dense graphs, and
// the optimizer only needs relative magnitudes. Two paper typos are fixed
// here (see DESIGN.md): the forward DP's pull budget is I_s(v, i-1) (the
// push budget I_t(w, k-i) matches it), and T_JOIN's third term sums the
// suffix sizes |Q[i:k]| for i in [i*, k].
#ifndef PATHENUM_CORE_ESTIMATOR_H_
#define PATHENUM_CORE_ESTIMATOR_H_

#include <vector>

#include "core/index.h"

namespace pathenum {

/// Preliminary estimate T̂ of the search-space size (Eq. 5). O(k) given the
/// statistics the index collected at build time.
double EstimateSearchSpace(const LightweightIndex& idx);

/// Result of the full-fledged optimizer (Alg. 5).
struct JoinPlan {
  /// Cut position i* in [1, k-1]; 0 when the query is degenerate (k < 2 or
  /// the index is empty).
  uint32_t cut = 0;
  /// Cost-model price of the left-deep (IDX-DFS) plan: sum_i |Q[0:i]|.
  double t_dfs = 0.0;
  /// Cost-model price of the bushy plan:
  /// |Q| + sum_{i<=i*} |Q[0:i]| + sum_{i>=i*} |Q[i:k]|.
  double t_join = 0.0;
  /// |Q[0:i]| for i = 0..k (forward DP; index i).
  std::vector<double> forward_sizes;
  /// |Q[i:k]| for i = 0..k (backward DP; index i).
  std::vector<double> backward_sizes;

  /// |Q| — the exact number of hop-constrained s-t *walks* (delta_W), since
  /// padded tuples of Q biject with walks (paper Lemmas A.1/A.2).
  double TotalWalks() const {
    return backward_sizes.empty() ? 0.0 : backward_sizes.front();
  }

  bool PreferJoin() const { return cut != 0 && t_join < t_dfs; }
};

/// Runs the Alg. 5 dynamic program over any index: O(k · (|X| + index
/// edges)).
JoinPlan OptimizeJoinOrder(const LightweightIndex& idx);

}  // namespace pathenum

#endif  // PATHENUM_CORE_ESTIMATOR_H_
