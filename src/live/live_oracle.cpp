#include "live/live_oracle.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

namespace pathenum {

namespace {

uint32_t SatAdd(uint32_t a, uint32_t b) {
  if (a == kInfDistance || b == kInfDistance) return kInfDistance;
  const uint64_t sum = uint64_t{a} + b;
  return sum >= kInfDistance ? kInfDistance : static_cast<uint32_t>(sum);
}

/// Dense weak-component ids of `g` (direction ignored). The id array is
/// shared by every epoch whose labels came from the same folded graph;
/// `*num_comps` is the number of components (ids are in [0, *num_comps)).
std::shared_ptr<const std::vector<VertexId>> WeakComponents(
    const Graph& g, VertexId* num_comps) {
  const VertexId n = g.num_vertices();
  auto comp = std::make_shared<std::vector<VertexId>>(n, n);  // n = unseen
  VertexId next = 0;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if ((*comp)[s] != n) continue;
    (*comp)[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const VertexId u : g.OutNeighbors(v)) {
        if ((*comp)[u] == n) {
          (*comp)[u] = next;
          stack.push_back(u);
        }
      }
      for (const VertexId u : g.InNeighbors(v)) {
        if ((*comp)[u] == n) {
          (*comp)[u] = next;
          stack.push_back(u);
        }
      }
    }
    ++next;
  }
  *num_comps = next;
  return comp;
}

}  // namespace

/// Consultation counters shared by every epoch (and thus valid on EpochRefs
/// that outlive the oracle).
struct LiveDistanceOracle::Metrics {
  obs::ShardedCounter consults;
  obs::ShardedCounter rejects;
};

struct LiveDistanceOracle::EpochState {
  /// One recorded inserted edge. `version` is the latest epoch that
  /// (re-)inserted it — a re-insert after a delete bumps it, so a fold
  /// whose labels predate the re-insert cannot prune the record away.
  struct Correction {
    VertexId tail = 0;
    VertexId head = 0;
    uint64_t version = 0;
  };

  uint64_t version = 0;
  uint64_t base_uid = 0;
  /// The view this epoch describes; kept so a triggered re-label can
  /// materialize it. Null only for the version-0 epoch.
  std::shared_ptr<const GraphView> snapshot;
  std::shared_ptr<const PrunedLandmarkIndex> labels;
  uint64_t label_version = 0;
  /// Every edge inserted in (label_version, version], deduplicated by
  /// endpoints. Complete unless last_dropped_version > label_version.
  std::vector<Correction> inserts;
  /// cross[i * inserts.size() + j] = labels-graph dist(inserts[i].head ->
  /// inserts[j].tail): the relaxation matrix of the correction Dijkstra.
  std::vector<uint32_t> cross;
  /// Version of the newest insert the correction set could NOT absorb
  /// (capacity overflow / out-of-range endpoint). While it exceeds
  /// label_version the set is incomplete and no rejection is claimed.
  uint64_t last_dropped_version = 0;
  /// Weak-connectivity fast path. `comp` maps each vertex to its dense
  /// weak-component id in the labels graph (computed once per label
  /// build); `comp_link` folds the recorded inserts in by unioning their
  /// endpoints' components (flattened at epoch prep, so readers take one
  /// hop). Different roots ⇒ no s-t walk exists in the LB graph at all ⇒
  /// LbDistance is +inf without touching a label — the O(1) answer an
  /// unsatisfiable-query flood lives on. Deletions never split it, which
  /// is exactly the sound direction (the LB graph keeps deleted edges).
  std::shared_ptr<const std::vector<VertexId>> comp;
  std::vector<VertexId> comp_link;
  std::shared_ptr<Metrics> metrics;

  VertexId CompRoot(VertexId c) const {
    while (comp_link[c] != c) c = comp_link[c];
    return c;
  }

  bool RejectionDegraded() const {
    return last_dropped_version > label_version;
  }

  /// Exact distance over the LB graph (labels graph ∪ inserts), except
  /// that any return value > `prune` only certifies "LB distance >
  /// prune" (states costlier than `prune` may be cut). Pass kInfDistance
  /// for the exact value.
  uint32_t LbDistance(VertexId s, VertexId t, uint32_t prune) const;
};

uint32_t LiveDistanceOracle::EpochState::LbDistance(VertexId s, VertexId t,
                                                    uint32_t prune) const {
  if (comp != nullptr && CompRoot((*comp)[s]) != CompRoot((*comp)[t])) {
    return kInfDistance;
  }
  uint32_t best = labels->Distance(s, t);
  const size_t n = inserts.size();
  // Inserts can never improve on a direct hit of 0 (s == t) or 1.
  if (n == 0 || best <= 1) return best;
  if (prune != kInfDistance && best <= prune) return best;

  // Dijkstra over the correction heads: cost[i] = shortest s -> head_i
  // walk in the LB graph whose last step is inserted edge i. n is budget-
  // bounded (2 × LiveOracleOptions::relabel_budget), so linear min-extraction
  // beats a heap.
  std::vector<uint32_t> cost(n);
  std::vector<char> done(n, 0);
  for (size_t i = 0; i < n; ++i) {
    cost[i] = SatAdd(labels->Distance(s, inserts[i].tail), 1);
  }
  for (size_t round = 0; round < n; ++round) {
    uint32_t mc = kInfDistance;
    size_t mi = n;
    for (size_t i = 0; i < n; ++i) {
      if (!done[i] && cost[i] < mc) {
        mc = cost[i];
        mi = i;
      }
    }
    // Every remaining completion costs >= mc: stop once nothing can
    // improve the answer (mc >= best) or the predicate is decided
    // (mc > prune, and then best > prune too or we'd have stopped).
    if (mi == n || mc >= best || mc > prune) break;
    done[mi] = 1;
    best = std::min(best, SatAdd(mc, labels->Distance(inserts[mi].head, t)));
    for (size_t j = 0; j < n; ++j) {
      if (!done[j]) {
        cost[j] = std::min(cost[j], SatAdd(SatAdd(mc, cross[mi * n + j]), 1));
      }
    }
  }
  return best;
}

uint64_t LiveDistanceOracle::EpochRef::version() const {
  return state_ != nullptr ? state_->version : 0;
}

uint64_t LiveDistanceOracle::EpochRef::base_uid() const {
  return state_ != nullptr ? state_->base_uid : 0;
}

bool LiveDistanceOracle::EpochRef::ValidFor(const GraphView& view) const {
  return state_ != nullptr && state_->version == view.version() &&
         state_->base_uid == view.base().uid();
}

bool LiveDistanceOracle::EpochRef::Rejects(VertexId s, VertexId t,
                                           uint32_t k) const {
  if (state_ == nullptr) return false;
  const EpochState& st = *state_;
  st.metrics->consults.Inc();
  if (st.RejectionDegraded()) return false;
  if (s >= st.labels->num_vertices() || t >= st.labels->num_vertices()) {
    return false;
  }
  const bool reject = st.LbDistance(s, t, k) > k;
  if (reject) st.metrics->rejects.Inc();
  return reject;
}

LiveDistanceOracle::LiveDistanceOracle(const Graph& base,
                                       const LiveOracleOptions& opts)
    : opts_(opts), metrics_(std::make_shared<Metrics>()) {
  auto st = std::make_shared<EpochState>();
  st->version = 0;
  st->base_uid = base.uid();
  st->labels = std::make_shared<const PrunedLandmarkIndex>(
      PrunedLandmarkIndex::Build(base));
  st->label_version = 0;
  VertexId num_comps = 0;
  st->comp = WeakComponents(base, &num_comps);
  st->comp_link.resize(num_comps);
  std::iota(st->comp_link.begin(), st->comp_link.end(), VertexId{0});
  st->metrics = metrics_;
  current_ = std::move(st);
#if PATHENUM_OBS
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  const std::string label =
      "oracle=\"" + std::to_string(reg.NextInstanceId()) + "\"";
  reg.RegisterCounter(this, "pathenum_live_oracle_consults_total", label,
                      &metrics_->consults);
  reg.RegisterCounter(this, "pathenum_live_oracle_rejects_total", label,
                      &metrics_->rejects);
  reg.RegisterCounter(this, "pathenum_live_oracle_epochs_total", label,
                      &epochs_);
  reg.RegisterCounter(this, "pathenum_live_oracle_relabels_total", label,
                      &relabels_);
  reg.RegisterGauge(this, "pathenum_live_oracle_corrections", label, [this] {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(current_->inserts.size());
  });
  reg.RegisterGauge(this, "pathenum_live_oracle_label_version", label, [this] {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(current_->label_version);
  });
#endif
}

LiveDistanceOracle::~LiveDistanceOracle() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    relabel_done_.wait(lock, [this] { return !relabel_running_; });
  }
  if (relabel_thread_.joinable()) relabel_thread_.join();
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

LiveDistanceOracle::EpochRef LiveDistanceOracle::PrepareEpoch(
    const GraphDelta& delta, uint64_t version, const GraphView& before,
    std::shared_ptr<const GraphView> next) {
  std::shared_ptr<const EpochState> prev;
  std::shared_ptr<const PrunedLandmarkIndex> staged;
  std::shared_ptr<const std::vector<VertexId>> staged_comp;
  VertexId staged_comps = 0;
  uint64_t staged_version = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    prev = current_;
    if (staged_labels_ != nullptr) {
      staged = staged_labels_;
      staged_comp = staged_comp_;
      staged_comps = staged_num_comps_;
      staged_version = staged_label_version_;
    }
  }
  PATHENUM_CHECK_MSG(version == prev->version + 1,
                     "oracle epochs must be prepared in publish order");
  PATHENUM_CHECK_MSG(before.version() == prev->version &&
                         before.base().uid() == prev->base_uid,
                     "the delta must apply to the current epoch's snapshot");

  auto st = std::make_shared<EpochState>();
  st->version = version;
  st->base_uid = next->base().uid();
  st->snapshot = std::move(next);
  st->metrics = metrics_;
  if (staged != nullptr && staged_version > prev->label_version) {
    st->labels = std::move(staged);
    st->label_version = staged_version;
    st->comp = std::move(staged_comp);
    st->comp_link.resize(staged_comps);
  } else {
    st->labels = prev->labels;
    st->label_version = prev->label_version;
    st->comp = prev->comp;
    st->comp_link.resize(prev->comp_link.size());
  }
  std::iota(st->comp_link.begin(), st->comp_link.end(), VertexId{0});
  st->last_dropped_version = prev->last_dropped_version;

  // Carry forward every correction the new labels do not subsume.
  for (const EpochState::Correction& c : prev->inserts) {
    if (c.version > st->label_version) st->inserts.push_back(c);
  }

  const size_t cap = size_t{2} * opts_.relabel_budget;
  const VertexId num_vertices = st->labels->num_vertices();
  for (const auto& [u, v] : delta.insertions) {
    if (u >= num_vertices || v >= num_vertices) {
      // Unrepresentable in the label space: the set is incomplete.
      st->last_dropped_version = version;
      continue;
    }
    auto it = std::find_if(st->inserts.begin(), st->inserts.end(),
                           [u = u, v = v](const EpochState::Correction& c) {
                             return c.tail == u && c.head == v;
                           });
    if (it != st->inserts.end()) {
      // Re-insert (possibly after an intervening delete): bump the tag so
      // a fold whose labels predate this epoch cannot prune the record.
      it->version = version;
    } else if (st->inserts.size() < cap) {
      st->inserts.push_back({u, v, version});
    } else {
      st->last_dropped_version = version;
    }
  }

  // Fold the recorded inserts into the weak-component union (a dropped
  // insert already degraded rejection, and degraded epochs never reach the
  // fast path). Flattened so concurrent readers take at most one hop.
  for (const EpochState::Correction& c : st->inserts) {
    const VertexId a = st->CompRoot((*st->comp)[c.tail]);
    const VertexId b = st->CompRoot((*st->comp)[c.head]);
    if (a != b) st->comp_link[b] = a;
  }
  for (VertexId& link : st->comp_link) link = st->CompRoot(link);

  // (Re)build the relaxation matrix. When the labels survived from `prev`,
  // only rows/columns of fresh corrections need label queries.
  const size_t n = st->inserts.size();
  st->cross.assign(n * n, kInfDistance);
  const bool same_labels = st->labels == prev->labels;
  const size_t prev_n = prev->inserts.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      // Carried-forward corrections keep prev's order as a prefix, so the
      // old matrix maps over directly.
      if (same_labels && i < prev_n && j < prev_n &&
          st->inserts[i].tail == prev->inserts[i].tail &&
          st->inserts[i].head == prev->inserts[i].head &&
          st->inserts[j].tail == prev->inserts[j].tail) {
        st->cross[i * n + j] = prev->cross[i * prev_n + j];
      } else {
        st->cross[i * n + j] =
            st->labels->Distance(st->inserts[i].head, st->inserts[j].tail);
      }
    }
  }

  return EpochRef(std::move(st));
}

void LiveDistanceOracle::PublishEpoch(const EpochRef& epoch) {
  PATHENUM_CHECK_MSG(epoch.valid(), "cannot publish an empty oracle epoch");
  std::shared_ptr<const EpochState> st = epoch.state_;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    PATHENUM_CHECK_MSG(st->version == current_->version + 1,
                       "oracle epochs must publish in order");
    current_ = st;
    if (staged_labels_ != nullptr &&
        st->label_version >= staged_label_version_) {
      staged_labels_ = nullptr;  // folded into this epoch
      staged_comp_ = nullptr;
    }
  }
  epochs_.Inc();
  MaybeStartRelabel(st);
}

LiveDistanceOracle::EpochRef LiveDistanceOracle::Current() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return EpochRef(current_);
}

void LiveDistanceOracle::WaitForRelabel() {
  std::unique_lock<std::mutex> lock(mutex_);
  relabel_done_.wait(lock, [this] { return !relabel_running_; });
}

void LiveDistanceOracle::MaybeStartRelabel(
    const std::shared_ptr<const EpochState>& epoch) {
  const bool over_budget = epoch->inserts.size() > opts_.relabel_budget;
  if ((!over_budget && !epoch->RejectionDegraded()) ||
      epoch->snapshot == nullptr) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // One rebuild in flight, and never stack a second behind unfolded
    // staged labels — the next published epoch folds them first.
    if (relabel_running_ || staged_labels_ != nullptr) return;
    relabel_running_ = true;
  }
  if (!opts_.background_relabel) {
    Relabel(epoch->version, epoch->snapshot);
    return;
  }
  // The predecessor thread (if any) has already cleared relabel_running_,
  // so this join only reaps an exiting thread.
  if (relabel_thread_.joinable()) relabel_thread_.join();
  relabel_thread_ = std::thread(&LiveDistanceOracle::Relabel, this,
                                epoch->version, epoch->snapshot);
}

void LiveDistanceOracle::Relabel(uint64_t version,
                                 std::shared_ptr<const GraphView> snapshot) {
  const Graph materialized = snapshot->Materialize();
  auto labels = std::make_shared<const PrunedLandmarkIndex>(
      PrunedLandmarkIndex::Build(materialized));
  VertexId num_comps = 0;
  auto comp = WeakComponents(materialized, &num_comps);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    staged_labels_ = std::move(labels);
    staged_comp_ = std::move(comp);
    staged_num_comps_ = num_comps;
    staged_label_version_ = version;
    relabel_running_ = false;
  }
  relabels_.Inc();
  relabel_done_.notify_all();
}

LiveDistanceOracle::Stats LiveDistanceOracle::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const EpochState& front = *current_;
  Stats s;
  s.epochs = epochs_.Value();
  s.relabels = relabels_.Value();
  s.rejects = metrics_->rejects.Value();
  s.consults = metrics_->consults.Value();
  s.label_version = front.label_version;
  s.corrections = front.inserts.size();
  s.rejection_degraded = front.RejectionDegraded();
  return s;
}

}  // namespace pathenum
