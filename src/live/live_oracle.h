// Standing live distance oracle (DESIGN.md §13): keeps the O(|label|)
// unsatisfiable-query rejection of PrunedLandmarkIndex sound and active
// while the graph mutates under the update stream, without re-labeling per
// epoch.
//
// A query q(s, t, k) is *unsatisfiable* when dist(s, t) > k — the complete
// result set is empty and nothing needs to be built or enumerated.
// Rejecting on a distance claim is only sound against a LOWER bound: the
// oracle may wrongly ACCEPT (the query then runs the exact pipeline and
// finds nothing — a wasted index build), but must never wrongly REJECT.
//
// The construction, per published epoch:
//
//  * Exact 2-hop labels over the *labels graph* — the snapshot the last
//    (re-)labeling ran on, at `label_version`.
//
//  * An insert-correction set C: every edge inserted after label_version,
//    version-tagged, NEVER removed by later deletions. The "LB graph" =
//    labels graph ∪ C is a SUPERGRAPH of the true graph at the epoch's
//    version (each true edge either existed at label_version or is in C;
//    stale extra edges only shorten distances), so its exact distance
//    lower-bounds the true distance and LB > k certifies rejection.
//    Deletions need no tracking for rejection. A single-edge 2-hop fixup
//    is NOT enough — corrections chain (s →labels u1 →ins v1 →labels u2
//    →ins v2 → … → t) — so the epoch precomputes the |C|×|C| matrix of
//    labels-graph distances between correction endpoints and each query
//    runs a bounded Dijkstra over the ≤|C| correction heads (O(|C|²)
//    scans, |C| is budget-bounded and tiny).
//
//  * Version gating: an epoch's claims are valid ONLY for the exact
//    snapshot version (and base-graph identity) it was prepared for.
//    The oracle keeps only its current epoch; a caller takes the epoch
//    paired with its snapshot from SnapshotManager::CurrentPublished, or
//    gates a ref on EpochRef::ValidFor, so every publish / re-label /
//    rebind race degrades to a sound "no claim".
//
//  * Background re-labeling: when |C| outgrows `relabel_budget` the oracle
//    rebuilds exact labels from a materialized snapshot on a dedicated
//    thread and folds them in at the next published epoch, pruning every
//    correction at or below the re-labeled version.
//
// Epoch preparation/publication piggybacks on SnapshotManager's
// Prepare/Publish (see AttachOracle); consultation (EpochRef) is lock-free
// shared-state reads, safe from any thread, and EpochRefs stay valid after
// the oracle is destroyed.
#ifndef PATHENUM_LIVE_LIVE_ORACLE_H_
#define PATHENUM_LIVE_LIVE_ORACLE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/distance_oracle.h"
#include "graph/view.h"
#include "obs/metrics.h"

namespace pathenum {

struct LiveOracleOptions {
  /// Re-label once the insert-correction set exceeds this many edges. The
  /// set holds at most twice this many: past that cap the epoch stops
  /// claiming rejections entirely (sound: every answer becomes "no claim")
  /// until a re-label folds.
  uint32_t relabel_budget = 32;
  /// Re-label on a dedicated background thread. Disable for deterministic
  /// tests/benches: the budget overflow then re-labels synchronously
  /// inside PublishEpoch.
  bool background_relabel = true;
};

class LiveDistanceOracle {
 public:
  struct EpochState;  // defined in live_oracle.cpp

  /// A consultable claim set for exactly one published snapshot version.
  /// Value type over shared immutable state: copy freely, consult from any
  /// thread, outlives the oracle. The default-constructed ref is empty and
  /// claims nothing.
  class EpochRef {
   public:
    EpochRef() = default;

    bool valid() const { return state_ != nullptr; }
    /// The snapshot version this epoch's claims describe (0 if empty).
    uint64_t version() const;
    /// Graph::uid of that snapshot's base graph (0 if empty).
    uint64_t base_uid() const;

    /// True iff this ref may answer for `view`: same version AND same base
    /// topology. Callers must gate every consultation on this (or obtain
    /// the ref through SnapshotManager::CurrentPublished, which guarantees
    /// the pairing).
    bool ValidFor(const GraphView& view) const;

    /// Sound rejection claim: true ⇒ dist(s, t) > k in the graph at
    /// exactly version(), i.e. q(s, t, k) has a complete, empty result
    /// set. False means "no claim", never "satisfiable". Empty refs and
    /// out-of-range endpoints answer false. O(|label| + |C|²).
    bool Rejects(VertexId s, VertexId t, uint32_t k) const;

   private:
    friend class LiveDistanceOracle;
    explicit EpochRef(std::shared_ptr<const EpochState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<const EpochState> state_;
  };

  /// Builds exact labels for `base` (the version-0 snapshot) synchronously.
  explicit LiveDistanceOracle(const Graph& base,
                              const LiveOracleOptions& opts = {});
  ~LiveDistanceOracle();

  LiveDistanceOracle(const LiveDistanceOracle&) = delete;
  LiveDistanceOracle& operator=(const LiveDistanceOracle&) = delete;

  /// Computes the epoch for `delta` applied at `version` (= published
  /// version + 1) on top of the current epoch, WITHOUT publishing it: pure
  /// function of the current state, safe to drop. `before` is the snapshot
  /// the delta applies to, which must be the one the current epoch
  /// describes (checked); `next` the resulting view (kept alive by the
  /// epoch for a potential re-label). SnapshotManager::Prepare drives this.
  EpochRef PrepareEpoch(const GraphDelta& delta, uint64_t version,
                        const GraphView& before,
                        std::shared_ptr<const GraphView> next);

  /// Installs a prepared epoch as current (versions must be contiguous —
  /// serialize with the snapshot updater) and triggers re-labeling when the
  /// correction set outgrew the budget. SnapshotManager::Publish drives
  /// this under its own mutex; keep it cheap.
  void PublishEpoch(const EpochRef& epoch);

  /// The newest published epoch.
  EpochRef Current() const;

  /// Blocks until no background re-label is in flight. The rebuilt labels
  /// fold in at the NEXT published epoch; tests publish one more (possibly
  /// empty) delta after this to observe the fold.
  void WaitForRelabel();

  struct Stats {
    uint64_t epochs = 0;    // published epochs (excluding version 0)
    uint64_t relabels = 0;  // completed label rebuilds
    uint64_t rejects = 0;   // Rejects() == true answers
    uint64_t consults = 0;  // Rejects() calls
    uint64_t label_version = 0;       // current epoch's labels-graph version
    size_t corrections = 0;           // current epoch's |C|
    bool rejection_degraded = false;  // |C| overflowed 2 × relabel_budget
  };
  Stats stats() const;

  const LiveOracleOptions& options() const { return opts_; }

 private:
  struct Metrics;

  /// Rebuild labels from `snapshot` (at `version`) and stage them for the
  /// next Advance to fold. Runs on relabel_thread_ (or inline when
  /// background_relabel is off).
  void Relabel(uint64_t version, std::shared_ptr<const GraphView> snapshot);
  void MaybeStartRelabel(const std::shared_ptr<const EpochState>& epoch);

  const LiveOracleOptions opts_;
  const std::shared_ptr<Metrics> metrics_;

  mutable std::mutex mutex_;
  std::condition_variable relabel_done_;
  /// The newest published epoch. Older epochs live on only in the
  /// EpochRefs callers still hold.
  std::shared_ptr<const EpochState> current_;
  /// A completed re-label waiting to fold into the next prepared epoch
  /// (labels plus the weak-component map of the same folded graph).
  std::shared_ptr<const PrunedLandmarkIndex> staged_labels_;
  std::shared_ptr<const std::vector<VertexId>> staged_comp_;
  VertexId staged_num_comps_ = 0;
  uint64_t staged_label_version_ = 0;
  bool relabel_running_ = false;
  std::thread relabel_thread_;  // joined lazily; managed under mutex_ flags

  obs::ShardedCounter epochs_;
  obs::ShardedCounter relabels_;
};

}  // namespace pathenum

#endif  // PATHENUM_LIVE_LIVE_ORACLE_H_
