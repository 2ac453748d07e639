// Deterministic fault-injection hooks for robustness tests (DESIGN.md §10).
//
// A *site* is a named point on a cold path — an index-build BFS wave, a
// PathBlock delivery, the moment before a cache build runs. Tests arm a
// callback on a site (optionally skipping the first N hits so the fault
// lands at an exact, reproducible point) and the callback runs inline at
// the site on whatever thread hits it. The callback may sleep (slow
// build), throw (allocation failure), or fire a CancelToken (mid-block
// cancellation) — whatever the scenario needs.
//
// Cost: a disarmed build pays one relaxed atomic load per site hit, and
// sites sit on block/wave boundaries, never inside per-edge loops.
// Compiling with PATHENUM_FAULT_INJECTION=0 (CMake option of the same
// name) empties Hit() at compile time for exactly-zero production cost.
#ifndef PATHENUM_UTIL_FAULT_INJECTION_H_
#define PATHENUM_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <functional>

#ifndef PATHENUM_FAULT_INJECTION
#define PATHENUM_FAULT_INJECTION 1
#endif

namespace pathenum::fault {

enum class Site : uint32_t {
  kIndexBuildWave = 0,  // once per BFS wave inside index construction
  kIndexAdjacency,      // periodically during the index adjacency scan
  kBlockFlush,          // every PathBlock delivery (BlockEmitter::Flush)
  kCacheBuild,          // IndexCache::GetOrBuild, before the build runs
  kJoinMaterialize,     // periodically during JOIN tuple materialization
  kQueueClaim,          // a QueryQueue worker claiming a submission
  kIoRead,              // graph deserialization, per parsed section
  kCount,
};

/// Runs at the site, inline, on the hitting thread. May throw; the
/// exception propagates out of the site exactly like a real failure there.
using Hook = std::function<void()>;

/// Arms `hook` on `site`: it fires on every hit after the first
/// `skip_hits` are let through. Replaces any previous hook and resets the
/// site's hit counter. Thread-safe against concurrent Hit().
void Arm(Site site, Hook hook, uint64_t skip_hits = 0);
void Disarm(Site site);
void DisarmAll();

/// Hits observed on `site` since it was last armed (0 when disarmed).
uint64_t HitCount(Site site);

namespace internal {
extern std::atomic<int> g_armed_count;
void HitSlow(Site site);
}  // namespace internal

/// The site marker. Fast path: one relaxed load of the global armed count
/// when fault injection is compiled in; nothing at all when it is not.
inline void Hit(Site site) {
#if PATHENUM_FAULT_INJECTION
  if (internal::g_armed_count.load(std::memory_order_relaxed) != 0) {
    internal::HitSlow(site);
  }
#else
  (void)site;
#endif
}

/// RAII arm for tests: disarms the site on scope exit.
class ScopedFault {
 public:
  ScopedFault(Site site, Hook hook, uint64_t skip_hits = 0) : site_(site) {
    Arm(site_, std::move(hook), skip_hits);
  }
  ~ScopedFault() { Disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  Site site_;
};

}  // namespace pathenum::fault

#endif  // PATHENUM_UTIL_FAULT_INJECTION_H_
