// Statistics the serving benchmark reports: percentiles, the tail
// percentile choice, windowed tail and CPU cost, CPU clocks, failure
// accounting, per-ticket completion stamping and open-loop generator
// lateness. Header-only and free of library types so bench_stats_test can
// check each rule in isolation.
#ifndef SERVEBENCH_BENCH_STATS_H_
#define SERVEBENCH_BENCH_STATS_H_

#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace servebench {

/// The p-th percentile (0..100) of `v`, interpolating linearly between the
/// two closest ranks. 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

/// Samples of an n-sample set that rank strictly beyond its p-th
/// percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  const double at = p / 100.0 * static_cast<double>(n);
  const size_t covered = static_cast<size_t>(std::ceil(at - 1e-9));
  return covered >= n ? 0 : n - covered;
}

/// The tail percentile every workload reports.
constexpr double kTailPercentile = 95.0;
/// A tail is never read off fewer samples than this beyond it.
constexpr size_t kMinBeyondTail = 10;

/// The percentile an n-sample run reports as its tail: p95, or, when fewer
/// than kMinBeyondTail samples lie beyond p95 (n < 200), the highest whole
/// percentile that leaves that many beyond it. 0 when even that is
/// impossible (n < kMinBeyondTail).
inline double TailPercentile(size_t n) {
  for (double p = kTailPercentile; p >= 1.0; p -= 1.0) {
    if (SamplesBeyond(n, p) >= kMinBeyondTail) return p;
  }
  return 0.0;
}

/// CPU time the whole process has used, in ms. A Linux guest with
/// paravirtual steal accounting leaves out the time the host ran other
/// guests on its vCPUs, and no clock counts time spent waiting or
/// descheduled, so CPU-time figures follow the work done, not the host's
/// load.
inline double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU time the calling thread has used, in ms.
inline double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Kernel ids of the process's live threads (Linux /proc/self/task),
/// ascending.
inline std::vector<long> ThreadIds() {
  std::vector<long> ids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') {
        ids.push_back(std::strtol(e->d_name, nullptr, 10));
      }
    }
    closedir(d);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The ids in `after` that are not in `before` (both ascending): the
/// threads started in between that are still running.
inline std::vector<long> NewThreads(const std::vector<long>& before,
                                    const std::vector<long>& after) {
  std::vector<long> out;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(out));
  return out;
}

/// CPU time the threads `ids` of this process have used, in ms, from
/// /proc/self/task/<id>/schedstat. A thread that has exited counts 0.
inline double ThreadsCpuMs(const std::vector<long>& ids) {
  double ms = 0.0;
  for (long id : ids) {
    const std::string path =
        "/proc/self/task/" + std::to_string(id) + "/schedstat";
    if (std::FILE* f = std::fopen(path.c_str(), "r")) {
      unsigned long long ns = 0;
      if (std::fscanf(f, "%llu", &ns) == 1) ms += static_cast<double>(ns) / 1e6;
      std::fclose(f);
    }
  }
  return ms;
}

/// A fixed reference job that measures how fast the host runs right now:
/// one breadth-first search over a pseudo-random graph the benchmark owns
/// (65,536 vertices, 8 out-edges each, the same for every run and seed),
/// timed on the calling thread's CPU clock. On a shared host, co-tenants on
/// sibling hyperthreads and in shared caches slow every thread, and CPU
/// clocks count that slowdown; the ruler's tick slows with them. A
/// workload's CPU time times Scale() is its CPU time at the reference speed
/// (a tick of kReferenceMs): a change in the library moves the workload,
/// never the ruler.
class HostRuler {
 public:
  /// A tick's CPU time on a quiet 4-vCPU Xeon VM when it runs between the
  /// workload's calls (its graph evicted from cache by them, about 4 ms on
  /// every workload; about 1.9 ms when ticked back to back).
  static constexpr double kReferenceMs = 4.0;
  /// Scale() uses the median of this many latest ticks.
  static constexpr size_t kRecent = 9;

  HostRuler() : offsets_(kVertices + 1), dist_(kVertices) {
    uint64_t x = 0x2545f4914f6cdd1dULL;  // xorshift64, fixed
    targets_.reserve(size_t{kVertices} * kDegree);
    for (uint32_t v = 0; v < kVertices; ++v) {
      offsets_[v] = static_cast<uint32_t>(targets_.size());
      for (uint32_t e = 0; e < kDegree; ++e) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        targets_.push_back(static_cast<uint32_t>(x % kVertices));
      }
    }
    offsets_[kVertices] = static_cast<uint32_t>(targets_.size());
  }

  /// Runs one search and returns its CPU time in ms.
  double Tick() {
    const double t0 = ThreadCpuMs();
    Search(static_cast<uint32_t>(ticks_.size() * 7919 % kVertices));
    ticks_.push_back(ThreadCpuMs() - t0);
    return ticks_.back();
  }

  /// kReferenceMs over the median of the latest kRecent ticks; 1 before
  /// the first tick.
  double Scale() const {
    if (ticks_.empty()) return 1.0;
    const size_t n = std::min(kRecent, ticks_.size());
    const double ms =
        Median(std::vector<double>(ticks_.end() - n, ticks_.end()));
    return ms > 0 ? kReferenceMs / ms : 1.0;
  }

  /// Median tick from tick `from` on (0 before any).
  double MedianMs(size_t from = 0) const {
    if (from >= ticks_.size()) return 0.0;
    return Median(std::vector<double>(ticks_.begin() + from, ticks_.end()));
  }

  size_t ticks() const { return ticks_.size(); }

 private:
  static constexpr uint32_t kVertices = 1u << 16;
  static constexpr uint32_t kDegree = 8;

  void Search(uint32_t source) {
    std::fill(dist_.begin(), dist_.end(), UINT32_MAX);
    queue_.clear();
    queue_.push_back(source);
    dist_[source] = 0;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const uint32_t v = queue_[head];
      for (uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const uint32_t w = targets_[e];
        if (dist_[w] == UINT32_MAX) {
          dist_[w] = dist_[v] + 1;
          queue_.push_back(w);
        }
      }
    }
  }

  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> targets_;
  std::vector<uint32_t> dist_;
  std::vector<uint32_t> queue_;
  std::vector<double> ticks_;
};

/// One timed request as its caller saw it.
struct RequestSample {
  double latency_ms = 0.0;  // caller-observed (wall-clock) latency
  double cpu_ms = 0.0;      // CPU time the system spent on it
  uint64_t queries = 0;     // queries it carried
  uint64_t paths = 0;       // paths it delivered
};

/// A tail window holds at least this many requests, so its p95 has
/// kMinBeyondTail samples beyond it.
constexpr size_t kMinWindow = 200;
constexpr size_t kMaxWindows = 10;

/// A run's tail and CPU cost, taken per window and reported as the median
/// over windows. The requests, in time order, are split into consecutive
/// windows of (near) equal count: as many as fit kMinWindow requests each,
/// at most kMaxWindows, one for a smaller run. A burst of host stalls lands
/// in one or two windows and leaves the median alone.
struct WindowedFigures {
  size_t windows = 0;
  size_t min_window = 0;          // requests in the smallest window
  double tail_percentile = 0.0;   // TailPercentile(min_window)
  double tail_ms = 0.0;           // median of the windows' tail latencies
  double cpu_ms_per_query = 0.0;  // median of the windows' cpu_ms / queries
  double paths_per_cpu_s = 0.0;   // median of the windows' paths / CPU s
};

inline WindowedFigures Windowed(const std::vector<RequestSample>& r) {
  WindowedFigures f;
  if (r.empty()) return f;
  f.windows = std::clamp<size_t>(r.size() / kMinWindow, 1, kMaxWindows);
  f.min_window = r.size() / f.windows;
  f.tail_percentile = TailPercentile(f.min_window);
  std::vector<double> tails, cpq, ppc;
  for (size_t w = 0; w < f.windows; ++w) {
    const size_t begin = w * r.size() / f.windows;
    const size_t end = (w + 1) * r.size() / f.windows;
    std::vector<double> latency;
    double cpu_ms = 0.0, queries = 0.0, paths = 0.0;
    for (size_t i = begin; i < end; ++i) {
      latency.push_back(r[i].latency_ms);
      cpu_ms += r[i].cpu_ms;
      queries += static_cast<double>(r[i].queries);
      paths += static_cast<double>(r[i].paths);
    }
    tails.push_back(Percentile(std::move(latency), f.tail_percentile));
    cpq.push_back(queries > 0 ? cpu_ms / queries : 0.0);
    ppc.push_back(cpu_ms > 0 ? paths / (cpu_ms / 1e3) : 0.0);
  }
  f.tail_ms = Median(std::move(tails));
  f.cpu_ms_per_query = Median(std::move(cpq));
  f.paths_per_cpu_s = Median(std::move(ppc));
  return f;
}

/// Failure accounting over attempted requests. A request is served when
/// it returned a well-formed answer — complete, truncated by its result
/// limit, or certified unsatisfiable; it failed when it was refused at
/// admission, rejected, errored, cancelled or ran past its deadline.
struct FailureCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(bool served) {
    ++attempted;
    if (!served) ++failed;
  }
  double FailedFrac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  double ServedFrac() const {
    return attempted == 0 ? 0.0 : 1.0 - FailedFrac();
  }
};

/// Stamps each outstanding handle with the first time its Done() is seen
/// true. Every sweep polls every outstanding handle, so a request that
/// finishes early is stamped early even when an older one is still
/// running — latency is never measured by waiting in submission order.
/// Add and Poll may run on different threads; the sweeping thread should
/// do nothing else, so no caller's blocking delays a stamp.
///
/// Each stamp carries an error bound: the stamp minus the last moment the
/// handle was known not to be done (the start of the previous sweep that
/// saw it running, or the `not_before` it was added with).
template <typename Handle, typename Clock = std::chrono::steady_clock>
class CompletionWatcher {
 public:
  using TimePoint = typename Clock::time_point;
  using Duration = typename Clock::duration;

  /// Registers `h`, which cannot have completed before `not_before`;
  /// returns its index for completed_at().
  size_t Add(Handle h, TimePoint not_before) {
    std::lock_guard<std::mutex> lock(mutex_);
    handles_.push_back(std::move(h));
    done_at_.emplace_back();
    stamp_error_.emplace_back();
    running_at_.push_back(not_before);
    pending_.push_back(handles_.size() - 1);
    return handles_.size() - 1;
  }

  /// One sweep over the outstanding handles; returns how many completed.
  size_t Poll() {
    std::lock_guard<std::mutex> lock(mutex_);
    const TimePoint sweep = Clock::now();
    size_t completed = 0;
    for (size_t i = 0; i < pending_.size();) {
      const size_t idx = pending_[i];
      if (handles_[idx].Done()) {
        const TimePoint now = Clock::now();
        done_at_[idx] = now;
        stamp_error_[idx] = now - running_at_[idx];
        pending_[i] = pending_.back();
        pending_.pop_back();
        ++completed;
      } else {
        running_at_[idx] = sweep;
        ++i;
      }
    }
    return completed;
  }

  size_t outstanding() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
  }

  // Read once the sweeping has stopped.
  const Handle& handle(size_t i) const { return handles_[i]; }
  std::optional<TimePoint> completed_at(size_t i) const { return done_at_[i]; }
  /// Upper bound on completed_at(i) minus the true completion time.
  Duration stamp_error(size_t i) const { return stamp_error_[i]; }

 private:
  mutable std::mutex mutex_;
  std::vector<Handle> handles_;
  std::vector<std::optional<TimePoint>> done_at_;
  std::vector<Duration> stamp_error_;
  std::vector<TimePoint> running_at_;  // last time seen not done
  std::vector<size_t> pending_;
};

/// How late an open-loop generator sent each request relative to its
/// schedule. A run whose p99 lateness exceeds the allowance measured the
/// generator, not the system, and is invalid.
class LatenessTracker {
 public:
  void Record(double late_ms) { late_ms_.push_back(std::max(0.0, late_ms)); }
  double P99() const { return Percentile(late_ms_, 99.0); }
  bool Within(double allowance_ms) const { return P99() <= allowance_ms; }

 private:
  std::vector<double> late_ms_;
};

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_STATS_H_
