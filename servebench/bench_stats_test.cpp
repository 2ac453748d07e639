// Unit tests for bench_stats.h. Build with the benchmark package and run
// `ctest --test-dir <build dir>` or the bench_stats_test binary directly.
#include "bench_stats.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace {

int failures = 0;

void Expect(bool cond, const char* what, int line) {
  if (!cond) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void TestPercentile() {
  EXPECT(Near(servebench::Percentile({}, 50), 0.0));
  EXPECT(Near(servebench::Percentile({5}, 99), 5.0));
  EXPECT(Near(servebench::Median({3, 1, 2}), 2.0));
  EXPECT(Near(servebench::Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(servebench::Percentile({0, 10}, 90), 9.0));
}

void TestSamplesBeyond() {
  EXPECT(servebench::SamplesBeyond(100, 90) == 10);
  EXPECT(servebench::SamplesBeyond(100, 99) == 1);
  EXPECT(servebench::SamplesBeyond(1000, 99) == 10);
  EXPECT(servebench::SamplesBeyond(999, 99) == 9);
  EXPECT(servebench::SamplesBeyond(10, 100) == 0);
}

void TestTailPercentile() {
  using servebench::TailPercentile;
  // Every run of the benchmark's usual size reports p95 itself.
  EXPECT(Near(TailPercentile(200), 95.0));
  EXPECT(Near(TailPercentile(3000), 95.0));
  EXPECT(Near(TailPercentile(1000000), 95.0));
  // 199 samples leave only 9 beyond p95: the next whole percentile down.
  EXPECT(servebench::SamplesBeyond(199, 95) == 9);
  EXPECT(Near(TailPercentile(199), 94.0));
  // Smaller runs step further down, to the highest percentile that still
  // leaves 10 samples beyond.
  EXPECT(Near(TailPercentile(100), 90.0));
  EXPECT(Near(TailPercentile(40), 75.0));
  EXPECT(Near(TailPercentile(11), 9.0));
  // Fewer than 10 samples: no tail at all.
  EXPECT(Near(TailPercentile(10), 0.0));
  EXPECT(Near(TailPercentile(0), 0.0));
  for (size_t n = 11; n < 5000; n += 7) {
    const double p = TailPercentile(n);
    EXPECT(servebench::SamplesBeyond(n, p) >= servebench::kMinBeyondTail);
    // The highest such whole percentile, capped at p95.
    EXPECT(p == servebench::kTailPercentile ||
           servebench::SamplesBeyond(n, p + 1) < servebench::kMinBeyondTail);
  }
}

std::vector<servebench::RequestSample> Requests(size_t n, double latency_ms,
                                                double cpu_ms) {
  return std::vector<servebench::RequestSample>(
      n, servebench::RequestSample{latency_ms, cpu_ms, 1, 10});
}

void TestWindowed() {
  using servebench::Windowed;
  EXPECT(Windowed({}).windows == 0);
  // A small run is one window, with the tail rule applied to its size.
  servebench::WindowedFigures f = Windowed(Requests(100, 2.0, 1.0));
  EXPECT(f.windows == 1 && f.min_window == 100);
  EXPECT(Near(f.tail_percentile, 90.0));
  EXPECT(Near(f.tail_ms, 2.0));
  EXPECT(Near(f.cpu_ms_per_query, 1.0));
  EXPECT(Near(f.paths_per_cpu_s, 10000.0));
  // As many windows of at least 200 requests as fit, at most 10.
  EXPECT(Windowed(Requests(399, 1, 1)).windows == 1);
  EXPECT(Windowed(Requests(400, 1, 1)).windows == 2);
  EXPECT(Windowed(Requests(2999, 1, 1)).windows == 10);
  EXPECT(Windowed(Requests(2999, 1, 1)).min_window == 299);
  EXPECT(Near(Windowed(Requests(2999, 1, 1)).tail_percentile, 95.0));
  // Every window's p95 leaves at least 10 samples beyond it.
  for (size_t n = 200; n < 6000; n += 37) {
    const servebench::WindowedFigures w = Windowed(Requests(n, 1, 1));
    EXPECT(servebench::SamplesBeyond(w.min_window, w.tail_percentile) >=
           servebench::kMinBeyondTail);
  }
  // A burst of costly requests inside one window of ten moves neither the
  // median window tail nor the median window CPU cost.
  std::vector<servebench::RequestSample> r = Requests(3000, 4.0, 2.0);
  for (size_t i = 600; i < 900; ++i) r[i] = {50.0, 25.0, 1, 10};
  f = Windowed(r);
  EXPECT(f.windows == 10);
  EXPECT(Near(f.tail_ms, 4.0));
  EXPECT(Near(f.cpu_ms_per_query, 2.0));
  EXPECT(Near(f.paths_per_cpu_s, 5000.0));
  // The same burst spread over the whole run moves both.
  for (size_t i = 0; i < 3000; i += 10) r[i] = {50.0, 25.0, 1, 10};
  f = Windowed(r);
  EXPECT(Near(f.tail_ms, 50.0));
  EXPECT(f.cpu_ms_per_query > 2.0);
  EXPECT(f.paths_per_cpu_s < 5000.0);
}

/// Spins the calling thread for `ms` of wall time.
void Spin(double ms) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(static_cast<int64_t>(ms * 1e3));
  volatile uint64_t x = 0;
  while (std::chrono::steady_clock::now() < end) x = x + 1;
}

void TestCpuClocks() {
  using servebench::ProcessCpuMs;
  using servebench::ThreadCpuMs;
  // Sleeping and waiting cost no CPU time; spinning does.
  double p0 = ProcessCpuMs(), t0 = ThreadCpuMs();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT(ProcessCpuMs() - p0 < 20.0);
  EXPECT(ThreadCpuMs() - t0 < 20.0);
  p0 = ProcessCpuMs();
  t0 = ThreadCpuMs();
  Spin(60);
  EXPECT(ThreadCpuMs() - t0 > 10.0);
  EXPECT(ProcessCpuMs() - p0 >= ThreadCpuMs() - t0 - 1.0);

  // A thread started in between is found by its id, and its CPU time is
  // counted while this thread only waits for it.
  const std::vector<long> before = servebench::ThreadIds();
  std::atomic<bool> go{false}, stop{false};
  const auto nap = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  std::thread worker([&] {
    while (!go.load()) nap();
    Spin(60);
    while (!stop.load()) nap();
  });
  const std::vector<long> started =
      servebench::NewThreads(before, servebench::ThreadIds());
  EXPECT(started.size() == 1);
  const double w0 = servebench::ThreadsCpuMs(started);
  t0 = ThreadCpuMs();
  go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const double w1 = servebench::ThreadsCpuMs(started);
  stop.store(true);
  worker.join();
  EXPECT(w1 - w0 > 10.0);
  EXPECT(ThreadCpuMs() - t0 < 10.0);
  // Once it has exited it counts 0.
  EXPECT(Near(servebench::ThreadsCpuMs(started), 0.0));
  EXPECT(servebench::NewThreads({1, 3, 5}, {1, 2, 3, 4}) ==
         std::vector<long>({2, 4}));
}

void TestHostRuler() {
  servebench::HostRuler ruler;
  EXPECT(ruler.ticks() == 0);
  EXPECT(Near(ruler.Scale(), 1.0));
  EXPECT(Near(ruler.MedianMs(), 0.0));
  for (int i = 0; i < 3; ++i) EXPECT(ruler.Tick() > 0.0);
  EXPECT(ruler.ticks() == 3);
  // Fewer than kRecent ticks: the scale is the reference over their median.
  EXPECT(ruler.MedianMs() > 0.0);
  EXPECT(Near(ruler.Scale(),
              servebench::HostRuler::kReferenceMs / ruler.MedianMs()));
  EXPECT(Near(ruler.MedianMs(3), 0.0));
  EXPECT(ruler.MedianMs(2) > 0.0);
}

void TestFailureCount() {
  servebench::FailureCount f;
  EXPECT(Near(f.FailedFrac(), 0.0));
  f.Add(true);
  f.Add(false);
  f.Add(true);
  f.Add(true);
  EXPECT(f.attempted == 4);
  EXPECT(f.failed == 1);
  EXPECT(Near(f.FailedFrac(), 0.25));
  EXPECT(Near(f.ServedFrac(), 0.75));
}

/// A clock the test advances by hand.
struct FakeClock {
  using duration = std::chrono::microseconds;
  using time_point = std::chrono::time_point<FakeClock, duration>;
  static inline time_point current{};
  static time_point now() { return current; }
};

struct FakeTicket {
  const bool* done;
  bool Done() const { return *done; }
};

FakeClock::time_point At(int64_t us) {
  return FakeClock::time_point(FakeClock::duration(us));
}

void TestCompletionWatcher() {
  bool done[3] = {false, false, false};
  servebench::CompletionWatcher<FakeTicket, FakeClock> w;
  for (bool& d : done) w.Add(FakeTicket{&d}, At(50));
  FakeClock::current = At(100);
  EXPECT(w.Poll() == 0);
  // The last-submitted ticket finishes first: it is stamped now, while the
  // first one is still outstanding.
  done[2] = true;
  FakeClock::current = At(200);
  EXPECT(w.Poll() == 1);
  EXPECT(w.completed_at(2).has_value());
  EXPECT(w.completed_at(2)->time_since_epoch().count() == 200);
  EXPECT(!w.completed_at(0).has_value());
  // It was seen running by the sweep at 100: the stamp is at most 100 late.
  EXPECT(w.stamp_error(2).count() == 100);
  done[0] = true;
  FakeClock::current = At(350);
  EXPECT(w.Poll() == 1);
  EXPECT(w.completed_at(0)->time_since_epoch().count() == 350);
  EXPECT(w.stamp_error(0).count() == 150);
  // A stamp is never moved by later sweeps.
  FakeClock::current = At(900);
  done[1] = true;
  EXPECT(w.Poll() == 1);
  EXPECT(w.completed_at(2)->time_since_epoch().count() == 200);
  EXPECT(w.completed_at(1)->time_since_epoch().count() == 900);
  EXPECT(w.outstanding() == 0);
  // A handle done before its first sweep is bounded by its not_before.
  bool early = true;
  const size_t e = w.Add(FakeTicket{&early}, At(880));
  EXPECT(w.Poll() == 1);
  EXPECT(w.stamp_error(e).count() == 20);
}

/// A ticket another thread completes at a known time.
struct RealTicket {
  const std::atomic<bool>* done;
  bool Done() const { return done->load(); }
};

void TestCompletionWatcherAcrossThreads() {
  // One thread adds tickets and completes them in reverse order while
  // another sweeps: each stamp lies after the ticket's completion and
  // within its stamp error bound of it.
  using Clock = std::chrono::steady_clock;
  constexpr size_t kTickets = 64;
  std::vector<std::atomic<bool>> done(kTickets);
  // Each completion happens between these two readings.
  std::vector<Clock::time_point> before(kTickets), after(kTickets);
  servebench::CompletionWatcher<RealTicket> w;
  std::atomic<bool> adding{true};
  std::thread sweeper([&] {
    while (adding.load() || w.outstanding() > 0) {
      w.Poll();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  for (size_t i = 0; i < kTickets; ++i) {
    w.Add(RealTicket{&done[i]}, Clock::now());
  }
  for (size_t i = kTickets; i-- > 0;) {
    before[i] = Clock::now();
    done[i].store(true);
    after[i] = Clock::now();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  adding.store(false);
  sweeper.join();
  for (size_t i = 0; i < kTickets; ++i) {
    EXPECT(w.completed_at(i).has_value());
    EXPECT(*w.completed_at(i) >= before[i]);
    EXPECT(*w.completed_at(i) - after[i] <= w.stamp_error(i));
  }
}

void TestLateness() {
  servebench::LatenessTracker late;
  for (int i = 0; i < 99; ++i) late.Record(0.01);
  late.Record(40.0);
  // One straggler in 100 moves p99 only part of the way.
  EXPECT(late.P99() < 1.0);
  EXPECT(late.Within(1.0));
  for (int i = 0; i < 5; ++i) late.Record(30.0);
  EXPECT(late.P99() > 20.0);
  EXPECT(!late.Within(1.0));
  // Early sends count as on time, never as negative lateness.
  servebench::LatenessTracker early;
  early.Record(-3.0);
  EXPECT(Near(early.P99(), 0.0));
}

}  // namespace

int main() {
  TestPercentile();
  TestSamplesBeyond();
  TestTailPercentile();
  TestWindowed();
  TestCpuClocks();
  TestHostRuler();
  TestFailureCount();
  TestCompletionWatcher();
  TestCompletionWatcherAcrossThreads();
  TestLateness();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_stats_test: all checks passed\n");
  return 0;
}
