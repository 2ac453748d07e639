// Unit tests for the util subsystem: stats, RNG, timer, table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <sstream>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace pathenum {
namespace {

// --- Summarize -------------------------------------------------------------

TEST(SummarizeTest, EmptyInput) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(SummarizeTest, SingleValue) {
  const Summary s = Summarize({42.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
}

TEST(SummarizeTest, KnownSample) {
  const Summary s = Summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(SummarizeTest, NegativeValues) {
  const Summary s = Summarize({-3.0, -1.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.min, -3.0);
}

// --- Percentile ------------------------------------------------------------

TEST(PercentileTest, Empty) { EXPECT_EQ(Percentile({}, 50.0), 0.0); }

TEST(PercentileTest, Median) {
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(PercentileTest, MinAndMax) {
  const std::vector<double> v{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 9.0);
}

TEST(PercentileTest, NearestRankTail) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // 99.9% of 1000 samples: nearest rank 999.
  EXPECT_DOUBLE_EQ(Percentile(v, 99.9), 999.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 99.0), 990.0);
}

TEST(PercentileTest, RejectsOutOfRange) {
  EXPECT_THROW(Percentile({1.0}, -1.0), std::logic_error);
  EXPECT_THROW(Percentile({1.0}, 101.0), std::logic_error);
}

TEST(PercentileTest, InPlaceMatchesCopyingVariant) {
  const std::vector<double> sample{7.0, 2.0, 9.0, 4.0, 1.0, 8.0};
  for (const double p : {0.0, 25.0, 50.0, 90.0, 100.0}) {
    std::vector<double> scratch = sample;
    EXPECT_DOUBLE_EQ(PercentileInPlace(scratch, p), Percentile(sample, p));
  }
}

TEST(PercentileTest, InPlaceSortsTheSample) {
  std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(PercentileInPlace(v, 50.0), 2.0);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  // Repeated ranks on the now-sorted sample agree with the copying API.
  EXPECT_DOUBLE_EQ(PercentileInPlace(v, 100.0), 3.0);
}

TEST(PercentileTest, InPlaceEmpty) {
  EXPECT_EQ(PercentileInPlace(std::span<double>{}, 50.0), 0.0);
}

// --- EmpiricalCdf ----------------------------------------------------------

TEST(CdfTest, CoversFullRange) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const auto cdf = EmpiricalCdf(v, 10);
  ASSERT_EQ(cdf.size(), 10u);
  EXPECT_DOUBLE_EQ(cdf.back().value, 100.0);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].fraction, cdf[i].fraction);
  }
}

TEST(CdfTest, FewerSamplesThanPoints) {
  const auto cdf = EmpiricalCdf({2.0, 1.0}, 64);
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.5);
}

// --- FitLine ---------------------------------------------------------------

TEST(FitLineTest, PerfectLine) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{3, 5, 7, 9, 11};  // y = 2x + 1
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r, 1.0, 1e-12);
}

TEST(FitLineTest, AntiCorrelated) {
  const std::vector<double> xs{0, 1, 2, 3};
  const std::vector<double> ys{3, 2, 1, 0};
  EXPECT_NEAR(FitLine(xs, ys).r, -1.0, 1e-12);
}

TEST(FitLineTest, DegenerateInputs) {
  EXPECT_EQ(FitLine({}, {}).count, 0u);
  EXPECT_EQ(FitLine({1.0}, {2.0}).count, 1u);
  // Vertical line: zero x-variance yields a zero fit rather than NaN.
  const LinearFit fit = FitLine({2.0, 2.0}, {1.0, 5.0});
  EXPECT_EQ(fit.slope, 0.0);
}

TEST(SafeLog10Test, SaturatesNonPositive) {
  EXPECT_DOUBLE_EQ(SafeLog10(0.0), -6.0);
  EXPECT_DOUBLE_EQ(SafeLog10(-5.0), -6.0);
  EXPECT_DOUBLE_EQ(SafeLog10(100.0), 2.0);
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(7);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedHitsAllResidues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // law of large numbers
}

// --- Timer / Deadline ------------------------------------------------------

TEST(TimerTest, ElapsedIsMonotone) {
  Timer t;
  const double a = t.ElapsedMs();
  const double b = t.ElapsedMs();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  EXPECT_FALSE(Deadline::Unlimited().Expired());
  EXPECT_FALSE(Deadline::Unlimited().limited());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  const Deadline d = Deadline::AfterMs(0.0);
  EXPECT_TRUE(d.limited());
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, InfiniteBudgetIsUnlimited) {
  const Deadline d =
      Deadline::AfterMs(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(d.limited());
}

// --- Table formatting --------------------------------------------------------

TEST(FormatSciTest, MatchesPaperStyle) {
  EXPECT_EQ(FormatSci(5.75), "5.75e+0");
  EXPECT_EQ(FormatSci(1460.0), "1.46e+3");
  EXPECT_EQ(FormatSci(0.275), "2.75e-1");
  EXPECT_EQ(FormatSci(0.0), "0.00e+0");
  // A mantissa that rounds up to 10 moves to the next decade.
  EXPECT_EQ(FormatSci(0.9999), "1.00e+0");
  EXPECT_EQ(FormatSci(99.999), "1.00e+2");
}

TEST(FormatSciTest, NegativeAndNonFinite) {
  EXPECT_EQ(FormatSci(-250.0), "-2.50e+2");
  EXPECT_EQ(FormatSci(-9.9999), "-1.00e+1");
  EXPECT_EQ(FormatSci(std::numeric_limits<double>::infinity()), "inf");
}

TEST(FormatFixedTest, Digits) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(2.0, 0), "2");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinterTest, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::logic_error);
}

}  // namespace
}  // namespace pathenum
