// Unit tests for streaming statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/stats.hpp"

namespace {

using nexus::util::DecayingEwma;
using nexus::util::RunningStats;
using nexus::util::SampleSet;

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsBulk) {
  RunningStats a, b, bulk;
  for (int i = 0; i < 100; ++i) {
    double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    bulk.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), bulk.count());
  EXPECT_NEAR(a.mean(), bulk.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), bulk.variance(), 1e-9);
  EXPECT_EQ(a.min(), bulk.min());
  EXPECT_EQ(a.max(), bulk.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 1.0);
}

TEST(SampleSet, PercentilesExactOnSortedData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
}

TEST(SampleSet, AddAfterPercentileStillWorks) {
  SampleSet s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_EQ(s.min(), 1.0);
  s.add(0.5);  // invalidates sort
  EXPECT_EQ(s.min(), 0.5);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(SampleSet, EmptyPercentileThrows) {
  SampleSet s;
  EXPECT_THROW(s.percentile(50), std::out_of_range);
  EXPECT_THROW(s.min(), std::out_of_range);
}

TEST(SampleSet, PercentileRejectsOutOfRangeP) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-0.001), std::invalid_argument);
  EXPECT_THROW(s.percentile(100.001), std::invalid_argument);
  EXPECT_THROW(s.percentile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  // The boundaries themselves are fine.
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 1.0);
}

TEST(SampleSet, SingleSampleReturnsItForEveryP) {
  SampleSet s;
  s.add(42.0);
  for (double p : {0.0, 12.5, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(s.percentile(p), 42.0) << "p=" << p;
  }
}

TEST(SampleSet, InterpolatesBetweenClosestRanks) {
  // rank = p/100 * (n-1); with samples {10, 20}, p=25 -> rank 0.25 -> 12.5.
  SampleSet s;
  s.add(20.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 12.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(s.percentile(75), 17.5);
}

TEST(DecayingEwma, EmptyHasNoConfidence) {
  DecayingEwma e(0.25, 100.0);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.count(), 0u);
  EXPECT_EQ(e.value(), 0.0);
  EXPECT_EQ(e.confidence(1e9), 0.0);
}

TEST(DecayingEwma, FirstSampleSeedsMeanExactly) {
  DecayingEwma e(0.25, 0.0);
  e.add(42.0, 10.0);
  EXPECT_FALSE(e.empty());
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
  EXPECT_DOUBLE_EQ(e.last_update(), 10.0);
}

TEST(DecayingEwma, WarmUpConfidenceGrowsWithSamples) {
  // weight after n samples is 1 - (1 - alpha)^n: monotone toward 1.
  DecayingEwma e(0.25, 0.0);  // half_life 0 = no staleness decay
  double prev = 0.0;
  for (int n = 1; n <= 20; ++n) {
    e.add(5.0, static_cast<double>(n));
    const double c = e.confidence(static_cast<double>(n));
    EXPECT_GT(c, prev) << "n=" << n;
    EXPECT_NEAR(c, 1.0 - std::pow(0.75, n), 1e-12);
    prev = c;
  }
  EXPECT_GT(prev, 0.99);
}

TEST(DecayingEwma, StepResponseConvergesToNewLevel) {
  DecayingEwma e(0.25, 0.0);
  double t = 0.0;
  for (int i = 0; i < 10; ++i) e.add(100.0, t += 1.0);
  EXPECT_NEAR(e.value(), 100.0, 10.0);
  // Step the input; the estimate must move most of the way within ~16
  // samples ((1-0.25)^16 ~ 1%) and never overshoot.
  for (int i = 0; i < 16; ++i) {
    e.add(200.0, t += 1.0);
    EXPECT_LE(e.value(), 200.0);
  }
  EXPECT_NEAR(e.value(), 200.0, 2.5);
}

TEST(DecayingEwma, ConfidenceHalvesPerHalfLifeOfSilence) {
  DecayingEwma e(0.5, 100.0);
  for (int i = 0; i < 30; ++i) e.add(7.0, 0.0);
  const double at0 = e.confidence(0.0);
  EXPECT_NEAR(at0, 1.0, 1e-6);
  EXPECT_NEAR(e.confidence(100.0), at0 / 2.0, 1e-9);
  EXPECT_NEAR(e.confidence(200.0), at0 / 4.0, 1e-9);
  EXPECT_LT(e.confidence(1000.0), 0.001);
  // Decay is staleness only: the value itself is untouched.
  EXPECT_DOUBLE_EQ(e.value(), 7.0);
  // Asking about the past (clock skew) clamps to "fresh", never amplifies.
  EXPECT_DOUBLE_EQ(e.confidence(-50.0), at0);
}

TEST(DecayingEwma, FreshSampleRestoresConfidence) {
  DecayingEwma e(0.5, 100.0);
  for (int i = 0; i < 10; ++i) e.add(7.0, 0.0);
  ASSERT_LT(e.confidence(500.0), 0.05);
  e.add(9.0, 500.0);
  EXPECT_GT(e.confidence(500.0), 0.5);
  EXPECT_DOUBLE_EQ(e.last_update(), 500.0);
}

TEST(DecayingEwma, ResetClearsSamplesButKeepsParameters) {
  DecayingEwma e(0.5, 100.0);
  e.add(3.0, 1.0);
  e.reset();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.confidence(1.0), 0.0);
  e.add(8.0, 2.0);
  EXPECT_DOUBLE_EQ(e.value(), 8.0);
  EXPECT_NEAR(e.confidence(102.0), 0.25, 1e-9);  // alpha 0.5 halved once
}

TEST(FmtFixed, Formats) {
  EXPECT_EQ(nexus::util::fmt_fixed(104.94, 1), "104.9");
  EXPECT_EQ(nexus::util::fmt_fixed(0.5, 3), "0.500");
}

}  // namespace
