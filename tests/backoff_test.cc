#include "common/backoff.h"

#include <gtest/gtest.h>

#include <vector>

namespace fuxi {
namespace {

/// The default policy is a fixed-interval retry loop: every delay is
/// exactly `initial`, forever.
TEST(BackoffTest, DefaultPolicyIsLegacyFixedInterval) {
  Backoff backoff{BackoffPolicy{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(backoff.NextDelay(), 1.0) << "attempt " << i;
  }
  EXPECT_EQ(backoff.attempts(), 100u);
}

TEST(BackoffTest, ExponentialGrowthCapsAtMaxDelay) {
  Backoff backoff{BackoffPolicy{1.0, 2.0, 30.0, 0.0}};
  EXPECT_EQ(backoff.NextDelay(), 1.0);
  EXPECT_EQ(backoff.NextDelay(), 2.0);
  EXPECT_EQ(backoff.NextDelay(), 4.0);
  EXPECT_EQ(backoff.NextDelay(), 8.0);
  EXPECT_EQ(backoff.NextDelay(), 16.0);
  // 32 would exceed the cap; from here the schedule sits at max_delay.
  EXPECT_EQ(backoff.NextDelay(), 30.0);
  EXPECT_EQ(backoff.NextDelay(), 30.0);
}

TEST(BackoffTest, ResetRestartsTheSchedule) {
  Backoff backoff{BackoffPolicy{1.0, 2.0, 30.0, 0.0}};
  backoff.NextDelay();
  backoff.NextDelay();
  EXPECT_EQ(backoff.attempts(), 2u);
  backoff.Reset();
  EXPECT_EQ(backoff.attempts(), 0u);
  EXPECT_EQ(backoff.NextDelay(), 1.0);
  EXPECT_EQ(backoff.NextDelay(), 2.0);
}

TEST(BackoffTest, JitterStaysInsideItsBand) {
  BackoffPolicy policy{1.0, 2.0, 30.0, 0.25};
  Backoff backoff{policy, /*seed=*/7};
  double base = 1.0;
  for (int i = 0; i < 20; ++i) {
    double expected = std::min(base, policy.max_delay);
    double delay = backoff.NextDelay();
    EXPECT_GE(delay, expected * (1.0 - policy.jitter)) << "attempt " << i;
    EXPECT_LE(delay, expected * (1.0 + policy.jitter)) << "attempt " << i;
    base *= policy.multiplier;
  }
}

/// Replayability: the jittered schedule is a pure function of (policy,
/// seed). Same seed, same sequence — different seed, different one.
TEST(BackoffTest, JitterIsDeterministicPerSeed) {
  BackoffPolicy policy{0.5, 1.7, 20.0, 0.5};
  std::vector<double> a, b, c;
  Backoff ba{policy, 42}, bb{policy, 42}, bc{policy, 43};
  for (int i = 0; i < 50; ++i) {
    a.push_back(ba.NextDelay());
    b.push_back(bb.NextDelay());
    c.push_back(bc.NextDelay());
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

/// Reset also replays: after Reset the generator continues its rng
/// stream (jitter draws are NOT rewound), but the exponential schedule
/// restarts — pin that exact behavior so callers relying on it notice
/// if it ever changes.
TEST(BackoffTest, ResetRestartsScheduleButNotRngStream) {
  BackoffPolicy policy{1.0, 2.0, 30.0, 0.25};
  Backoff x{policy, 9};
  double first = x.NextDelay();
  x.Reset();
  double again = x.NextDelay();
  // Same base (initial), but a fresh jitter draw: almost surely differs.
  EXPECT_GE(again, 1.0 - policy.jitter);
  EXPECT_LE(again, 1.0 + policy.jitter);
  // A fresh generator with the same seed reproduces `first` exactly.
  Backoff y{policy, 9};
  EXPECT_EQ(y.NextDelay(), first);
}

}  // namespace
}  // namespace fuxi
