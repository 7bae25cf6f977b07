#ifndef FUXI_COMMON_BACKOFF_H_
#define FUXI_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "common/rng.h"

namespace fuxi {

/// Retry-delay policy: jittered exponential backoff. The delay for
/// attempt n (0-based) is
///
///   base(n)  = min(initial * multiplier^n, max_delay)
///   delay(n) = base(n) * (1 +/- jitter)     (uniform in the band)
///
/// With multiplier = 1 and jitter = 0 (the defaults) this degenerates to
/// a fixed-interval retry loop. Thundering-herd-prone callers such as
/// the submission router use a genuinely exponential, jittered policy.
struct BackoffPolicy {
  double initial = 1.0;     ///< first retry delay, virtual seconds
  double multiplier = 1.0;  ///< growth per attempt (>= 1)
  double max_delay = 30.0;  ///< cap on the un-jittered delay
  double jitter = 0.0;      ///< fractional band, 0..1 (0 = deterministic)
};

/// Deterministic backoff sequence generator. All randomness comes from
/// a caller-provided seed through the repo's own Rng, so two runs with
/// the same seed produce byte-identical retry schedules — a hard
/// requirement for replayable chaos campaigns.
class Backoff {
 public:
  explicit Backoff(const BackoffPolicy& policy, uint64_t seed = 0)
      : policy_(policy), rng_(seed), current_(policy.initial) {}

  /// Delay to wait before the next attempt. Advances the attempt
  /// counter and the exponential schedule.
  double NextDelay() {
    double base = std::min(current_, policy_.max_delay);
    current_ = std::min(current_ * policy_.multiplier, policy_.max_delay);
    ++attempts_;
    if (policy_.jitter > 0) {
      double band = base * policy_.jitter;
      // Uniform in [base - band, base + band]; never below zero.
      base = std::max(0.0, base - band + rng_.NextDouble() * 2.0 * band);
    }
    return base;
  }

  /// Restarts the schedule from the initial delay (call on success).
  void Reset() {
    current_ = policy_.initial;
    attempts_ = 0;
  }

  /// Attempts issued since construction or the last Reset().
  uint64_t attempts() const { return attempts_; }

  const BackoffPolicy& policy() const { return policy_; }

 private:
  BackoffPolicy policy_;
  Rng rng_;
  double current_;
  uint64_t attempts_ = 0;
};

}  // namespace fuxi

#endif  // FUXI_COMMON_BACKOFF_H_
