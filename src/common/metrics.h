#ifndef FUXI_COMMON_METRICS_H_
#define FUXI_COMMON_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace fuxi {

/// Streaming summary statistics (count/mean/min/max/variance) plus a
/// log-linear bucket count for percentile queries. The benchmark
/// harnesses use this to report the same aggregates the paper's tables
/// carry.
///
/// Each power of two is split into kSubBuckets equal-width buckets and
/// a bucket is represented by its lower bound, so a percentile is off
/// by at most 1/kSubBuckets relative (integers below 256 are exact).
/// Non-positive values share one bucket represented by 0. Memory is
/// bounded by the value range, not the sample count, and Percentile()
/// is a pure function of the multiset of samples: insertion order and
/// earlier queries never change it. Count, sum, mean, min, max and
/// variance are exact.
class Histogram {
 public:
  static constexpr int kSubBuckets = 128;

  void Add(double value) {
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    // Welford's online variance update.
    double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    if (!(value > 0)) {
      ++zero_count_;
      return;
    }
    int key = BucketKey(value);
    if (buckets_.empty()) {
      first_key_ = key;
    } else if (key < first_key_) {
      buckets_.insert(buckets_.begin(),
                      static_cast<size_t>(first_key_ - key), 0);
      first_key_ = key;
    }
    size_t index = static_cast<size_t>(key - first_key_);
    if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
    ++buckets_[index];
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const;

  /// Percentile (q in [0,100]): rank interpolation between the bucket
  /// representatives of the neighbouring sorted samples, clamped to the
  /// exact [min, max]. p0 is min and p100 is max.
  double Percentile(double q) const;

  /// "count=N mean=X p50=... p99=... max=..." summary line.
  std::string Summary() const;

  void Clear();

 private:
  static int BucketKey(double value);
  static double BucketValue(int key);
  /// Representative of the sample at sorted position `rank`.
  double ValueAtRank(uint64_t rank) const;

  uint64_t count_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  uint64_t zero_count_ = 0;
  int first_key_ = 0;              // bucket key of buckets_[0]
  std::vector<uint64_t> buckets_;  // dense counts from first_key_ up
};

/// (time, value) series, used to emit the Figure 9 / Figure 10 curves.
class TimeSeries {
 public:
  struct Point {
    double time;
    double value;
  };

  void Add(double time, double value) { points_.push_back({time, value}); }
  const std::vector<Point>& points() const { return points_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  double MeanValue() const;
  double MaxValue() const;

  /// Downsamples to at most `buckets` points by averaging within equal
  /// time windows; keeps figure output readable.
  TimeSeries Downsample(size_t buckets) const;

 private:
  std::vector<Point> points_;
};

}  // namespace fuxi

#endif  // FUXI_COMMON_METRICS_H_
