#include "common/metrics.h"

#include <cmath>

#include "common/strings.h"

namespace fuxi {

double Histogram::stddev() const { return std::sqrt(variance()); }

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0) return min_;
  if (q >= 100) return max_;
  double rank = q / 100.0 * static_cast<double>(count_ - 1);
  uint64_t lo = static_cast<uint64_t>(rank);
  double frac = rank - static_cast<double>(lo);
  double value = ValueAtRank(lo);
  if (lo + 1 < count_) {
    value = value * (1.0 - frac) + ValueAtRank(lo + 1) * frac;
  }
  return std::min(std::max(value, min_), max_);
}

int Histogram::BucketKey(double value) {
  if (std::isinf(value)) value = std::numeric_limits<double>::max();
  int exponent = 0;
  double mantissa = std::frexp(value, &exponent);  // in [0.5, 1)
  int sub = static_cast<int>((mantissa - 0.5) * (2 * kSubBuckets));
  return exponent * kSubBuckets + sub;
}

double Histogram::BucketValue(int key) {
  int exponent = key / kSubBuckets;
  int sub = key % kSubBuckets;
  if (sub < 0) {  // floor division for keys below 2^-1
    sub += kSubBuckets;
    --exponent;
  }
  return std::ldexp(0.5 + sub / (2.0 * kSubBuckets), exponent);
}

double Histogram::ValueAtRank(uint64_t rank) const {
  if (rank < zero_count_) return 0.0;
  rank -= zero_count_;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (rank < buckets_[i]) {
      return BucketValue(first_key_ + static_cast<int>(i));
    }
    rank -= buckets_[i];
  }
  return max_;
}

std::string Histogram::Summary() const {
  return StrFormat(
      "count=%llu mean=%.4f p50=%.4f p95=%.4f p99=%.4f min=%.4f max=%.4f",
      static_cast<unsigned long long>(count_), mean(), Percentile(50),
      Percentile(95), Percentile(99), min(), max());
}

void Histogram::Clear() {
  count_ = 0;
  sum_ = 0;
  mean_ = 0;
  m2_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
  zero_count_ = 0;
  first_key_ = 0;
  buckets_.clear();
}

double TimeSeries::MeanValue() const {
  if (points_.empty()) return 0.0;
  double sum = 0;
  for (const Point& p : points_) sum += p.value;
  return sum / static_cast<double>(points_.size());
}

double TimeSeries::MaxValue() const {
  double max = 0;
  for (const Point& p : points_) max = std::max(max, p.value);
  return max;
}

TimeSeries TimeSeries::Downsample(size_t buckets) const {
  TimeSeries out;
  if (points_.empty() || buckets == 0) return out;
  if (points_.size() <= buckets) return *this;
  double t0 = points_.front().time;
  double t1 = points_.back().time;
  double width = (t1 - t0) / static_cast<double>(buckets);
  if (width <= 0) {
    out.Add(t0, MeanValue());
    return out;
  }
  size_t i = 0;
  for (size_t b = 0; b < buckets; ++b) {
    double end = t0 + width * static_cast<double>(b + 1);
    double sum = 0;
    size_t n = 0;
    double tsum = 0;
    while (i < points_.size() &&
           (points_[i].time <= end || b == buckets - 1)) {
      sum += points_[i].value;
      tsum += points_[i].time;
      ++n;
      ++i;
    }
    if (n > 0) {
      out.Add(tsum / static_cast<double>(n), sum / static_cast<double>(n));
    }
  }
  return out;
}

}  // namespace fuxi
