// Order statistics for the benchmark's own measurements.
//
// Latencies are recorded into LogHistogram, a fixed-size log-linear
// histogram (relative bucket width 1/256), so a run that records millions
// of samples holds a few hundred KB instead of every sample.  Quantiles
// interpolate by rank inside a bucket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

class LogHistogram {
 public:
  LogHistogram();

  /// Record one non-negative value (negative values record as 0).
  void record(double value);

  std::uint64_t count() const { return count_; }
  /// Value at quantile q in [0, 1] (nearest rank, interpolated inside the
  /// bucket); NaN when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr int kSub = 1 << kSubBits;
  // Values are scaled by kScale and truncated to integers, so the
  // resolution near zero is 1/kScale of the recorded unit.
  static constexpr double kScale = 1000.0;
  static std::size_t bucket_of(std::uint64_t scaled);
  static double bucket_low(std::size_t bucket);
  static double bucket_high(std::size_t bucket);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double max_ = 0.0;
};

/// Highest percentile of the ladder 50, 90, 99, 99.9, ... that has at least
/// `min_beyond` of `n` samples strictly above its nearest-rank position; 0
/// when not even the median qualifies.
double highest_supported_percentile(std::uint64_t n,
                                    std::uint64_t min_beyond = 10);

/// "p99.9=1234.5 (n=20000)" for the report: the highest supported
/// percentile of `hist` and its sample count.
std::string tail_summary(const LogHistogram& hist);

/// Median of a sample (NaN when empty).
double median(std::vector<double> values);

}  // namespace e2ebench
