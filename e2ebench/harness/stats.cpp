#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

namespace e2ebench {

LogHistogram::LogHistogram() : buckets_(64 * kSub, 0) {}

std::size_t LogHistogram::bucket_of(std::uint64_t scaled) {
  if (scaled < kSub) return static_cast<std::size_t>(scaled);
  const int msb = 63 - std::countl_zero(scaled);
  const int shift = msb - kSubBits;
  const std::uint64_t sub = (scaled >> shift) - kSub;
  return static_cast<std::size_t>(shift + 1) * kSub + sub;
}

double LogHistogram::bucket_low(std::size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket) / kScale;
  const std::size_t shift = bucket / kSub - 1;
  const std::uint64_t sub = bucket % kSub + kSub;
  return std::ldexp(static_cast<double>(sub), static_cast<int>(shift)) / kScale;
}

double LogHistogram::bucket_high(std::size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket + 1) / kScale;
  const std::size_t shift = bucket / kSub - 1;
  const std::uint64_t sub = bucket % kSub + kSub + 1;
  return std::ldexp(static_cast<double>(sub), static_cast<int>(shift)) / kScale;
}

void LogHistogram::record(double value) {
  if (!(value > 0.0)) value = 0.0;
  const double scaled = std::min(value * kScale, 9.0e18);
  ++buckets_[bucket_of(static_cast<std::uint64_t>(scaled))];
  ++count_;
  max_ = std::max(max_, value);
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank, 1-based: the smallest rank covering a share q.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t n = buckets_[b];
    if (n == 0) continue;
    if (seen + n >= rank) {
      const double frac =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(n);
      const double lo = bucket_low(b);
      const double hi = std::min(bucket_high(b), max_);
      return lo + frac * std::max(0.0, hi - lo);
    }
    seen += n;
  }
  return max_;
}

double highest_supported_percentile(std::uint64_t n, std::uint64_t min_beyond) {
  double best = 0.0;
  for (int k = 0; k < 12; ++k) {
    // 50, 90, 99, 99.9, ...
    const double share = k == 0 ? 0.5 : 1.0 - std::pow(10.0, -k);
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(share * static_cast<double>(n) - 1e-9));
    if (n < rank || n - rank < min_beyond) break;
    best = 100.0 * share;
  }
  return best;
}

std::string tail_summary(const LogHistogram& hist) {
  const double pct = highest_supported_percentile(hist.count());
  char buf[96];
  if (pct == 0.0) {
    std::snprintf(buf, sizeof buf, "none (n=%llu)",
                  static_cast<unsigned long long>(hist.count()));
  } else {
    std::snprintf(buf, sizeof buf, "p%g=%.6g (n=%llu)", pct,
                  hist.quantile(pct / 100.0),
                  static_cast<unsigned long long>(hist.count()));
  }
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double m = values[mid];
  if (values.size() % 2 == 0) {
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    m = 0.5 * (m + lower);
  }
  return m;
}

}  // namespace e2ebench
