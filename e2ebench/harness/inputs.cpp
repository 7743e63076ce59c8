#include "inputs.hpp"

#include <cmath>
#include <stdexcept>

namespace e2ebench {

std::uint64_t SeededStream::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeededStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SeededStream::below(std::uint64_t bound) {
  // Multiply-shift; the bias at these bounds (< 2^32) is below 2^-32.
  __extension__ using Wide = unsigned __int128;
  return static_cast<std::uint64_t>((static_cast<Wide>(next()) * bound) >> 64);
}

std::uint32_t RowMix::draw(SeededStream& stream) const {
  if (clean == 0) throw std::invalid_argument("RowMix: empty clean pool");
  const double u = stream.uniform();
  if (adversarial > 0 && u < adversarial_share)
    return static_cast<std::uint32_t>(clean + stream.below(adversarial));
  return static_cast<std::uint32_t>(stream.below(clean));
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s, std::size_t hosts,
                                      const RowMix& mix) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0) || hosts == 0)
    throw std::invalid_argument("poisson_schedule: bad rate/duration/hosts");
  SeededStream stream(seed ^ 0x5C4EDULL);
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.05) + 16);
  const double horizon_ns = duration_s * 1e9;
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - stream.uniform()) * mean_gap_ns;
    if (t >= horizon_ns) break;
    Arrival a;
    a.offset_ns = static_cast<std::uint64_t>(t);
    a.host = static_cast<std::uint32_t>(stream.below(hosts));
    a.row = mix.draw(stream);
    arrivals.push_back(a);
  }
  return arrivals;
}

}  // namespace e2ebench
