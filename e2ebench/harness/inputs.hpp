// Seeded workload inputs.  Everything a workload sends is a function of the
// --seed argument alone: the arrival schedule, and the host and pool row of
// each arrival.
// The generator is the benchmark's own (splitmix64), so a change to the
// program's RNG cannot change what the benchmark sends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2ebench {

/// splitmix64 stream.
class SeededStream {
 public:
  explicit SeededStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, bound), bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Row pool layout: rows [0, clean) are test-set rows, rows
/// [clean, clean + adversarial) are LowProFool adversarial test rows; each
/// draw picks an adversarial row with probability adversarial_share.
struct RowMix {
  std::size_t clean = 0;
  std::size_t adversarial = 0;
  double adversarial_share = 0.0;

  bool is_adversarial(std::uint32_t row) const { return row >= clean; }
  std::uint32_t draw(SeededStream& stream) const;
};

/// One scheduled open-loop arrival.
struct Arrival {
  std::uint64_t offset_ns = 0;  // scheduled time after the schedule start
  std::uint32_t host = 0;
  std::uint32_t row = 0;
};

/// Poisson arrivals at `rate_per_s` for `duration_s` seconds, each from a
/// uniformly chosen host with a row drawn from `mix`.  The merged arrivals of
/// `hosts` independent Poisson hosts are one Poisson process whose host is
/// uniform, which is what this draws.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s, std::size_t hosts,
                                      const RowMix& mix);

}  // namespace e2ebench
