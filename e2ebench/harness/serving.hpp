// Open-loop load driver for serve::DetectionServer, written against its
// public functions only (try_enqueue, try_pop_verdict, start/stop, session,
// stats).
//
// The calling thread is the generator.  It sends each arrival of a seeded
// Poisson schedule at its scheduled tick and stamps the sample with that
// tick, so a sample delayed by a stall is charged the whole delay; one
// collector thread pops every host's completion queue.  How late the
// generator itself ran is recorded as late_us.  Each verdict's (host, seq)
// maps back to the pool row that was sent, and the verdict is checked
// against a reference verdict for that row.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/framework.hpp"
#include "core/runtime.hpp"
#include "inputs.hpp"
#include "ledger.hpp"
#include "serve/server.hpp"
#include "stats.hpp"

namespace e2ebench {

/// Rows a workload sends: the framework's test set followed by its
/// LowProFool adversarial test rows (labelled malware).
struct RowPool {
  std::size_t cols = 0;
  std::vector<double> values;  // row-major, rows x cols
  std::vector<int> labels;     // 1 = malware
  RowMix mix;

  std::size_t rows() const { return labels.size(); }
  std::span<const double> row(std::uint32_t r) const {
    return {values.data() + static_cast<std::size_t>(r) * cols, cols};
  }
  /// Column-major copy for DetectionRuntime::process_batch.
  drlhmd::ml::FeatureMatrix matrix() const;
};

RowPool make_row_pool(const drlhmd::core::Framework& fw,
                      double adversarial_share);

/// Events counted in one interval, with the first and last event tick, so
/// the interval's rate is measured between its own events rather than
/// rounded to whole events per second.
struct IntervalRate {
  std::uint64_t count = 0;
  std::uint64_t first_ns = 0;
  std::uint64_t last_ns = 0;

  void add(std::uint64_t tick_ns) {
    if (count == 0 || tick_ns < first_ns) first_ns = tick_ns;
    if (count == 0 || tick_ns > last_ns) last_ns = tick_ns;
    ++count;
  }
  /// Events per second between the first and last event (NaN below two
  /// events or with no time between them).
  double per_second() const;
};

/// What one timed window observed.
struct WindowStats {
  double seconds = 0.0;         // timed wall time of the window
  std::uint64_t delivered = 0;  // verdicts popped for samples of the window
  LogHistogram latency_us;      // scheduled tick -> verdict popped
  LogHistogram enqueue_ns;      // try_enqueue call
  LogHistogram pop_ns;          // successful try_pop_verdict call
  LogHistogram residence_us;    // verdict tick - enqueue tick (server side)
  LogHistogram completion_wait_us;  // client pop time - verdict tick
  LogHistogram late_us;         // actual try_enqueue time - scheduled tick
  // Per one-second interval of the window, by scheduled tick: the latency
  // and the deliveries of the samples scheduled in it.
  std::vector<LogHistogram> latency_us_by_second;
  std::vector<IntervalRate> delivered_by_second;
  std::uint64_t queue_depth_max = 0;
  // Verdict quality over the delivered samples.
  std::uint64_t adversarial_sent = 0;
  std::uint64_t adversarial_detected = 0;  // malware or adversarial verdict
  std::uint64_t adversarial_flagged = 0;   // adversarial verdict
  std::uint64_t benign_sent = 0;
  std::uint64_t benign_passed = 0;         // benign verdict
  drlhmd::serve::ServeStats served;  // server counter deltas over the window
  SampleLedger ledger;
  // Reference-free windows only: the rows accepted, in the order the server
  // scores them, and the ledger index and verdict of each, so
  // the caller can check the verdicts against an in-order replay.
  std::vector<std::uint32_t> accepted_rows;
  std::vector<std::size_t> accepted_index;
  std::vector<drlhmd::core::TrafficVerdict> accepted_verdict;
  std::vector<bool> accepted_delivered;
};

/// Median over the window's whole one-second intervals of each interval's
/// latency quantile q.
double interval_latency_us(const WindowStats& w, double q);
/// Median over the window's one-second intervals of each interval's
/// delivery rate.
double interval_throughput(const WindowStats& w);

/// Reference verdict per pool row (frozen models), or empty when the
/// verdicts are checked after the window.
using RowVerdicts = std::vector<drlhmd::core::TrafficVerdict>;

/// Open-loop window over `arrivals`.  Starts and stops the server's drain
/// workers; samples still missing `drain_timeout_s` after the last arrival
/// count as undelivered.  With `pin`, the drain worker runs on CPU 3, the
/// generator (calling thread) on CPU 1 and the collector on CPU 2.
WindowStats run_open_loop(drlhmd::serve::DetectionServer& server,
                          const RowPool& pool,
                          std::span<const Arrival> arrivals,
                          const RowVerdicts& reference, bool pin,
                          double drain_timeout_s = 30.0);

/// Frozen-model reference: DetectionRuntime::process_batch over the whole
/// pool on a runtime of its own (retraining and integrity sweeps off).
RowVerdicts reference_verdicts(drlhmd::core::Framework& fw,
                               const RowPool& pool);

}  // namespace e2ebench
