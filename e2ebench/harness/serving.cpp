#include "serving.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "stats.hpp"
#include "util/parallel.hpp"

namespace e2ebench {

namespace core = drlhmd::core;
namespace serve = drlhmd::serve;

namespace {

constexpr std::uint8_t kNoVerdict = 0xFF;

serve::ServeStats stats_delta(const serve::ServeStats& after,
                              const serve::ServeStats& before) {
  serve::ServeStats d;
  d.enqueued = after.enqueued - before.enqueued;
  d.dropped = after.dropped - before.dropped;
  d.scored = after.scored - before.scored;
  d.delivered = after.delivered - before.delivered;
  d.completion_dropped = after.completion_dropped - before.completion_dropped;
  d.batches = after.batches - before.batches;
  d.flush_full = after.flush_full - before.flush_full;
  d.flush_wait = after.flush_wait - before.flush_wait;
  d.flush_drain = after.flush_drain - before.flush_drain;
  d.retrains = after.retrains - before.retrains;
  return d;
}

bool is_detected(core::TrafficVerdict v) {
  return v == core::TrafficVerdict::kMalware ||
         v == core::TrafficVerdict::kAdversarialMalware;
}

double ns_to_us(std::uint64_t later, std::uint64_t earlier) {
  return later >= earlier ? static_cast<double>(later - earlier) / 1e3 : 0.0;
}

void pause_briefly() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Start the drain worker; with `pin`, on CPU 3 (a thread inherits the
/// affinity of the thread that creates it), then move the calling thread,
/// the client, to CPU 1.  CPU 0 takes the guest's interrupts and timers and
/// is left to the system.
void start_server(serve::DetectionServer& server, bool pin) {
  if (pin) drlhmd::util::pin_current_thread(3);
  server.start();
  if (pin) drlhmd::util::pin_current_thread(1);
}

/// Interval of a tick: whole seconds after `start_ns`, clamped to the last.
std::size_t interval_of(std::uint64_t tick_ns, std::uint64_t start_ns,
                        std::size_t intervals) {
  const std::uint64_t dt = tick_ns > start_ns ? tick_ns - start_ns : 0;
  return std::min<std::size_t>(intervals - 1, dt / 1'000'000'000ULL);
}

void count_quality(WindowStats& w, const RowPool& pool, std::uint32_t row,
                   core::TrafficVerdict v) {
  if (pool.mix.is_adversarial(row)) {
    ++w.adversarial_sent;
    if (is_detected(v)) ++w.adversarial_detected;
    if (v == core::TrafficVerdict::kAdversarialMalware)
      ++w.adversarial_flagged;
  } else if (pool.labels[row] == 0) {
    ++w.benign_sent;
    if (v == core::TrafficVerdict::kBenign) ++w.benign_passed;
  }
}

}  // namespace

double interval_latency_us(const WindowStats& w, double q) {
  std::vector<double> v;
  for (const LogHistogram& h : w.latency_us_by_second)
    if (h.count() > 0) v.push_back(h.quantile(q));
  return median(std::move(v));
}

double IntervalRate::per_second() const {
  if (count < 2 || last_ns <= first_ns) return std::nan("");
  return static_cast<double>(count - 1) * 1e9 /
         static_cast<double>(last_ns - first_ns);
}

double interval_throughput(const WindowStats& w) {
  std::vector<double> v;
  for (const IntervalRate& rate : w.delivered_by_second)
    if (rate.count >= 2) v.push_back(rate.per_second());
  return median(std::move(v));
}

drlhmd::ml::FeatureMatrix RowPool::matrix() const {
  drlhmd::ml::FeatureMatrix m(rows(), cols);
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t c = 0; c < cols; ++c) m.at(r, c) = values[r * cols + c];
  return m;
}

RowPool make_row_pool(const core::Framework& fw, double adversarial_share) {
  const drlhmd::ml::Dataset& clean = fw.test_set();
  const drlhmd::ml::Dataset& adv = fw.adversarial_test();
  RowPool pool;
  pool.cols = clean.num_features();
  if (adv.num_features() != pool.cols)
    throw std::runtime_error("row pool: feature width mismatch");
  pool.mix.clean = clean.size();
  pool.mix.adversarial = adv.size();
  pool.mix.adversarial_share = adversarial_share;
  pool.values.resize((clean.size() + adv.size()) * pool.cols);
  std::size_t r = 0;
  for (const drlhmd::ml::Dataset* ds : {&clean, &adv}) {
    for (std::size_t i = 0; i < ds->size(); ++i, ++r) {
      ds->gather_row(i, {pool.values.data() + r * pool.cols, pool.cols});
      pool.labels.push_back(ds == &adv ? 1 : ds->y[i]);
    }
  }
  return pool;
}

RowVerdicts reference_verdicts(core::Framework& fw, const RowPool& pool) {
  core::RuntimeConfig cfg;
  cfg.retrain_threshold = 0;
  cfg.integrity_check_period = 0;
  core::DetectionRuntime runtime(fw, cfg);
  const drlhmd::ml::FeatureMatrix m = pool.matrix();
  return runtime.process_batch(m.view());
}

WindowStats run_open_loop(serve::DetectionServer& server, const RowPool& pool,
                          std::span<const Arrival> arrivals,
                          const RowVerdicts& reference, bool pin,
                          double drain_timeout_s) {
  WindowStats w;
  const std::size_t n = arrivals.size();
  const std::size_t hosts = server.config().hosts;
  w.ledger = SampleLedger(n);

  // (host, seq) -> arrival index, fixed before the first send: this thread
  // is the only producer, so host h's k-th arrival gets seq base[h] + k.
  std::vector<std::uint32_t> base_seq(hosts);
  for (std::size_t h = 0; h < hosts; ++h)
    base_seq[h] = server.session(static_cast<std::uint32_t>(h)).next_seq;
  std::vector<std::vector<std::uint32_t>> by_host(hosts);
  for (std::size_t i = 0; i < n; ++i)
    by_host[arrivals[i].host].push_back(static_cast<std::uint32_t>(i));

  // Written by the generator, read after the collector is joined.
  std::vector<std::uint8_t> accepted(n, 0);
  // Written by the collector only.
  std::vector<std::uint8_t> verdict(n, kNoVerdict);
  // Samples in flight per host: the collector polls only these hosts.
  auto outstanding = std::make_unique<std::atomic<std::int32_t>[]>(hosts);
  for (std::size_t h = 0; h < hosts; ++h) outstanding[h].store(0);

  std::atomic<bool> sending_done{false};
  std::atomic<std::uint64_t> accepted_total{0};
  std::atomic<std::uint64_t> drain_deadline_ns{~std::uint64_t{0}};

  const serve::ServeStats before = server.stats();
  start_server(server, pin);
  const std::uint64_t start_ns = serve::now_ns() + 2'000'000;  // collector spin-up
  const std::uint64_t end_ns =
      start_ns + (n == 0 ? 0 : arrivals[n - 1].offset_ns);
  // The last arrival falls just short of the schedule's length.
  const std::size_t intervals = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(static_cast<double>(end_ns - start_ns) / 1e9)));
  std::vector<LogHistogram> latency_by_second(intervals);
  std::vector<IntervalRate> delivered_by_second(intervals);

  LogHistogram latency_us, pop_ns, residence_us, completion_wait_us;
  std::uint64_t delivered = 0, violations = 0, queue_depth_max = 0;
  std::thread collector([&] {
    if (pin) drlhmd::util::pin_current_thread(2);
    std::uint64_t popped = 0;
    serve::VerdictRecord rec;
    for (;;) {
      for (std::size_t h = 0; h < hosts; ++h) {
        if (outstanding[h].load(std::memory_order_relaxed) <= 0) continue;
        const auto host = static_cast<std::uint32_t>(h);
        for (;;) {
          const std::uint64_t t0 = serve::now_ns();
          if (!server.try_pop_verdict(host, rec)) break;
          const std::uint64_t t1 = serve::now_ns();
          outstanding[h].fetch_sub(1, std::memory_order_relaxed);
          ++popped;
          const std::uint32_t k = rec.seq - base_seq[h];
          if (k >= by_host[h].size() || verdict[by_host[h][k]] != kNoVerdict) {
            ++violations;
            continue;
          }
          const std::uint32_t i = by_host[h][k];
          verdict[i] = static_cast<std::uint8_t>(rec.verdict);
          pop_ns.record(static_cast<double>(t1 - t0));
          const double latency = ns_to_us(t1, rec.enqueue_tick_ns);
          latency_us.record(latency);
          latency_by_second[interval_of(rec.enqueue_tick_ns, start_ns,
                                        intervals)]
              .record(latency);
          residence_us.record(ns_to_us(rec.verdict_tick_ns, rec.enqueue_tick_ns));
          completion_wait_us.record(ns_to_us(t1, rec.verdict_tick_ns));
          delivered_by_second[interval_of(rec.enqueue_tick_ns, start_ns,
                                          intervals)]
              .add(rec.enqueue_tick_ns);
          ++delivered;
        }
      }
      queue_depth_max = std::max(queue_depth_max, server.stats().queue_depth);
      if (sending_done.load(std::memory_order_acquire)) {
        if (popped >= accepted_total.load(std::memory_order_relaxed)) break;
        if (serve::now_ns() > drain_deadline_ns.load()) break;
      }
      pause_briefly();
    }
  });

  std::uint64_t n_accepted = 0, seq_mismatches = 0;
  std::vector<std::uint32_t> next_seq = base_seq;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const Arrival& a = arrivals[i];
      const std::uint64_t target = start_ns + a.offset_ns;
      std::uint64_t t0 = serve::now_ns();
      while (t0 < target) {
        pause_briefly();
        t0 = serve::now_ns();
      }
      // Counted in flight before the push: its verdict can be popped before
      // try_enqueue returns.
      outstanding[a.host].fetch_add(1, std::memory_order_relaxed);
      const auto result = server.try_enqueue(a.host, pool.row(a.row), target);
      const std::uint64_t t1 = serve::now_ns();
      w.enqueue_ns.record(static_cast<double>(t1 - t0));
      w.late_us.record(ns_to_us(t0, target));
      if (result.seq != next_seq[a.host]++) ++seq_mismatches;
      accepted[i] = result.accepted ? 1 : 0;
      if (result.accepted) {
        ++n_accepted;
      } else {
        outstanding[a.host].fetch_sub(1, std::memory_order_relaxed);
      }
    }
  } catch (...) {
    sending_done.store(true, std::memory_order_release);
    collector.join();
    server.stop();
    throw;
  }
  drain_deadline_ns.store(serve::now_ns() +
                          static_cast<std::uint64_t>(drain_timeout_s * 1e9));
  accepted_total.store(n_accepted, std::memory_order_relaxed);
  sending_done.store(true, std::memory_order_release);
  collector.join();
  server.stop();
  // Verdicts that arrive after the drain deadline stay undelivered; empty
  // the queues so the next window starts clean.
  {
    serve::VerdictRecord rec;
    for (std::size_t h = 0; h < hosts; ++h)
      while (server.try_pop_verdict(static_cast<std::uint32_t>(h), rec)) {
      }
  }
  w.served = stats_delta(server.stats(), before);

  w.seconds = n == 0 ? 0.0 : static_cast<double>(end_ns - start_ns) / 1e9;
  w.latency_us = std::move(latency_us);
  w.pop_ns = std::move(pop_ns);
  w.residence_us = std::move(residence_us);
  w.completion_wait_us = std::move(completion_wait_us);
  w.queue_depth_max = queue_depth_max;
  w.delivered = delivered;
  w.latency_us_by_second = std::move(latency_by_second);
  w.delivered_by_second = std::move(delivered_by_second);

  for (std::size_t i = 0; i < n; ++i) {
    if (accepted[i] == 0) {
      w.ledger.shed(i);
      continue;
    }
    w.ledger.accepted(i);
    const bool has_verdict = verdict[i] != kNoVerdict;
    const auto v = static_cast<core::TrafficVerdict>(verdict[i]);
    if (has_verdict) {
      const bool ok = reference.empty() || reference[arrivals[i].row] == v;
      w.ledger.delivered(i, ok);
      count_quality(w, pool, arrivals[i].row, v);
    }
    if (reference.empty()) {
      w.accepted_rows.push_back(arrivals[i].row);
      w.accepted_index.push_back(i);
      w.accepted_verdict.push_back(v);
      w.accepted_delivered.push_back(has_verdict);
    }
  }
  w.ledger.close(w.served.completion_dropped);
  w.ledger.violation(violations + seq_mismatches);
  return w;
}

}  // namespace e2ebench
