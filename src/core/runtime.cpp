#include "core/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/telemetry.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace drlhmd::core {

std::string verdict_name(TrafficVerdict verdict) {
  switch (verdict) {
    case TrafficVerdict::kBenign: return "benign";
    case TrafficVerdict::kMalware: return "malware";
    case TrafficVerdict::kAdversarialMalware: return "adversarial-malware";
    case TrafficVerdict::kDropped: return "dropped";
  }
  throw std::invalid_argument("verdict_name: bad verdict");
}

DetectionRuntime::DetectionRuntime(Framework& framework, RuntimeConfig config)
    : framework_(framework),
      config_(config),
      registry_(config.registry != nullptr ? config.registry : &local_registry_) {
  // Deployment prerequisites: the pipeline must be fully trained.
  (void)framework_.predictor();
  (void)framework_.controller(config_.policy);

  obs::MetricsRegistry& reg = *registry_;
  processed_ = &reg.counter("drlhmd.runtime.processed");
  benign_ = &reg.counter("drlhmd.runtime.verdicts", {{"verdict", "benign"}});
  malware_ = &reg.counter("drlhmd.runtime.verdicts", {{"verdict", "malware"}});
  adversarial_ =
      &reg.counter("drlhmd.runtime.verdicts", {{"verdict", "adversarial"}});
  retrains_ = &reg.counter("drlhmd.runtime.retrains");
  integrity_checks_ = &reg.counter("drlhmd.runtime.integrity.checks");
  integrity_alarms_ = &reg.counter("drlhmd.runtime.integrity.alarms");
  quarantine_gauge_ = &reg.gauge("drlhmd.runtime.quarantine_size");
  retrain_gauge_ = &reg.gauge("drlhmd.runtime.retrain_count");
  const obs::TailConfig& tail_cfg = obs::default_latency_tail_config();
  tail_predictor_ = &reg.tail("drlhmd.runtime.stage_tail_us", tail_cfg,
                              {{"stage", "predictor"}});
  tail_detector_ = &reg.tail("drlhmd.runtime.stage_tail_us", tail_cfg,
                             {{"stage", "detector"}});
  tail_integrity_ = &reg.tail("drlhmd.runtime.stage_tail_us", tail_cfg,
                              {{"stage", "integrity"}});
  tail_retrain_ = &reg.tail("drlhmd.runtime.stage_tail_us", tail_cfg,
                            {{"stage", "retrain"}});
  tail_total_ =
      &reg.tail("drlhmd.runtime.stage_tail_us", tail_cfg, {{"stage", "total"}});
}

RuntimeStats DetectionRuntime::stats() const {
  RuntimeStats stats;
  stats.processed = processed_->value();
  stats.benign = benign_->value();
  stats.malware = malware_->value();
  stats.adversarial = adversarial_->value();
  stats.retrains = retrains_->value();
  stats.integrity_checks = integrity_checks_->value();
  stats.integrity_alarms = integrity_alarms_->value();
  return stats;
}

TrafficVerdict DetectionRuntime::process(std::span<const double> features) {
  TrafficVerdict verdict;
  process_batch(ml::BatchView(features.data(), 1, features.size(), 1),
                {&verdict, 1});
  return verdict;
}

void DetectionRuntime::maybe_retrain() {
  if (config_.retrain_threshold == 0) return;
  if (quarantine_.size() < config_.retrain_threshold) return;
  DRLHMD_LOG(Info) << "adaptive retrain: folding " << quarantine_.size()
                   << " quarantined adversarial samples into the merged DB";
  {
    const obs::ScopedLatency t(obs::Telemetry::enabled() ? tail_retrain_
                                                         : nullptr);
    framework_.incremental_defense_update(quarantine_);
  }
  quarantine_ = ml::Dataset{};
  quarantine_gauge_->set(0.0);
  retrains_->inc();
  retrain_gauge_->set(static_cast<double>(retrains_->value()));
}

void DetectionRuntime::maybe_validate_integrity() {
  if (config_.integrity_check_period == 0) return;
  if (processed_->value() % config_.integrity_check_period == 0)
    validate_integrity();
}

bool DetectionRuntime::validate_integrity() {
  const bool timed = obs::Telemetry::enabled();
  const obs::ScopedLatency t(timed ? tail_integrity_ : nullptr);
  integrity_checks_->inc();
  bool all_intact = true;
  for (const auto& model : framework_.defended_models()) {
    const auto status =
        framework_.vault().verify(model->name(), model->serialize());
    if (status != integrity::VerificationStatus::kIntact) {
      all_intact = false;
      integrity_alarms_->inc();
      DRLHMD_LOG(Warn) << "integrity alarm: model '" << model->name()
                       << "' bytes deviate from the vault record";
    }
  }
  return all_intact;
}

std::vector<TrafficVerdict> DetectionRuntime::process_batch(ml::BatchView batch) {
  std::vector<TrafficVerdict> verdicts(batch.rows());
  process_batch(batch, verdicts);
  return verdicts;
}

std::uint64_t DetectionRuntime::process_batch(ml::BatchView batch,
                                              std::span<TrafficVerdict> out) {
  if (out.size() != batch.rows())
    throw std::invalid_argument(
        "DetectionRuntime::process_batch: out size mismatch");
  using Clock = std::chrono::steady_clock;
  const bool timed = obs::Telemetry::enabled();
  const obs::ScopedLatency total(timed ? tail_total_ : nullptr);
  // All scoring scratch is arena-backed: a warmed-up runtime allocates
  // nothing on this path (the quarantine push below only allocates while
  // its ring grows toward the retrain threshold).
  util::ArenaScope scope(util::scratch_arena());
  auto row = scope.alloc<double>(batch.cols());
  const std::uint64_t retrains_at_entry = retrains_->value();
  double predictor_us = 0.0;
  double detector_us = 0.0;
  const auto elapsed_us = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };
  std::size_t start = 0;
  while (start < batch.rows()) {
    // Speculatively score every remaining row against the currently
    // deployed (frozen) models.  Both stages are const and cache-free, so
    // concurrent scoring matches what the sequential loop would compute.
    // The stages are fused per chunk: each worker runs the predictor's
    // critic and the scheduled detector back to back on its zero-copy row
    // slice, so predictor and detector work overlap across chunks with no
    // barrier in between.  Detector routing is computed for flagged rows
    // too — it is pure and the commit loop simply ignores those slots.
    const auto& predictor = framework_.predictor();
    const auto& controller = framework_.controller(config_.policy);
    const std::size_t pending = batch.rows() - start;
    const ml::BatchView remaining = batch.rows_slice(start, pending);
    auto flagged = scope.alloc<std::uint8_t>(pending);
    auto predictions = scope.alloc<int>(pending);
    // Per-chunk stage durations, slot = chunk index (a region has at most
    // `pending` chunks); summed on this thread once the region is done.
    auto chunk_predictor_us = scope.alloc<double>(timed ? pending : 0);
    auto chunk_detector_us = scope.alloc<double>(timed ? pending : 0);
    std::fill(chunk_predictor_us.begin(), chunk_predictor_us.end(), 0.0);
    std::fill(chunk_detector_us.begin(), chunk_detector_us.end(), 0.0);
    util::parallel_pipeline(
        "runtime.batch_score", std::size_t{0}, pending, 0,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
          const auto t0 = timed ? Clock::now() : Clock::time_point{};
          predictor.is_adversarial_batch(
              remaining.rows_slice(begin, end - begin),
              std::span<std::uint8_t>(flagged.data() + begin, end - begin));
          if (timed) chunk_predictor_us[c] = elapsed_us(t0);
        },
        [&](std::size_t c, std::size_t begin, std::size_t end) {
          const auto t0 = timed ? Clock::now() : Clock::time_point{};
          controller.predict_batch(
              remaining.rows_slice(begin, end - begin),
              std::span<int>(predictions.data() + begin, end - begin));
          if (timed) chunk_detector_us[c] = elapsed_us(t0);
        });
    for (const double us : chunk_predictor_us) predictor_us += us;
    for (const double us : chunk_detector_us) detector_us += us;

    // Serial commit in row order.  When a retrain swaps the deployed
    // models, the speculative scores for the rows after it are stale —
    // break out and re-score the remainder.
    const std::uint64_t retrains_before = retrains_->value();
    std::size_t i = start;
    for (; i < batch.rows(); ++i) {
      processed_->inc();
      if (flagged[i - start] != 0) {
        // Line of defense 1: the DRL predictor's feedback reward.
        // Adversarial vectors are malware masquerading as benign: label
        // and quarantine them for the next adversarial-training round.
        adversarial_->inc();
        batch.gather_row(i, {row.data(), row.size()});
        quarantine_.push({row.data(), row.size()}, 1);
        quarantine_gauge_->set(static_cast<double>(quarantine_.size()));
        maybe_retrain();
        maybe_validate_integrity();
        out[i] = TrafficVerdict::kAdversarialMalware;
        if (retrains_->value() != retrains_before) {
          ++i;
          break;
        }
      } else {
        // Line of defense 2: the constraint-aware controller's scheduled
        // model.
        const int prediction = predictions[i - start];
        if (prediction == 1) {
          malware_->inc();
        } else {
          benign_->inc();
        }
        maybe_validate_integrity();
        out[i] = prediction == 1 ? TrafficVerdict::kMalware
                                 : TrafficVerdict::kBenign;
      }
    }
    start = i;
  }
  if (timed) {
    tail_predictor_->observe(predictor_us);
    tail_detector_->observe(detector_us);
  }
  return retrains_->value() - retrains_at_entry;
}

ml::MetricReport DetectionRuntime::process_stream(const ml::Dataset& stream) {
  stream.validate();
  const std::vector<TrafficVerdict> verdicts = process_batch(stream.X.view());
  std::vector<int> predictions;
  predictions.reserve(verdicts.size());
  for (const TrafficVerdict verdict : verdicts)
    predictions.push_back(verdict == TrafficVerdict::kBenign ? 0 : 1);
  return ml::evaluate_predictions(stream.y, predictions);
}

ColdStart cold_start(const std::string& checkpoint_dir, RuntimeConfig config) {
  ColdStart out;
  out.framework =
      std::make_unique<Framework>(Framework::resume(checkpoint_dir));
  if (!out.framework->phase_done(Phase::kProtect))
    throw std::runtime_error(
        "cold_start: checkpoint has not completed the protect phase — run "
        "the pipeline (or resume + run_all) to deployment before serving");
  out.runtime = std::make_unique<DetectionRuntime>(*out.framework, config);
  return out;
}

}  // namespace drlhmd::core
