#include "core/runtime.hpp"

#include <stdexcept>

#include "ml/feature_matrix.hpp"
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
  tail_total_ =
      &reg.tail("drlhmd.runtime.stage_tail_us", tail_cfg, {{"stage", "total"}});
  tail_batch_ = &reg.tail("drlhmd.runtime.batch_tail_us", tail_cfg);
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
  const bool timed = obs::Telemetry::enabled();
  const obs::ScopedLatency total(timed ? tail_total_ : nullptr);
  processed_->inc();

  // Line of defense 1: the DRL predictor's feedback reward.
  bool flagged;
  {
    const obs::ScopedLatency t(timed ? tail_predictor_ : nullptr);
    flagged = framework_.predictor().is_adversarial(features);
  }
  if (flagged) {
    adversarial_->inc();
    // Adversarial vectors are malware masquerading as benign: label and
    // quarantine them for the next adversarial-training round.
    quarantine_.push(features, 1);
    quarantine_gauge_->set(static_cast<double>(quarantine_.size()));
    maybe_retrain();
    maybe_validate_integrity();
    return TrafficVerdict::kAdversarialMalware;
  }

  // Line of defense 2: the constraint-aware controller's scheduled model.
  int prediction;
  {
    const obs::ScopedLatency t(timed ? tail_detector_ : nullptr);
    prediction = framework_.controller(config_.policy).predict(features);
  }
  if (prediction == 1) {
    malware_->inc();
  } else {
    benign_->inc();
  }
  maybe_validate_integrity();
  return prediction == 1 ? TrafficVerdict::kMalware : TrafficVerdict::kBenign;
}

void DetectionRuntime::maybe_retrain() {
  if (config_.retrain_threshold == 0) return;
  if (quarantine_.size() < config_.retrain_threshold) return;
  DRLHMD_LOG(Info) << "adaptive retrain: folding " << quarantine_.size()
                   << " quarantined adversarial samples into the merged DB";
  framework_.incremental_defense_update(quarantine_);
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

void DetectionRuntime::process_batch(ml::BatchView batch,
                                     std::span<TrafficVerdict> out) {
  if (out.size() != batch.rows())
    throw std::invalid_argument(
        "DetectionRuntime::process_batch: out size mismatch");
  // Whole-batch wall time into the exact tail histogram (the per-stage
  // tails cannot be recorded inside the parallel scoring region).
  const obs::ScopedLatency batch_timer(
      obs::Telemetry::enabled() ? tail_batch_ : nullptr);
  // All scoring scratch is arena-backed: a warmed-up runtime allocates
  // nothing on this path (the quarantine push below only allocates while
  // its ring grows toward the retrain threshold).
  util::ArenaScope scope(util::scratch_arena());
  auto row = scope.alloc<double>(batch.cols());
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
    util::parallel_pipeline(
        "runtime.batch_score", std::size_t{0}, pending, 0,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          predictor.is_adversarial_batch(
              remaining.rows_slice(begin, end - begin),
              std::span<std::uint8_t>(flagged.data() + begin, end - begin));
        },
        [&](std::size_t, std::size_t begin, std::size_t end) {
          controller.predict_batch(
              remaining.rows_slice(begin, end - begin),
              std::span<int>(predictions.data() + begin, end - begin));
        });

    // Serial commit in row order: exactly process()'s side effects.  When
    // a retrain swaps the deployed models, the speculative scores for the
    // rows after it are stale — break out and re-score the remainder.
    const std::uint64_t retrains_before = retrains_->value();
    std::size_t i = start;
    for (; i < batch.rows(); ++i) {
      processed_->inc();
      if (flagged[i - start] != 0) {
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
}

BatchOutcome DetectionRuntime::process_batch_tally(
    ml::BatchView batch, std::span<TrafficVerdict> out) {
  const std::uint64_t benign0 = benign_->value();
  const std::uint64_t malware0 = malware_->value();
  const std::uint64_t adversarial0 = adversarial_->value();
  const std::uint64_t retrains0 = retrains_->value();
  process_batch(batch, out);
  BatchOutcome outcome;
  outcome.benign = benign_->value() - benign0;
  outcome.malware = malware_->value() - malware0;
  outcome.adversarial = adversarial_->value() - adversarial0;
  outcome.retrains = retrains_->value() - retrains0;
  return outcome;
}

std::vector<TrafficVerdict> DetectionRuntime::process_batch(
    std::span<const std::vector<double>> rows) {
  ml::FeatureMatrix packed;
  packed.reserve_rows(rows.size());
  for (const auto& r : rows) packed.push_row(r);
  return process_batch(packed.view());
}

ml::MetricReport DetectionRuntime::process_stream(const ml::Dataset& stream) {
  stream.validate();
  std::vector<TrafficVerdict> verdicts;
  if (obs::Telemetry::enabled()) {
    // Per-row path so the stage latency tails see every sample;
    // the batch path cannot time individual stages inside its parallel
    // scoring region.
    verdicts.reserve(stream.size());
    std::vector<double> row(stream.num_features());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      stream.gather_row(i, row);
      verdicts.push_back(process(row));
    }
  } else {
    verdicts = process_batch(stream.X.view());
  }
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
