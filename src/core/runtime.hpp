// Run-time deployment loop (paper Figure 1, right-hand side).
//
// Incoming HPC windows flow through the deployed defense:
//   1. the DRL adversarial predictor inspects the sample; positive feedback
//      reward => the sample is labeled adversarial and quarantined into the
//      incremental database (it is, by the threat model, malware);
//   2. otherwise the constraint-aware controller routes the sample to the
//      scheduled ML detector for the malware/benign verdict;
//   3. once enough fresh adversarial samples accumulate, the defense
//      retrains on the enlarged merged DB (adaptive defense);
//   4. periodically, deployed model bytes are re-hashed against the vault
//      and the metric monitor re-assesses on the reserved validation set
//      (Section 2.7); alarms are raised on deviation.
//
// Every entry point (process, process_stream) is a process_batch call, so
// there is one scoring and commit path.  Every counter lives in an
// obs::MetricsRegistry (`drlhmd.runtime.*`), so hmdctl, the benches, and
// RuntimeStats all read one source of truth.  Per-stage latency tails
// (drlhmd.runtime.stage_tail_us{stage=predictor|detector|integrity|retrain|
// total}) are recorded only while obs::Telemetry is enabled.
#pragma once

#include "core/framework.hpp"
#include "obs/metrics.hpp"

namespace drlhmd::core {

enum class TrafficVerdict : std::uint8_t {
  kBenign = 0,
  kMalware,
  kAdversarialMalware,  // flagged by the predictor's feedback reward
  // Backpressure verdict: the serving tier shed this sample at a full
  // ingestion ring before it ever reached the models.  The runtime itself
  // never emits kDropped — serve::DetectionServer synthesizes it so a
  // host's verdict stream stays gap-free under overload.
  kDropped,
};

std::string verdict_name(TrafficVerdict verdict);

struct RuntimeConfig {
  /// Fresh quarantined adversarial samples that trigger a defense retrain
  /// (0 disables adaptive retraining).
  std::size_t retrain_threshold = 250;
  /// Samples between integrity validations (0 disables).
  std::size_t integrity_check_period = 1000;
  /// Which constraint agent serves detection traffic.
  rl::ConstraintPolicy policy = rl::ConstraintPolicy::kBestDetection;
  /// Registry receiving this runtime's metrics.  Null keeps a registry
  /// private to the runtime; pass &obs::Telemetry::metrics() to publish
  /// into the process-wide telemetry snapshot.
  obs::MetricsRegistry* registry = nullptr;
};

/// Cheap accessor view over the runtime's registry counters.
struct RuntimeStats {
  std::uint64_t processed = 0;
  std::uint64_t benign = 0;
  std::uint64_t malware = 0;
  std::uint64_t adversarial = 0;
  std::uint64_t retrains = 0;
  std::uint64_t integrity_checks = 0;
  std::uint64_t integrity_alarms = 0;
};

/// Stateful deployment loop over a fully trained Framework.
///
/// The runtime owns no models; it drives the framework's deployed artifacts
/// and, on retrain, asks the framework to fold the quarantined samples into
/// the merged database and refresh defenses/controllers/vault records.
class DetectionRuntime {
 public:
  DetectionRuntime(Framework& framework, RuntimeConfig config = {});

  /// Process one HPC sample (engineered, scaled feature space): a
  /// process_batch call over a zero-copy 1-row view.
  TrafficVerdict process(std::span<const double> features);

  /// Process a columnar batch of samples: exactly the verdicts, counters,
  /// quarantine contents, and retrain/integrity side effects of processing
  /// each row in order.  Rows are scored against the frozen deployed models
  /// through the detectors' vectorized batch paths as a two-stage pipeline
  /// ("runtime.batch_score" region: predictor feedback rewards, then
  /// detector routing, fused per chunk so the stages overlap across
  /// chunks); side effects then commit serially in row order.  If an
  /// adaptive retrain fires mid-batch, the remaining rows are re-scored
  /// against the updated models via a zero-copy row slice.
  ///
  /// While telemetry is enabled, each call observes stage_tail_us once per
  /// stage: predictor and detector are the CPU time summed over the call's
  /// chunks (and re-score rounds), total is the call's wall time.
  std::vector<TrafficVerdict> process_batch(ml::BatchView batch);
  /// Allocation-free variant: verdicts land in caller-owned storage
  /// (out.size() == batch.rows()) and all scoring scratch comes from the
  /// per-thread arenas, so a warmed-up runtime serving already-quarantined
  /// traffic performs zero heap allocations per call, stage tails included
  /// (asserted by the `alloc`-labeled ctest).  Returns the number of
  /// adaptive retrains fired inside the call.
  std::uint64_t process_batch(ml::BatchView batch,
                              std::span<TrafficVerdict> out);

  /// Process a labeled stream through process_batch; returns detection
  /// metrics where adversarial verdicts count as "malware" (they are
  /// malware by construction).
  ml::MetricReport process_stream(const ml::Dataset& stream);

  /// Force an integrity validation pass now.
  bool validate_integrity();

  /// Snapshot of the registry counters as the legacy flat struct.
  RuntimeStats stats() const;
  /// The registry backing this runtime's metrics (private or injected).
  const obs::MetricsRegistry& metrics() const { return *registry_; }
  std::size_t quarantine_size() const { return quarantine_.size(); }
  const RuntimeConfig& config() const { return config_; }

 private:
  void maybe_retrain();
  void maybe_validate_integrity();

  Framework& framework_;
  RuntimeConfig config_;
  ml::Dataset quarantine_;  // predictor-labeled adversarial samples

  obs::MetricsRegistry local_registry_;  // used when no registry is injected
  obs::MetricsRegistry* registry_;
  // Cached handles: one atomic op per update on the hot path.
  obs::Counter* processed_;
  obs::Counter* benign_;
  obs::Counter* malware_;
  obs::Counter* adversarial_;
  obs::Counter* retrains_;
  obs::Counter* integrity_checks_;
  obs::Counter* integrity_alarms_;
  obs::Gauge* quarantine_gauge_;
  obs::Gauge* retrain_gauge_;
  // drlhmd.runtime.stage_tail_us{stage=} per stage.
  obs::ShardedTailHistogram* tail_predictor_;
  obs::ShardedTailHistogram* tail_detector_;
  obs::ShardedTailHistogram* tail_integrity_;
  obs::ShardedTailHistogram* tail_retrain_;
  obs::ShardedTailHistogram* tail_total_;
};

/// A framework plus serving runtime reconstructed from a checkpoint.
struct ColdStart {
  std::unique_ptr<Framework> framework;
  std::unique_ptr<DetectionRuntime> runtime;
};

/// Cold-start the deployment loop from a checkpoint directory: resume the
/// framework (which verifies every defended model against its vaulted
/// SHA-256 digest and refuses tampered checkpoints), require the pipeline
/// to have completed through the protect phase, and attach a
/// DetectionRuntime ready to serve traffic.
ColdStart cold_start(const std::string& checkpoint_dir, RuntimeConfig config = {});

}  // namespace drlhmd::core
