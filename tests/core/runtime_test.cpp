#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace drlhmd::core {
namespace {

FrameworkConfig runtime_config() {
  FrameworkConfig cfg;
  cfg.corpus.benign_apps = 80;
  cfg.corpus.malware_apps = 80;
  cfg.corpus.windows_per_app = 4;
  // Accuracy-only agent reward: the constraint term reads a wall-clock
  // latency profile, which a retrain re-measures, so two identical
  // deployments could otherwise schedule different detectors after it.
  cfg.controller.accuracy_weight = 1.0;
  return cfg;
}

/// Expensive pipeline shared across the suite.
class RuntimeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    framework_ = new Framework(runtime_config());
    framework_->run_all();
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }
  static Framework* framework_;
};

Framework* RuntimeFixture::framework_ = nullptr;

TEST(RuntimeConstructionTest, RequiresTrainedPipeline) {
  Framework fresh(runtime_config());
  EXPECT_THROW(DetectionRuntime{fresh}, std::logic_error);
}

TEST(VerdictNameTest, AllNamed) {
  EXPECT_EQ(verdict_name(TrafficVerdict::kBenign), "benign");
  EXPECT_EQ(verdict_name(TrafficVerdict::kMalware), "malware");
  EXPECT_EQ(verdict_name(TrafficVerdict::kAdversarialMalware),
            "adversarial-malware");
  EXPECT_EQ(verdict_name(TrafficVerdict::kDropped), "dropped");
}

TEST_F(RuntimeFixture, FlagsAdversarialTraffic) {
  DetectionRuntime runtime(*framework_);
  std::size_t flagged = 0;
  const auto& adv = framework_->adversarial_test();
  for (const auto& row : adv.rows_copy())
    flagged += runtime.process(row) == TrafficVerdict::kAdversarialMalware ? 1 : 0;
  EXPECT_GT(static_cast<double>(flagged) / static_cast<double>(adv.size()), 0.9);
  EXPECT_EQ(runtime.stats().adversarial, flagged);
  EXPECT_EQ(runtime.quarantine_size(), flagged);
}

TEST_F(RuntimeFixture, RoutesLegitimateTrafficToDetectors) {
  DetectionRuntime runtime(*framework_);
  const auto& test = framework_->test_set();
  std::size_t correct = 0, routed = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const TrafficVerdict v = runtime.process(test.row_copy(i));
    if (v == TrafficVerdict::kAdversarialMalware) continue;  // predictor FP
    ++routed;
    const int pred = v == TrafficVerdict::kMalware ? 1 : 0;
    correct += pred == test.y[i] ? 1 : 0;
  }
  ASSERT_GT(routed, test.size() / 2);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(routed), 0.8);
}

TEST_F(RuntimeFixture, ProcessStreamReportsMetrics) {
  DetectionRuntime runtime(*framework_);
  const auto m = runtime.process_stream(framework_->attacked_test_mix());
  // Adversarial verdicts count as malware: detection on the attacked mix
  // should be strong (predictor + defended models).
  EXPECT_GT(m.f1, 0.85);
  EXPECT_EQ(runtime.stats().processed, framework_->attacked_test_mix().size());
}

TEST_F(RuntimeFixture, BatchVerdictsMatchSequentialProcess) {
  // Retrain off, so the deployed models stay frozen and every verdict
  // follows from the two lines of defense scored row by row.
  RuntimeConfig cfg;
  cfg.retrain_threshold = 0;
  const auto& mix = framework_->attacked_test_mix();
  const auto& predictor = framework_->predictor();
  const auto& controller = framework_->controller(cfg.policy);
  std::vector<TrafficVerdict> expected;
  expected.reserve(mix.size());
  for (const auto& row : mix.rows_copy()) {
    if (predictor.is_adversarial(row))
      expected.push_back(TrafficVerdict::kAdversarialMalware);
    else
      expected.push_back(controller.predict(row) == 1 ? TrafficVerdict::kMalware
                                                      : TrafficVerdict::kBenign);
  }

  DetectionRuntime sequential(*framework_, cfg);
  std::vector<TrafficVerdict> per_row;
  per_row.reserve(mix.size());
  for (const auto& row : mix.rows_copy()) per_row.push_back(sequential.process(row));
  EXPECT_EQ(per_row, expected);

  DetectionRuntime batched(*framework_, cfg);
  const std::vector<TrafficVerdict> got = batched.process_batch(mix.X.view());
  EXPECT_EQ(got, expected);
  const auto count = [&expected](TrafficVerdict v) {
    return static_cast<std::uint64_t>(
        std::count(expected.begin(), expected.end(), v));
  };
  EXPECT_EQ(batched.stats().processed, mix.size());
  EXPECT_EQ(batched.stats().adversarial,
            count(TrafficVerdict::kAdversarialMalware));
  EXPECT_EQ(batched.stats().malware, count(TrafficVerdict::kMalware));
  EXPECT_EQ(batched.stats().benign, count(TrafficVerdict::kBenign));
  EXPECT_EQ(batched.quarantine_size(), count(TrafficVerdict::kAdversarialMalware));
}

TEST_F(RuntimeFixture, MidBatchRetrainMatchesPerRowProcess) {
  // Two identical deployments: one walks the attacked mix row by row, the
  // other scores it in one call and must re-score the rows after every
  // retrain that fires mid-batch.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("runtime-retrain-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  framework_->save_checkpoint(dir);
  Framework per_row_fw = Framework::resume(dir);
  Framework batched_fw = Framework::resume(dir);
  std::filesystem::remove_all(dir);

  RuntimeConfig cfg;
  cfg.retrain_threshold = 10;
  cfg.integrity_check_period = 7;
  const auto& mix = framework_->attacked_test_mix();

  DetectionRuntime per_row(per_row_fw, cfg);
  std::vector<TrafficVerdict> expected;
  expected.reserve(mix.size());
  for (const auto& row : mix.rows_copy()) expected.push_back(per_row.process(row));

  DetectionRuntime batched(batched_fw, cfg);
  std::vector<TrafficVerdict> got(mix.size());
  const std::uint64_t retrains =
      batched.process_batch(mix.X.view(), std::span<TrafficVerdict>(got));

  EXPECT_EQ(got, expected);
  const RuntimeStats a = per_row.stats();
  const RuntimeStats b = batched.stats();
  EXPECT_EQ(b.processed, a.processed);
  EXPECT_EQ(b.benign, a.benign);
  EXPECT_EQ(b.malware, a.malware);
  EXPECT_EQ(b.adversarial, a.adversarial);
  EXPECT_EQ(b.retrains, a.retrains);
  EXPECT_EQ(b.integrity_checks, a.integrity_checks);
  EXPECT_EQ(b.integrity_alarms, a.integrity_alarms);
  EXPECT_GE(b.retrains, 2u);
  EXPECT_EQ(retrains, b.retrains);
  EXPECT_EQ(batched.quarantine_size(), per_row.quarantine_size());
  ASSERT_EQ(batched_fw.defended_models().size(),
            per_row_fw.defended_models().size());
  for (std::size_t i = 0; i < per_row_fw.defended_models().size(); ++i)
    EXPECT_EQ(batched_fw.defended_models()[i]->serialize(),
              per_row_fw.defended_models()[i]->serialize())
        << per_row_fw.defended_models()[i]->name();
}

TEST_F(RuntimeFixture, IntegrityValidationPasses) {
  DetectionRuntime runtime(*framework_);
  EXPECT_TRUE(runtime.validate_integrity());
  EXPECT_EQ(runtime.stats().integrity_checks, 1u);
  EXPECT_EQ(runtime.stats().integrity_alarms, 0u);
}

TEST_F(RuntimeFixture, PeriodicIntegrityChecksFire) {
  RuntimeConfig cfg;
  cfg.integrity_check_period = 10;
  cfg.retrain_threshold = 0;
  DetectionRuntime runtime(*framework_, cfg);
  const auto& test = framework_->test_set();
  for (std::size_t i = 0; i < 35 && i < test.size(); ++i)
    runtime.process(test.row_copy(i));
  EXPECT_GE(runtime.stats().integrity_checks, 3u);
}

TEST_F(RuntimeFixture, AdaptiveRetrainingTriggersAndResetsQuarantine) {
  RuntimeConfig cfg;
  cfg.retrain_threshold = 25;
  cfg.integrity_check_period = 0;
  DetectionRuntime runtime(*framework_, cfg);
  const auto& adv = framework_->adversarial_test();
  for (std::size_t i = 0; i < 30 && i < adv.size(); ++i)
    runtime.process(adv.row_copy(i));
  EXPECT_GE(runtime.stats().retrains, 1u);
  EXPECT_LT(runtime.quarantine_size(), 25u);
  // After the retrain the defended models stay functional and vaulted.
  EXPECT_TRUE(runtime.validate_integrity());
}

TEST_F(RuntimeFixture, StatsViewMatchesRegistryCounters) {
  DetectionRuntime runtime(*framework_);
  runtime.process_stream(framework_->attacked_test_mix());
  runtime.validate_integrity();

  const RuntimeStats stats = runtime.stats();
  const obs::MetricsSnapshot snap = runtime.metrics().snapshot();
  const auto counter = [&snap](const char* name, const obs::Labels& labels) {
    const auto* sample = snap.find_counter(name, labels);
    return sample != nullptr ? sample->value : std::uint64_t{0};
  };
  EXPECT_EQ(counter("drlhmd.runtime.processed", {}), stats.processed);
  EXPECT_EQ(counter("drlhmd.runtime.verdicts", {{"verdict", "benign"}}),
            stats.benign);
  EXPECT_EQ(counter("drlhmd.runtime.verdicts", {{"verdict", "malware"}}),
            stats.malware);
  EXPECT_EQ(counter("drlhmd.runtime.verdicts", {{"verdict", "adversarial"}}),
            stats.adversarial);
  EXPECT_EQ(counter("drlhmd.runtime.integrity.checks", {}),
            stats.integrity_checks);
  EXPECT_EQ(counter("drlhmd.runtime.retrains", {}), stats.retrains);
  // Every processed sample got exactly one verdict.
  EXPECT_EQ(stats.benign + stats.malware + stats.adversarial, stats.processed);
  // Quarantine size is surfaced as a gauge off the same registry.
  const auto* quarantine = snap.find_gauge("drlhmd.runtime.quarantine_size");
  ASSERT_NE(quarantine, nullptr);
  EXPECT_DOUBLE_EQ(quarantine->value,
                   static_cast<double>(runtime.quarantine_size()));
}

TEST_F(RuntimeFixture, StageLatencyHistogramsRecordWhenTelemetryEnabled) {
  RuntimeConfig cfg;
  cfg.retrain_threshold = 25;
  obs::Telemetry::set_enabled(true);
  DetectionRuntime runtime(*framework_, cfg);
  const auto& mix = framework_->attacked_test_mix();
  const std::size_t n = std::min<std::size_t>(mix.size(), 40);
  for (std::size_t i = 0; i < n; ++i) runtime.process(mix.row_copy(i));

  const auto count = [&runtime](const char* stage) {
    const obs::MetricsSnapshot snap = runtime.metrics().snapshot();
    const auto* tail =
        snap.find_tail("drlhmd.runtime.stage_tail_us", {{"stage", stage}});
    return tail != nullptr ? tail->data.count : std::uint64_t{0};
  };
  // Every process() call is one 1-row process_batch: one observation each.
  EXPECT_EQ(count("total"), n);
  EXPECT_EQ(count("predictor"), n);
  EXPECT_EQ(count("detector"), n);

  // One k-row batch is one more observation per stage, however many
  // chunks and re-score rounds it took; each retrain is timed on its own.
  const ml::Dataset& adv = framework_->adversarial_test();
  const std::uint64_t retrains_before = runtime.stats().retrains;
  std::vector<TrafficVerdict> verdicts(adv.size());
  const std::uint64_t retrains =
      runtime.process_batch(adv.X.view(), std::span<TrafficVerdict>(verdicts));
  obs::Telemetry::set_enabled(false);
  EXPECT_EQ(count("total"), n + 1);
  EXPECT_EQ(count("predictor"), n + 1);
  EXPECT_EQ(count("detector"), n + 1);
  EXPECT_GE(retrains, 1u);
  EXPECT_EQ(runtime.stats().retrains, retrains_before + retrains);
  EXPECT_EQ(count("retrain"), runtime.stats().retrains);

  const obs::MetricsSnapshot snap = runtime.metrics().snapshot();
  const auto* total =
      snap.find_tail("drlhmd.runtime.stage_tail_us", {{"stage", "total"}});
  ASSERT_NE(total, nullptr);
  EXPECT_LE(total->data.p50, total->data.p90);
  EXPECT_LE(total->data.p90, total->data.p99);
  EXPECT_GT(total->data.max, 0.0);

  // With telemetry off, further samples bump counters but not histograms.
  const std::uint64_t processed = runtime.stats().processed;
  runtime.process(mix.row_copy(0));
  EXPECT_EQ(count("total"), n + 1);
  EXPECT_EQ(runtime.stats().processed, processed + 1);
}

TEST_F(RuntimeFixture, IncrementalUpdateRejectsBenignLabels) {
  ml::Dataset bogus;
  bogus.push({0.0, 0.0, 0.0, 0.0}, 0);
  EXPECT_THROW(framework_->incremental_defense_update(bogus),
               std::invalid_argument);
  // Empty update is a no-op.
  EXPECT_NO_THROW(framework_->incremental_defense_update(ml::Dataset{}));
}

}  // namespace
}  // namespace drlhmd::core
