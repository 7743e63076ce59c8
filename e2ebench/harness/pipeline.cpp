#include "pipeline.hpp"

#include <chrono>

#include "obs/telemetry.hpp"

namespace e2ebench {

namespace core = drlhmd::core;
namespace obs = drlhmd::obs;

drlhmd::obs::Span bench_span(std::string name) {
  if (!obs::Telemetry::enabled()) return obs::Span{};
  return obs::Telemetry::tracer().span(std::move(name), "bench");
}

double PhaseTimes::total() const {
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum;
}

PhaseTimes run_phases(core::Framework& fw) {
  struct Step {
    const char* span;
    void (core::Framework::*call)();
  };
  // protect_models takes a deployment timestamp; its default is used.
  static const Step kSteps[core::kPhaseCount] = {
      {"sim.acquire_data", &core::Framework::acquire_data},
      {"ml.engineer_features", &core::Framework::engineer_features},
      {"ml.train_baselines", &core::Framework::train_baselines},
      {"adversarial.generate_attacks", &core::Framework::generate_attacks},
      {"rl.train_predictor", &core::Framework::train_predictor},
      {"ml.train_defenses", &core::Framework::train_defenses},
      {"rl.train_controllers", &core::Framework::train_controllers},
      {"integrity.protect_models", nullptr},
  };
  PhaseTimes times;
  for (std::size_t i = 0; i < core::kPhaseCount; ++i) {
    const obs::Span span = bench_span(kSteps[i].span);
    const auto t0 = std::chrono::steady_clock::now();
    if (kSteps[i].call != nullptr) {
      (fw.*kSteps[i].call)();
    } else {
      fw.protect_models();
    }
    times.seconds[i] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  }
  return times;
}

Quality evaluate_quality(const core::Framework& fw) {
  const obs::Span span = bench_span("core.evaluate");
  Quality q;
  const auto scenarios = fw.evaluate_scenarios();
  for (const auto& s : scenarios) q.defended_f1 += s.defended.f1;
  if (!scenarios.empty())
    q.defended_f1 /= static_cast<double>(scenarios.size());
  const drlhmd::ml::MetricReport predictor = fw.evaluate_predictor();
  q.predictor_tpr = predictor.tpr;
  q.predictor_fpr = predictor.fpr;
  q.agent_f1 = fw.controller(drlhmd::rl::ConstraintPolicy::kBestDetection)
                   .evaluate(fw.attacked_test_mix())
                   .f1;
  const auto attack = fw.attack_report();
  q.attack_success_ratio =
      attack.attempted == 0 ? 0.0
                            : static_cast<double>(attack.succeeded) /
                                  static_cast<double>(attack.attempted);
  return q;
}

}  // namespace e2ebench
