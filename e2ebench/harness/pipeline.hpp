// Offline pipeline driven through core::Framework's public phase methods,
// each call timed (and, in a traced run, wrapped in a span) by the
// benchmark.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "core/framework.hpp"
#include "obs/trace.hpp"

namespace e2ebench {

/// A span on the global tracer when telemetry is on, else an inert span.
/// Names are "<layer>.<call>"; the category "bench" marks the benchmark's
/// own spans.
drlhmd::obs::Span bench_span(std::string name);

/// Wall seconds of each of the eight phases, in Framework::run_all order.
struct PhaseTimes {
  std::array<double, drlhmd::core::kPhaseCount> seconds{};
  double total() const;
  double of(drlhmd::core::Phase phase) const {
    return seconds[static_cast<std::size_t>(phase)];
  }
};

/// Run the eight phases in order, timing each call.
PhaseTimes run_phases(drlhmd::core::Framework& fw);

/// The paper's quality figures for a trained framework.
struct Quality {
  double defended_f1 = 0.0;     // mean F1 of the defended detectors, attacked mix
  double predictor_tpr = 0.0;   // A2C adversarial identification
  double predictor_fpr = 0.0;
  double agent_f1 = 0.0;        // best-detection UCB agent, attacked mix
  double attack_success_ratio = 0.0;  // LowProFool succeeded / attempted
};

Quality evaluate_quality(const drlhmd::core::Framework& fw);

}  // namespace e2ebench
