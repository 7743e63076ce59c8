#include "trace_report.hpp"

#include <algorithm>

namespace e2ebench {
namespace {

std::string layer_of(const drlhmd::obs::TraceEvent& event) {
  const std::string& name = event.name;
  if (event.category == "parallel") {
    // A region span's self time is the pool's dispatch and join; its chunks
    // do the work of the module that opened the region.
    if (name.rfind("parallel.", 0) == 0) return "util";
    static const std::map<std::string, std::string> kRegionLayer = {
        {"corpus_shard", "sim"},   {"dataset_builder", "sim"},
        {"cross_validation", "ml"}, {"decision_tree", "ml"},
        {"gbdt", "ml"},            {"matrix", "ml"},
        {"random_forest", "ml"},   {"lowprofool", "adversarial"},
        {"runtime", "core"},
    };
    const auto it = kRegionLayer.find(name.substr(0, name.find('.')));
    return it != kRegionLayer.end() ? it->second : "util";
  }
  if (event.category == "serve") return "serve";
  if (name.rfind("pipeline.", 0) == 0) {
    static const std::map<std::string, std::string> kPhaseLayer = {
        {"pipeline.acquire", "sim"},       {"pipeline.engineer", "ml"},
        {"pipeline.baseline", "ml"},       {"pipeline.attack", "adversarial"},
        {"pipeline.predict", "rl"},        {"pipeline.defend", "ml"},
        {"pipeline.control", "rl"},        {"pipeline.protect", "integrity"},
        {"pipeline.incremental_update", "core"},
    };
    const auto it = kPhaseLayer.find(name);
    return it != kPhaseLayer.end() ? it->second : "core";
  }
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

std::map<std::string, double> layer_self_seconds(
    const std::vector<drlhmd::obs::TraceEvent>& events) {
  // Clock reads of nested events can straddle their parent's edges by a
  // few hundred nanoseconds.
  constexpr double kSlackUs = 1.0;
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < events.size(); ++i)
    if (!events[i].open) by_thread[events[i].tid].push_back(i);

  std::map<std::string, double> self;
  for (auto& [tid, idx] : by_thread) {
    // Outer events first: by start, then longest first.
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (events[a].start_us != events[b].start_us)
        return events[a].start_us < events[b].start_us;
      return events[a].dur_us > events[b].dur_us;
    });
    std::vector<double> self_us(idx.size());
    std::vector<std::size_t> stack;  // positions in idx
    for (std::size_t p = 0; p < idx.size(); ++p) {
      const auto& ev = events[idx[p]];
      self_us[p] = ev.dur_us;
      while (!stack.empty()) {
        const auto& top = events[idx[stack.back()]];
        if (ev.start_us + ev.dur_us <= top.start_us + top.dur_us + kSlackUs)
          break;
        stack.pop_back();
      }
      if (!stack.empty()) self_us[stack.back()] -= ev.dur_us;
      stack.push_back(p);
    }
    for (std::size_t p = 0; p < idx.size(); ++p)
      self[layer_of(events[idx[p]])] += std::max(0.0, self_us[p]) / 1e6;
  }
  return self;
}

}  // namespace e2ebench
