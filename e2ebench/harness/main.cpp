// e2ebench: the repository's end-to-end benchmark.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md in this directory says why each exists):
//   fleet_train     paper-scale fleet training, quality evaluation, then the
//                   serve_paced traffic over the trained models
//   serve_paced     open loop, Poisson 20k samples/s from 2048 hosts
//   serve_adaptive  open loop, 2k samples/s with adversarial rows, adaptive
//                   retraining and periodic integrity validation on
//
// Every layer is driven through its public functions only, and every call
// the benchmark times is timed here.  With --trace 0 the last stdout line
// carries the end-to-end metrics; with --trace 1 telemetry is on, spans are
// recorded around each call, a Chrome trace is written under .bench_out/,
// and the last line carries the per-layer metrics.  The exit code is 1 when
// an output check fails (the result line then says "correct": false) and 2
// on bad arguments or a build without NDEBUG.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/runtime.hpp"
#include "inputs.hpp"
#include "ledger.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "pipeline.hpp"
#include "serve/server.hpp"
#include "serving.hpp"
#include "stats.hpp"
#include "trace_report.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace core = drlhmd::core;
namespace obs = drlhmd::obs;
namespace serve = drlhmd::serve;
namespace util = drlhmd::util;
using namespace e2ebench;

namespace {

// -- Fixed workload parameters ---------------------------------------------
constexpr std::size_t kHosts = 2048;
constexpr double kPacedRate = 20000.0;
constexpr double kAdaptiveRate = 2000.0;
// Adversarial share of the rows sent: small on the frozen workloads (so the
// traffic is mostly the clean test set, yet adversarial_tpr has thousands of
// samples), larger on serve_adaptive so two or three retrains fire per run.
// Each retrain stalls scoring for about a second; with more of them the
// stalled share of samples nears a half and the median flips into a stall.
constexpr double kFrozenAdversarialShare = 0.02;
constexpr double kAdaptiveAdversarialShare = 0.03;
constexpr double kWarmupSeconds = 1.0;
// Set-up is repeated and its median reported, so set-up time is steady.
constexpr int kSetupRepetitions = 3;
constexpr int kValidateCalls = 5;  // validate_integrity calls before and after
// The serving pipeline's corpus seed is fixed: --seed varies what is sent.
constexpr std::uint64_t kServingCorpusSeed = 2024;

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}
// Training runs on a fixed pool width (no wider than the machine); serving
// runs at width 1 so scoring stays inline on the single drain worker.
std::size_t train_width() { return std::min<std::size_t>(2, nproc()); }
// Serving threads are pinned when each can have a CPU of its own besides
// CPU 0 (drain worker on CPU 3, client threads on CPUs 1 and 2): unpinned,
// thread migrations moved scoring throughput by +-20% between one-second
// windows of one run.
bool pin_serving_threads() { return nproc() >= 4; }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? std::nan("")
                  : static_cast<double>(num) / static_cast<double>(den);
}

// -- Arguments ---------------------------------------------------------------
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && args.seconds > 0.0 && args.seconds <= 600.0;
}

// -- Result ------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<std::pair<std::string, std::string>> context;  // key -> JSON
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // report-only lines
  std::vector<std::string> failed_checks;
  std::uint64_t checks = 0;
  LedgerTally samples;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failed_checks.push_back(what);
  }
  void add_samples(const LedgerTally& t) {
    samples.attempted += t.attempted;
    samples.delivered += t.delivered;
    samples.shed += t.shed;
    samples.completion_dropped += t.completion_dropped;
    samples.undelivered += t.undelivered;
    samples.wrong += t.wrong;
    samples.violations += t.violations;
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void ctx(std::string key, const std::string& text) {
    context.emplace_back(std::move(key), "\"" + text + "\"");
  }
  void ctx(std::string key, double number) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", number);
    context.emplace_back(std::move(key), buf);
  }
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string join_numbers(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.4g", v);
    out += buf;
  }
  return out;
}

// -- Deployments -------------------------------------------------------------
serve::ServeConfig serve_config(obs::MetricsRegistry* registry) {
  serve::ServeConfig cfg;
  cfg.hosts = kHosts;
  cfg.shards = 1;
  cfg.ring_capacity = 8192;
  cfg.completion_capacity = 256;
  cfg.max_batch = 256;     // the batcher's defaults
  cfg.max_wait_us = 500.0;
  cfg.workers = 1;
  cfg.registry = registry;
  return cfg;
}

core::RuntimeConfig runtime_config(bool adaptive) {
  core::RuntimeConfig cfg;  // adaptive: the runtime's defaults
  if (!adaptive) {
    cfg.retrain_threshold = 0;
    cfg.integrity_check_period = 0;
  }
  return cfg;
}

/// A trained framework with a runtime and server over it.  Members are
/// declared in dependency order so they are destroyed server first.
struct Deployment {
  std::unique_ptr<core::Framework> fw;
  PhaseTimes phases;
  obs::MetricsRegistry registry;  // the server's drlhmd.serve.* metrics
  std::unique_ptr<core::DetectionRuntime> runtime;
  std::unique_ptr<serve::DetectionServer> server;

  void attach(bool adaptive) {
    runtime = std::make_unique<core::DetectionRuntime>(*fw,
                                                       runtime_config(adaptive));
    server = std::make_unique<serve::DetectionServer>(
        *runtime, fw->test_set().num_features(), serve_config(&registry));
  }
};

// The stock UCB reward mixes in each detector's latency as measured by a
// wall-clock timer during training, so identical trainings deploy different
// detectors (four trainings of the serving pipeline picked MLP, LightGBM,
// LR, LR), whose scoring costs differ by two orders of magnitude.  Scoring
// on correctness alone makes every run deploy the same detector.
constexpr double kAgentAccuracyWeight = 1.0;

core::FrameworkConfig serving_pipeline_config() {
  core::FrameworkConfig cfg;
  cfg.controller.accuracy_weight = kAgentAccuracyWeight;
  cfg.corpus.benign_apps = 80;
  cfg.corpus.malware_apps = 80;
  cfg.corpus.windows_per_app = 4;
  cfg.seed = kServingCorpusSeed;
  return cfg;
}

/// Removes a work directory inside the checkout when the run ends.
struct WorkDir {
  std::filesystem::path path;
  explicit WorkDir(const std::string& name)
      : path(std::filesystem::current_path() / ".bench_work" /
             (name + "-" + std::to_string(getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::remove(path.parent_path(), ec);  // only when empty
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

core::FrameworkConfig fleet_config(const std::filesystem::path& dir,
                                   std::size_t apps, std::size_t windows,
                                   std::uint64_t seed) {
  core::FrameworkConfig cfg;
  cfg.corpus.benign_apps = apps;
  cfg.corpus.malware_apps = apps;
  cfg.corpus.windows_per_app = windows;
  cfg.fleet.out_dir = dir.string();
  cfg.fleet.shards = 6;  // one per machine profile in the registry
  cfg.controller.accuracy_weight = kAgentAccuracyWeight;
  cfg.seed = seed;
  return cfg;
}

// -- Shared measurement pieces -------------------------------------------------
double validate_ms(core::DetectionRuntime& runtime, Result& result,
                   std::vector<double>& samples_ms) {
  for (int i = 0; i < kValidateCalls; ++i) {
    const obs::Span span = bench_span("integrity.validate_integrity");
    const auto t0 = std::chrono::steady_clock::now();
    const bool intact = runtime.validate_integrity();
    samples_ms.push_back(seconds_since(t0) * 1e3);
    result.check(intact, "validate_integrity() returned false");
  }
  return median(samples_ms);
}

void report_quality(Result& r, const Quality& q) {
  r.check(std::isfinite(q.defended_f1) && std::isfinite(q.predictor_tpr) &&
              std::isfinite(q.agent_f1) && std::isfinite(q.predictor_fpr),
          "quality metrics are not finite");
  r.e2e("defended_f1", q.defended_f1, "ratio");
  r.e2e("predictor_tpr", q.predictor_tpr, "ratio");
  r.e2e("agent_f1", q.agent_f1, "ratio");
  r.notes.push_back("predictor_fpr " + json_number(q.predictor_fpr) +
                    " ratio (not gated: 0 on most corpora)");
}

/// Median of each phase across set-up repetitions.
PhaseTimes median_phases(const std::vector<PhaseTimes>& reps) {
  PhaseTimes m;
  for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(r.seconds[p]);
    m.seconds[p] = median(v);
  }
  return m;
}

void pipeline_layers(Result& r, const core::Framework& fw,
                     const PhaseTimes& t, const Quality& q) {
  const double rows = static_cast<double>(
      fw.train_set().size() + fw.val_set().size() + fw.test_set().size());
  r.layer("sim.build_s", t.of(core::Phase::kAcquire), "s");
  r.layer("sim.rows_per_s", rows / t.of(core::Phase::kAcquire), "1/s");
  r.layer("ml.select_s", t.of(core::Phase::kEngineer), "s");
  r.layer("ml.baseline_fit_s", t.of(core::Phase::kBaseline), "s");
  r.layer("ml.defense_fit_s", t.of(core::Phase::kDefend), "s");
  r.layer("adversarial.attack_s", t.of(core::Phase::kAttack), "s");
  r.layer("adversarial.success_ratio", q.attack_success_ratio, "ratio");
  r.layer("rl.predictor_fit_s", t.of(core::Phase::kPredict), "s");
  r.layer("rl.controller_fit_s", t.of(core::Phase::kControl), "s");
  r.layer("integrity.protect_s", t.of(core::Phase::kProtect), "s");
}

/// Merged p50 of every drlhmd.parallel.chunk_us recorder (telemetry only).
double chunk_us_p50() {
  const obs::MetricsSnapshot snap = obs::Telemetry::metrics().snapshot();
  std::vector<obs::TailHistogram::Bucket> buckets;
  std::uint64_t total = 0;
  for (const auto& t : snap.tails) {
    if (t.name != "drlhmd.parallel.chunk_us") continue;
    for (const auto& b : t.data.buckets) {
      buckets.push_back(b);
      total += b.count;
    }
  }
  if (total == 0) return std::nan("");
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) { return a.lo < b.lo; });
  std::uint64_t seen = 0;
  for (const auto& b : buckets) {
    seen += b.count;
    if (2 * seen >= total) return 0.5 * (b.lo + b.hi);
  }
  return buckets.back().hi;
}

/// Per-layer metrics of one serving window.
void serving_layers(Result& r, const WindowStats& w, Deployment& d,
                    double validate_median_ms) {
  const core::RuntimeStats rt = d.runtime->stats();
  const obs::MetricsSnapshot snap = d.registry.snapshot();
  const obs::TailSample* score = snap.find_tail("drlhmd.serve.score_us");
  const obs::TailSample* rows = snap.find_tail("drlhmd.serve.batch_rows");
  const double score_p50 = score != nullptr ? score->data.p50 : std::nan("");

  r.layer("rl.flag_ratio", ratio(w.adversarial_flagged, w.adversarial_sent),
          "ratio");
  r.layer("integrity.validate_ms", validate_median_ms, "ms");
  r.layer("integrity.checks", static_cast<double>(rt.integrity_checks),
          "count");
  r.layer("core.score_ns_per_row",
          score != nullptr ? score->data.sum * 1e3 /
                                 static_cast<double>(w.served.scored)
                           : std::nan(""),
          "ns");
  r.layer("core.retrains", static_cast<double>(rt.retrains), "count");
  r.layer("core.quarantined", static_cast<double>(rt.adversarial), "count");
  r.layer("serve.enqueue_ns_p50", w.enqueue_ns.quantile(0.5), "ns");
  r.layer("serve.enqueue_ns_p99", w.enqueue_ns.quantile(0.99), "ns");
  r.layer("serve.pop_ns_p50", w.pop_ns.quantile(0.5), "ns");
  r.layer("serve.residence_us_p50", w.residence_us.quantile(0.5), "us");
  r.layer("serve.residence_us_p99", w.residence_us.quantile(0.99), "us");
  r.layer("serve.completion_wait_us_p99", w.completion_wait_us.quantile(0.99),
          "us");
  r.layer("serve.score_us_p50", score_p50, "us");
  r.layer("serve.score_us_p99",
          score != nullptr ? score->data.p99 : std::nan(""), "us");
  r.layer("serve.score_us_max",
          score != nullptr ? score->data.max : std::nan(""), "us");
  r.layer("serve.batch_rows_p50",
          rows != nullptr ? rows->data.p50 : std::nan(""), "count");
  r.layer("serve.flush_wait_ratio", ratio(w.served.flush_wait, w.served.batches),
          "ratio");
  r.layer("serve.flush_full_ratio", ratio(w.served.flush_full, w.served.batches),
          "ratio");
  // Derived, not measured: residence minus scoring at the median.
  r.layer("serve.wait_us_p50", w.residence_us.quantile(0.5) - score_p50, "us");
  r.layer("serve.queue_depth_max", static_cast<double>(w.queue_depth_max),
          "count");
  r.layer("util.arena_bytes",
          static_cast<double>(util::arena_stats().capacity_bytes), "bytes");
  r.layer("util.chunk_us_p50", chunk_us_p50(), "us");
  r.layer("harness.late_us_p99", w.late_us.quantile(0.99), "us");
}

/// End-to-end serving metrics.  latency_p50_us and throughput_per_s are
/// medians over the window's one-second intervals, which a host hiccup in
/// one interval does not move.  The p99 is printed but not reported as a
/// metric: on a shared 4-vCPU host it moved from 0.7 ms to 20 ms between
/// runs of serve_paced (interquartile range 2.5x its median over ten seeds),
/// and on serve_adaptive it is the length of the longest retrain stall.
void serving_e2e(Result& r, const WindowStats& w) {
  r.e2e("latency_p50_us", interval_latency_us(w, 0.5), "us");
  r.e2e("throughput_per_s", interval_throughput(w), "1/s");
  r.e2e("adversarial_tpr", ratio(w.adversarial_detected, w.adversarial_sent),
        "ratio");
  r.e2e("benign_tnr", ratio(w.benign_passed, w.benign_sent), "ratio");
  r.notes.push_back("latency p99 (not gated) " +
                    json_number(interval_latency_us(w, 0.99)) +
                    " us; tail " + tail_summary(w.latency_us) + " us");
  std::vector<double> p50s, p99s, rates;
  for (std::size_t i = 0; i < w.latency_us_by_second.size(); ++i) {
    p50s.push_back(w.latency_us_by_second[i].quantile(0.5));
    p99s.push_back(w.latency_us_by_second[i].quantile(0.99));
    rates.push_back(w.delivered_by_second[i].per_second());
  }
  r.notes.push_back("latency p50 by second (us):" + join_numbers(p50s));
  r.notes.push_back("latency p99 by second (us):" + join_numbers(p99s));
  r.notes.push_back("delivery rate by second (1/s):" + join_numbers(rates));
  r.notes.push_back("whole window: latency p50 " +
                    json_number(w.latency_us.quantile(0.5)) + " us, p99 " +
                    json_number(w.latency_us.quantile(0.99)) +
                    " us, throughput " +
                    json_number(static_cast<double>(w.delivered) / w.seconds) +
                    " /s");
  r.notes.push_back("adversarial rows sent " +
                    std::to_string(w.adversarial_sent) + ", benign rows sent " +
                    std::to_string(w.benign_sent));
  r.notes.push_back(
      "flushes " + std::to_string(w.served.batches) + " (full " +
      std::to_string(w.served.flush_full) + ", wait " +
      std::to_string(w.served.flush_wait) + ", drain " +
      std::to_string(w.served.flush_drain) + "), retrains " +
      std::to_string(w.served.retrains));
}

void record_window(Result& r, const WindowStats& w) {
  const LedgerTally t = w.ledger.tally();
  r.add_samples(t);
  r.check(t.correct(), "sample accounting or verdict check failed");
}

/// Check the verdicts of an adaptive run by replaying its accepted rows in
/// the order the server scored them.
///
/// The predictor is never retrained, so which rows it flags is fixed: the
/// replay knows each adversarial verdict, and from the running flag count
/// it knows exactly where each retrain fired (every `threshold` quarantined
/// rows).  Rows before the first retrain must match `initial` (the frozen
/// verdicts of the models before serving), rows after the last must match
/// `final` (those of the models after serving).  Between retrains only the
/// verdict kind is checked: each retrain re-profiles the detectors' wall
/// clock latency, which feeds the UCB agent's reward, so the detector an
/// agent picks there cannot be reproduced by a second run.  Returns the
/// number of retrains the replay predicts.
std::uint64_t replay_check(const RowVerdicts& initial, const RowVerdicts& final,
                           std::size_t threshold,
                           const std::vector<WindowStats*>& windows) {
  std::uint64_t flagged = 0;
  std::uint64_t total_flagged = 0;
  for (const WindowStats* w : windows)
    for (const std::uint32_t row : w->accepted_rows)
      total_flagged += initial[row] == core::TrafficVerdict::kAdversarialMalware;
  const std::uint64_t retrains = total_flagged / threshold;
  for (WindowStats* w : windows) {
    for (std::size_t k = 0; k < w->accepted_rows.size(); ++k) {
      const std::uint32_t row = w->accepted_rows[k];
      const std::uint64_t epoch = flagged / threshold;
      const bool flag = initial[row] == core::TrafficVerdict::kAdversarialMalware;
      flagged += flag;
      if (!w->accepted_delivered[k]) continue;
      const core::TrafficVerdict got = w->accepted_verdict[k];
      bool ok;
      if (flag) {
        ok = got == core::TrafficVerdict::kAdversarialMalware;
      } else if (epoch == 0) {
        ok = got == initial[row];
      } else if (epoch == retrains) {
        ok = got == final[row];
      } else {
        ok = got == core::TrafficVerdict::kBenign ||
             got == core::TrafficVerdict::kMalware;
      }
      if (!ok) w->ledger.mark_wrong(w->accepted_index[k]);
    }
  }
  return retrains;
}

// -- Workloads -----------------------------------------------------------------
struct ServingSpec {
  double rate;
  double adversarial_share;
  bool adaptive;
};

/// One open-loop window of the workload's traffic for `seconds`, from its
/// own seeded schedule.
WindowStats serving_window(const ServingSpec& spec, Deployment& d,
                           const RowPool& pool, const RowVerdicts& reference,
                           std::uint64_t seed, double seconds,
                           const char* span_name) {
  const obs::Span span = bench_span(span_name);
  const std::vector<Arrival> arrivals =
      poisson_schedule(seed, spec.rate, seconds, kHosts, pool.mix);
  return run_open_loop(*d.server, pool, arrivals, reference,
                       pin_serving_threads());
}

void add_serving_context(Result& r, const ServingSpec& spec) {
  r.ctx("loop", "open");
  r.ctx("hosts", static_cast<double>(kHosts));
  r.ctx("rate_per_s", spec.rate);
  r.ctx("adversarial_share", spec.adversarial_share);
  r.ctx("serve_threads", 1.0);
  r.ctx("pinned", pin_serving_threads() ? "yes" : "no");
  r.ctx("client_threads", 2.0);
}

Result run_serving(const ServingSpec& spec, const Args& args) {
  Result r;
  add_serving_context(r, spec);

  // Set-up: train the reduced pipeline and attach a runtime and server,
  // kSetupRepetitions times; the last deployment serves.
  util::set_parallel_threads(train_width());
  std::unique_ptr<Deployment> deployment;
  std::vector<double> setup_s;
  std::vector<PhaseTimes> phases;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const obs::Span span = bench_span("harness.setup");
    const auto t0 = std::chrono::steady_clock::now();
    auto d = std::make_unique<Deployment>();
    d->fw = std::make_unique<core::Framework>(serving_pipeline_config());
    d->phases = run_phases(*d->fw);
    d->attach(spec.adaptive);
    setup_s.push_back(seconds_since(t0));
    phases.push_back(d->phases);
    deployment = std::move(d);
  }
  Deployment& d = *deployment;
  const PhaseTimes phase_median = median_phases(phases);
  std::vector<double> totals;
  for (const auto& p : phases) totals.push_back(p.total());
  for (std::size_t p = 0; p < core::kPhaseCount; ++p)
    r.check(d.fw->phase_done(static_cast<core::Phase>(p)),
            "pipeline phase not done");

  const Quality quality = evaluate_quality(*d.fw);
  const RowPool pool = make_row_pool(*d.fw, spec.adversarial_share);
  // Frozen workloads check every verdict as it is popped; the adaptive one
  // checks after the run, against the models before and after serving.
  const RowVerdicts initial = reference_verdicts(*d.fw, pool);
  const RowVerdicts reference = spec.adaptive ? RowVerdicts{} : initial;

  util::set_parallel_threads(1);
  const bool traced = args.trace;
  obs::Telemetry::set_enabled(false);
  // Each window draws its own schedule from the seed.
  std::uint64_t window_seed = args.seed * 16;
  WindowStats warm = serving_window(spec, d, pool, reference, window_seed++,
                                    kWarmupSeconds, "harness.warmup");
  d.registry.reset_recorders();
  std::vector<double> validate_samples;
  validate_ms(*d.runtime, r, validate_samples);

  WindowStats untraced = serving_window(spec, d, pool, reference,
                                        window_seed++, args.seconds,
                                        "harness.window");
  WindowStats traced_window;
  if (traced) {
    obs::Telemetry::set_enabled(true);
    d.registry.reset_recorders();
    traced_window = serving_window(spec, d, pool, reference, window_seed++,
                                   args.seconds, "harness.window");
  }
  const double validate_median = validate_ms(*d.runtime, r, validate_samples);
  obs::Telemetry::set_enabled(false);

  if (spec.adaptive) {
    std::vector<WindowStats*> order = {&warm, &untraced};
    if (traced) order.push_back(&traced_window);
    const core::RuntimeConfig& rc = d.runtime->config();
    const std::uint64_t retrains =
        replay_check(initial, reference_verdicts(*d.fw, pool),
                     rc.retrain_threshold, order);
    const core::RuntimeStats rt = d.runtime->stats();
    r.check(rt.retrains == retrains, "retrain count differs from the replay");
    r.check(rt.integrity_checks ==
                rt.processed / rc.integrity_check_period + 2 * kValidateCalls,
            "integrity check count differs from the replay");
    r.check(rt.integrity_alarms == 0, "integrity alarm while serving");
  }
  record_window(r, warm);
  record_window(r, untraced);
  if (traced) record_window(r, traced_window);

  const WindowStats& main_window = traced ? traced_window : untraced;
  r.notes.push_back("set-up repetitions (s):" + join_numbers(setup_s));
  if (!traced) {
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("train_s", median(totals), "s");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    serving_e2e(r, untraced);
    report_quality(r, quality);
  } else {
    pipeline_layers(r, *d.fw, phase_median, quality);
    serving_layers(r, main_window, d, validate_median);
    // Traced over untraced latency p50, the main metric of an open loop.
    const double traced_main = traced_window.latency_us.quantile(0.5);
    const double untraced_main = untraced.latency_us.quantile(0.5);
    r.layer("obs.trace_overhead_ratio", traced_main / untraced_main, "ratio");
  }
  return r;
}

Result run_fleet_train(const Args& args) {
  Result r;
  // The trained detectors then serve the serve_paced traffic.
  const ServingSpec deploy_spec{kPacedRate, kFrozenAdversarialShare, false};
  add_serving_context(r, deploy_spec);
  r.ctx("apps", 600.0);
  r.ctx("windows_per_app", 5.0);
  r.ctx("shards", 6.0);

  util::set_parallel_threads(train_width());
  // Set-up: a small fleet pipeline through all eight phases, which starts
  // the pool, maps the shard code paths and warms the allocator.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const obs::Span span = bench_span("harness.setup");
    const auto t0 = std::chrono::steady_clock::now();
    const WorkDir dir("fleet-warmup");
    core::Framework warm(fleet_config(dir.path, 16, 2, args.seed));
    run_phases(warm);
    setup_s.push_back(seconds_since(t0));
  }

  // The timed pass.  A traced run trains twice, untraced then traced, to
  // measure the tracing overhead on train_s.
  const bool traced = args.trace;
  obs::Telemetry::set_enabled(false);
  const WorkDir dir("fleet");
  auto train = [&](const std::string& sub) {
    auto d = std::make_unique<Deployment>();
    d->fw = std::make_unique<core::Framework>(
        fleet_config(dir.path / sub, 300, 5, args.seed));
    d->phases = run_phases(*d->fw);
    return d;
  };
  double untraced_train_s = 0.0;
  if (traced) {
    untraced_train_s = train("untraced")->phases.total();
    obs::Telemetry::set_enabled(true);
  }
  const std::unique_ptr<Deployment> deployment = train("timed");
  Deployment& d = *deployment;
  for (std::size_t p = 0; p < core::kPhaseCount; ++p)
    r.check(d.fw->phase_done(static_cast<core::Phase>(p)),
            "pipeline phase not done");
  const Quality quality = evaluate_quality(*d.fw);

  d.attach(false);
  const RowPool pool = make_row_pool(*d.fw, kFrozenAdversarialShare);
  const RowVerdicts reference = reference_verdicts(*d.fw, pool);
  util::set_parallel_threads(1);
  std::uint64_t window_seed = args.seed * 16;
  WindowStats warm = serving_window(deploy_spec, d, pool, reference,
                                    window_seed++, kWarmupSeconds,
                                    "harness.warmup");
  d.registry.reset_recorders();
  obs::Telemetry::set_enabled(traced);
  std::vector<double> validate_samples;
  validate_ms(*d.runtime, r, validate_samples);
  WindowStats window = serving_window(deploy_spec, d, pool, reference,
                                      window_seed++, args.seconds,
                                      "harness.window");
  record_window(r, warm);
  record_window(r, window);
  const double validate_median = validate_ms(*d.runtime, r, validate_samples);
  obs::Telemetry::set_enabled(false);

  r.notes.push_back("set-up repetitions (s):" + join_numbers(setup_s));
  r.notes.push_back(
      "phases (s):" +
      join_numbers({d.phases.seconds.begin(), d.phases.seconds.end()}));
  if (!traced) {
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("train_s", d.phases.total(), "s");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    serving_e2e(r, window);
    report_quality(r, quality);
  } else {
    pipeline_layers(r, *d.fw, d.phases, quality);
    serving_layers(r, window, d, validate_median);
    r.layer("obs.trace_overhead_ratio", d.phases.total() / untraced_train_s,
            "ratio");
  }
  return r;
}

// -- Output ----------------------------------------------------------------------
void print_result(const Args& args, const Result& r) {
  const auto& metrics = args.trace ? r.per_layer : r.end_to_end;
  std::printf("e2ebench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& m : metrics)
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  const LedgerTally& s = r.samples;
  std::printf(
      "  samples attempted %llu delivered %llu shed %llu completion_dropped "
      "%llu undelivered %llu wrong %llu violations %llu failed_ratio %.6g\n",
      static_cast<unsigned long long>(s.attempted),
      static_cast<unsigned long long>(s.delivered),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.completion_dropped),
      static_cast<unsigned long long>(s.undelivered),
      static_cast<unsigned long long>(s.wrong),
      static_cast<unsigned long long>(s.violations), s.failed_ratio());
  for (const auto& note : r.notes) std::printf("  %s\n", note.c_str());
  for (const auto& f : r.failed_checks)
    std::printf("  FAILED CHECK: %s\n", f.c_str());

  std::string ctx = "{";
  for (std::size_t i = 0; i < r.context.size(); ++i) {
    if (i != 0) ctx += ", ";
    ctx += "\"" + r.context[i].first + "\": " + r.context[i].second;
  }
  std::printf("context %s}\n", ctx.c_str());

  const bool correct = r.failed_checks.empty() && r.samples.correct();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.samples.attempted + r.checks);
  line += ", \"failed\": " +
          std::to_string(r.samples.failed() + r.failed_checks.size());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void print_trace(const Args& args) {
  const auto events = obs::Telemetry::tracer().events();
  std::printf("layer self time (s, summed over threads):\n");
  for (const auto& [layer, s] : layer_self_seconds(events))
    std::printf("  %-14s %12.6f\n", layer.c_str(), s);
  const std::filesystem::path dir =
      std::filesystem::current_path() / ".bench_out";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / ("trace-" + args.workload + "-seed" + std::to_string(args.seed) +
             ".json");
  if (obs::write_chrome_trace_file(obs::Telemetry::tracer(), path.string()))
    std::printf("chrome trace: %s (%zu events)\n", path.c_str(), events.size());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <fleet_train|serve_paced|"
                 "serve_adaptive> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "e2ebench: built without NDEBUG; refusing to report results\n");
  return 2;
#endif
  if (args.trace) obs::Telemetry::set_enabled(true);

  Result r;
  try {
    if (args.workload == "fleet_train") {
      r = run_fleet_train(args);
    } else if (args.workload == "serve_paced") {
      r = run_serving({kPacedRate, kFrozenAdversarialShare, false}, args);
    } else if (args.workload == "serve_adaptive") {
      r = run_serving(
          {kAdaptiveRate, kAdaptiveAdversarialShare, true}, args);
    } else {
      std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  r.ctx("workload", args.workload);
  r.ctx("seed", static_cast<double>(args.seed));
  r.ctx("seconds", args.seconds);
  r.ctx("build_type", "release");
  r.ctx("nproc", static_cast<double>(nproc()));
  r.ctx("train_threads", static_cast<double>(train_width()));

  for (const auto& m : args.trace ? r.per_layer : r.end_to_end) {
    if (!std::isfinite(m.value))
      r.failed_checks.push_back("metric " + m.name + " is not finite");
  }
  if (args.trace) print_trace(args);
  print_result(args, r);
  return r.failed_checks.empty() && r.samples.correct() ? 0 : 1;
}
