// Tree-engine sweep cost (ml::ForestKernel, DESIGN.md §12).
//
// For each tree model (RF, DT, LightGBM), times the engine's threshold
// sweep — the lockstep double-compare traversal — against the model's
// predict_proba_batch, which runs whichever sweep the engine picks: the
// cut-code sweep for the ensembles, the threshold sweep for the lone tree.
// Same data shapes as bench_batch_inference so `<model>.batch_ns_per_sample`
// here is directly comparable to BENCH_batch.json.  Emits BENCH_kernels.json
// (drlhmd-bench/1 schema) as the last stdout line — the benchdiff regression
// gate keys on the `*.kernel_speedup` metrics.  MLP and NN report their
// batch path only.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbdt.hpp"
#include "ml/model_zoo.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace drlhmd;

namespace {

/// Two overlapping Gaussian blobs in 4-D (the engineered feature width) —
/// identical shapes to bench_batch_inference.
ml::Dataset blobs(std::size_t n_per_class, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::Dataset d;
  for (std::size_t i = 0; i < n_per_class; ++i) {
    std::vector<double> benign(4), malware(4);
    for (std::size_t c = 0; c < 4; ++c) {
      benign[c] = rng.normal(0.0, 1.0);
      malware[c] = rng.normal(1.5, 1.1);
    }
    d.push(std::move(benign), 0);
    d.push(std::move(malware), 1);
  }
  d.shuffle(rng);
  return d;
}

using bench::best_seconds;
using bench::best_seconds_paired;

}  // namespace

int main(int argc, char** argv) {
  bench::apply_bench_cli(argc, argv);
  const ml::Dataset train = blobs(400, 71);
  const ml::Dataset test = blobs(4000, 72);
  const std::size_t n = test.size();

  util::Table table(
      {"model", "batch ns/sample", "kernel ns/sample", "kernel speedup"});
  bench::BenchWriter json("kernels");
  json.context("test_rows", static_cast<std::uint64_t>(n));
  json.context("features", static_cast<std::uint64_t>(test.num_features()));
  json.context("build_type", std::string(bench::build_type()));
  json.context("threads",
               static_cast<std::uint64_t>(util::parallel_thread_count()));
  bench::warn_if_debug_build();

  double sink = 0.0;  // defeat dead-code elimination
  std::vector<double> scores(n);

  // batch = the engine's threshold sweep; kernel = the model's
  // predict_proba_batch (the sweep the engine picks for it).
  const auto run = [&](const auto& model) {
    const ml::ForestKernel& engine = model.kernel();
    const auto [batch_s, kernel_s] = best_seconds_paired(
        [&] {
          std::fill(scores.begin(), scores.end(), 0.0);
          engine.accumulate_thresholds(test.view(), scores);
          sink += scores[n / 2];
        },
        [&] {
          model.predict_proba_batch(test.view(), scores);
          sink += scores[n / 2];
        });

    const double batch_ns = 1e9 * batch_s / static_cast<double>(n);
    const double kernel_ns = 1e9 * kernel_s / static_cast<double>(n);
    const double speedup = kernel_ns > 0.0 ? batch_ns / kernel_ns : 0.0;
    const std::string name = model.name();
    table.add_row({name, util::Table::fmt(batch_ns, 1),
                   util::Table::fmt(kernel_ns, 1),
                   util::Table::fmt(speedup, 2)});
    std::fprintf(stderr, "[kernels] %-8s batch=%.1fns kernel=%.1fns x%.2f\n",
                 name.c_str(), batch_ns, kernel_ns, speedup);
    json.metric(name + ".batch_ns_per_sample", batch_ns, "ns", false);
    json.metric(name + ".kernel_ns_per_sample", kernel_ns, "ns", false);
    json.metric(name + ".kernel_speedup", speedup, "x", true);
  };

  ml::RandomForest forest;
  forest.fit(train);
  run(forest);
  ml::DecisionTree tree;
  tree.fit(train);
  run(tree);
  ml::Gbdt gbdt;
  gbdt.fit(train);
  run(gbdt);

  // Neural detectors: their batch path alone, beside the trees for scale.
  for (const auto kind : {ml::ModelKind::kMlp, ml::ModelKind::kNn}) {
    auto model = ml::make_model(kind);
    model->fit(train);
    const double batch_s = best_seconds(
        [&] { model->predict_proba_batch(test.view(), scores); });
    sink += scores[n / 2];
    const double batch_ns = 1e9 * batch_s / static_cast<double>(n);
    table.add_row({model->name(), util::Table::fmt(batch_ns, 1), "-", "-"});
    json.metric(model->name() + ".batch_ns_per_sample", batch_ns, "ns", false);
  }

  std::printf("%s\n%s\n", table.to_string().c_str(), json.str().c_str());
  return sink == -1.0 ? 1 : 0;
}
