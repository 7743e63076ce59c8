#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/data_source.hpp"
#include "util/parallel.hpp"

namespace drlhmd::ml {
namespace {

constexpr std::uint8_t kFormatVersion = 1;
/// Serialized node: u32 feature, f64 threshold, u32 left, u32 right, f64 value.
constexpr std::size_t kNodeBytes = 28;

/// Nodes at least this large scan candidate features in parallel, each
/// feature over its own sorted row copy.  That path sorts with an explicit
/// row-index tie-break so the permutation — and with it the floating-point
/// accumulation order — is unique; because the gate depends only on the
/// node size (never the thread count), every DRLHMD_THREADS value builds
/// the same tree.  Smaller nodes keep the original shared-buffer scan,
/// preserving the exact trees the seed implementation produced.
constexpr std::size_t kParallelSplitRows = 2048;

/// Rows traversed in lockstep by the batch path.  Each sweep advances every
/// pending lane one level, keeping up to this many independent dependent-load
/// chains in flight instead of serializing them row by row.
constexpr std::size_t kTraversalLanes = 16;

/// Gini impurity of a (weighted) binary count pair.
double gini(double n_pos, double n_total) {
  if (n_total <= 0.0) return 0.0;
  const double p = n_pos / n_total;
  return 2.0 * p * (1.0 - p);
}

/// Recursive CART growth into trainer-order nodes.
struct CartGrower {
  const ColumnAccess& train;
  std::span<const std::uint32_t> weights;
  const DecisionTreeConfig& config;
  Tree nodes;

  std::uint32_t grow(std::vector<std::size_t>& rows, std::size_t depth,
                     util::Rng& rng);
};

std::uint32_t CartGrower::grow(std::vector<std::size_t>& rows,
                                std::size_t depth, util::Rng& rng) {
  double w_total = 0.0, w_pos = 0.0;
  for (std::size_t r : rows) {
    const double w = weights[r];
    w_total += w;
    if (train.label(r) == 1) w_pos += w;
  }

  const auto node_index = static_cast<std::uint32_t>(nodes.size());
  nodes.emplace_back();
  nodes[node_index].value = w_total > 0.0 ? w_pos / w_total : 0.5;

  const bool pure = w_pos == 0.0 || w_pos == w_total;
  if (pure || depth >= config.max_depth || rows.size() < config.min_samples_split)
    return node_index;

  // Candidate features (subsampled for random forests).
  const std::size_t width = train.num_features();
  std::vector<std::size_t> features;
  if (config.max_features == 0 || config.max_features >= width) {
    features.resize(width);
    std::iota(features.begin(), features.end(), 0);
  } else {
    features = rng.sample_without_replacement(width, config.max_features);
  }

  // Exact greedy split search: sort rows per feature, scan boundaries.
  double best_gain = 1e-12;
  std::size_t best_feature = width;
  double best_threshold = 0.0;
  const double parent_impurity = gini(w_pos, w_total);

  if (rows.size() >= kParallelSplitRows) {
    struct FeatureBest {
      double gain = 0.0;
      double threshold = 0.0;
    };
    const std::vector<FeatureBest> bests = util::parallel_map(
        "decision_tree.split_scan", 0, features.size(), 1,
        [&](std::size_t fi) {
          const std::size_t f = features[fi];
          const std::span<const double> colf = train.col(f);
          std::vector<std::size_t> sorted = rows;
          std::sort(sorted.begin(), sorted.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double va = colf[a];
                      const double vb = colf[b];
                      return va < vb || (va == vb && a < b);
                    });
          FeatureBest best;
          double left_total = 0.0, left_pos = 0.0;
          std::size_t left_count = 0;
          for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
            const std::size_t r = sorted[k];
            const double w = weights[r];
            left_total += w;
            left_count += 1;
            if (train.label(r) == 1) left_pos += w;
            const double v = colf[r];
            const double v_next = colf[sorted[k + 1]];
            if (v == v_next) continue;  // no boundary between equal values
            if (left_count < config.min_samples_leaf ||
                sorted.size() - left_count < config.min_samples_leaf)
              continue;
            const double right_total = w_total - left_total;
            const double right_pos = w_pos - left_pos;
            const double weighted_child =
                (left_total * gini(left_pos, left_total) +
                 right_total * gini(right_pos, right_total)) /
                w_total;
            const double gain = parent_impurity - weighted_child;
            if (gain > best.gain) {
              best.gain = gain;
              best.threshold = 0.5 * (v + v_next);
            }
          }
          return best;
        });
    // Reduce in candidate-feature order with strict >: the same winner the
    // single-pass scan would select.
    for (std::size_t fi = 0; fi < features.size(); ++fi) {
      if (bests[fi].gain > best_gain) {
        best_gain = bests[fi].gain;
        best_feature = features[fi];
        best_threshold = bests[fi].threshold;
      }
    }
  } else {
    std::vector<std::size_t> sorted = rows;
    for (std::size_t f : features) {
      const std::span<const double> colf = train.col(f);
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        return colf[a] < colf[b];
      });
      double left_total = 0.0, left_pos = 0.0;
      std::size_t left_count = 0;
      for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
        const std::size_t r = sorted[k];
        const double w = weights[r];
        left_total += w;
        left_count += 1;
        if (train.label(r) == 1) left_pos += w;
        const double v = colf[r];
        const double v_next = colf[sorted[k + 1]];
        if (v == v_next) continue;  // no boundary between equal values
        if (left_count < config.min_samples_leaf ||
            sorted.size() - left_count < config.min_samples_leaf)
          continue;
        const double right_total = w_total - left_total;
        const double right_pos = w_pos - left_pos;
        const double weighted_child =
            (left_total * gini(left_pos, left_total) +
             right_total * gini(right_pos, right_total)) /
            w_total;
        const double gain = parent_impurity - weighted_child;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (v + v_next);
        }
      }
    }
  }

  if (best_feature == width) return node_index;  // no useful split

  std::vector<std::size_t> left_rows, right_rows;
  const std::span<const double> best_col = train.col(best_feature);
  for (std::size_t r : rows) {
    (best_col[r] <= best_threshold ? left_rows : right_rows).push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) return node_index;

  rows.clear();
  rows.shrink_to_fit();  // release before recursing

  nodes[node_index].feature = static_cast<std::uint32_t>(best_feature);
  nodes[node_index].threshold = best_threshold;
  const std::uint32_t left = grow(left_rows, depth + 1, rng);
  nodes[node_index].left = left;
  const std::uint32_t right = grow(right_rows, depth + 1, rng);
  nodes[node_index].right = right;
  return node_index;
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeConfig config) : config_(config) {
  if (config_.max_depth == 0)
    throw std::invalid_argument("DecisionTree: max_depth must be > 0");
  if (config_.min_samples_split < 2)
    throw std::invalid_argument("DecisionTree: min_samples_split must be >= 2");
  if (config_.min_samples_leaf == 0)
    throw std::invalid_argument("DecisionTree: min_samples_leaf must be > 0");
}

void DecisionTree::fit(const Dataset& train) {
  train.validate();
  fit_stream(DatasetSource(train));
}

void DecisionTree::fit_stream(const DataSource& train) {
  const ColumnAccess cols(train);
  const std::vector<std::uint32_t> weights(cols.rows(), 1);
  kernel_.build({grow(cols, weights, config_)});
}

void DecisionTree::fit_weighted(const Dataset& train,
                                std::span<const std::uint32_t> weights) {
  train.validate();
  const DatasetSource source(train);
  kernel_.build({grow(ColumnAccess(source), weights, config_)});
}

Tree DecisionTree::grow(const ColumnAccess& train,
                       std::span<const std::uint32_t> weights,
                       const DecisionTreeConfig& config) {
  if (train.rows() == 0)
    throw std::invalid_argument("DecisionTree::fit: empty dataset");
  if (weights.size() != train.rows())
    throw std::invalid_argument("DecisionTree::fit_weighted: weight size mismatch");

  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < train.rows(); ++i)
    if (weights[i] > 0) rows.push_back(i);
  if (rows.empty())
    throw std::invalid_argument("DecisionTree::fit_weighted: all weights zero");
  util::Rng rng(config.seed);
  CartGrower grower{train, weights, config, {}};
  grower.grow(rows, 0, rng);
  return std::move(grower.nodes);
}

double DecisionTree::predict_proba(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("DecisionTree: not trained");
  return kernel_.score_row(features, 0.0);
}

void DecisionTree::predict_proba_batch(BatchView batch,
                                       std::span<double> out) const {
  if (!trained()) throw std::logic_error("DecisionTree: not trained");
  check_batch_out(batch, out);
  std::fill(out.begin(), out.end(), 0.0);
  kernel_.accumulate(batch, out);
}

std::vector<std::uint8_t> DecisionTree::write_tree(const Tree& tree) {
  util::ByteWriter w;
  w.write_string("DT");
  w.write_u8(kFormatVersion);
  w.write_u64(tree.size());
  for (const TreeNode& n : tree) {
    w.write_u32(n.feature);
    w.write_f64(n.threshold);
    w.write_u32(n.left);
    w.write_u32(n.right);
    w.write_f64(n.value);
  }
  return w.take();
}

Tree DecisionTree::read_tree(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  if (r.read_string() != "DT")
    throw std::invalid_argument("DecisionTree::deserialize: bad magic");
  if (r.read_u8() != kFormatVersion)
    throw std::invalid_argument("DecisionTree::deserialize: bad version");
  Tree tree(r.read_count(kNodeBytes));
  for (TreeNode& n : tree) {
    n.feature = r.read_u32();
    n.threshold = r.read_f64();
    n.left = r.read_u32();
    n.right = r.read_u32();
    n.value = r.read_f64();
  }
  return tree;
}

std::vector<std::uint8_t> DecisionTree::serialize() const {
  return write_tree(trained() ? kernel_.tree(0) : Tree{});
}

DecisionTree DecisionTree::deserialize(std::span<const std::uint8_t> bytes) {
  DecisionTree model;
  Tree tree = read_tree(bytes);
  if (!tree.empty()) model.kernel_.build({std::move(tree)});
  return model;
}

std::unique_ptr<Classifier> DecisionTree::clone_untrained() const {
  return std::make_unique<DecisionTree>(config_);
}

}  // namespace drlhmd::ml
