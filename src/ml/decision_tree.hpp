// CART decision tree with Gini impurity (binary classification).
//
// Also the building block for RandomForest, which enables per-split feature
// subsampling and bootstrap row weighting through the config.
#pragma once

#include "ml/classifier.hpp"
#include "ml/forest_kernel.hpp"

namespace drlhmd::ml {

class ColumnAccess;

struct DecisionTreeConfig {
  std::size_t max_depth = 12;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// 0 = consider all features at each split; otherwise sample this many.
  std::size_t max_features = 0;
  std::uint64_t seed = 13;
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {});

  void fit(const Dataset& train) override;
  /// Streamed fit: columns are pulled shard by shard through a lazy
  /// ColumnAccess.  The canonical training path — fit(Dataset) routes
  /// through it via the single-shard adapter (zero copy), so streamed and
  /// monolithic fits build byte-identical trees.
  void fit_stream(const DataSource& train) override;
  /// Fit with per-row multiplicities (bootstrap counts); rows with weight 0
  /// are ignored.
  void fit_weighted(const Dataset& train, std::span<const std::uint32_t> weights);

  double predict_proba(std::span<const double> features) const override;
  /// The engine's threshold sweep: a lone tree never amortizes the
  /// cut-code encode.  Bitwise identical to the row path.
  void predict_proba_batch(BatchView batch, std::span<double> out) const override;
  using Classifier::predict_proba_batch;
  const ForestKernel& kernel() const { return kernel_; }
  std::string name() const override { return "DT"; }
  std::vector<std::uint8_t> serialize() const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  bool trained() const override { return !kernel_.empty(); }

  static DecisionTree deserialize(std::span<const std::uint8_t> bytes);

  /// Grow one CART tree (trainer node order).  RandomForest grows its
  /// members through this and hands them to one shared engine.
  static Tree grow(const ColumnAccess& train,
                   std::span<const std::uint32_t> weights,
                   const DecisionTreeConfig& config);
  /// The DT byte format of one tree, shared with RandomForest's members.
  static std::vector<std::uint8_t> write_tree(const Tree& tree);
  /// Inverse of write_tree; the node count is checked against the input
  /// size before anything is allocated.  Structure is checked by the
  /// engine's build.
  static Tree read_tree(std::span<const std::uint8_t> bytes);

  std::size_t node_count() const { return kernel_.node_count(); }
  /// Nodes on the longest root-to-leaf path (0 when untrained).
  std::size_t depth() const { return trained() ? kernel_.depth(0) + 1 : 0; }

 private:
  DecisionTreeConfig config_;
  ForestKernel kernel_;
};

}  // namespace drlhmd::ml
