// The one tree engine: DT, RF and GBDT all store and score their trees here.
//
// Trainers hand over trees in their own node order (`TreeNode`, root at
// index 0).  build() validates them once and lays every tree out in one
// arena with children adjacent (right == left + 1) and self-looping leaves,
// so every lane of a traversal runs a fixed `depth` steps and parks on its
// leaf.  Two sweeps read that arena; which one scores a batch follows only
// from the ensemble itself:
//
//   * cut-code sweep — more than one tree and the thresholds fit the uint16
//     cut budget.  Each feature's distinct thresholds form a sorted cut
//     grid; a value encodes as code(x) = #{ c in cuts[f] : c < x }, and
//     since every threshold is a grid point, x <= t <=> code(x) <= tq.  The
//     codes are computed once per (feature, 1024-row tile) and shared by
//     every tree, whose nodes shrink to 8 bytes.  NaN encodes as 0xFFFF and
//     goes right, exactly like `v <= t`.
//   * threshold sweep — a single tree, an over-budget grid, and every row
//     call (a 1-row batch, which stops on its leaf instead of parking).
//     Compares the doubles directly, 16 lanes in lockstep.
//
// Both sweeps add each tree's double leaf value into the caller's `out`
// tree by tree, so they are bitwise identical to each other and to a row
// walk that sums in the same order.  tree() hands the nodes back in
// trainer order, which is what the models serialize.  Scratch comes from
// the per-thread arena (zero heap allocations in steady state).  See
// DESIGN.md §12.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/feature_matrix.hpp"

namespace drlhmd::ml {

/// One tree node in trainer order: the form every tree trainer emits and
/// every tree deserializer reads.
struct TreeNode {
  static constexpr std::uint32_t kLeaf = 0xFFFFFFFFu;
  std::uint32_t feature = kLeaf;  // internal node when != kLeaf
  double threshold = 0.0;         // go left iff x <= threshold
  std::uint32_t left = 0;         // child indices within the same tree
  std::uint32_t right = 0;
  double value = 0.0;  // leaf payload; internal nodes keep theirs for the bytes
  bool leaf() const { return feature == kLeaf; }
};
using Tree = std::vector<TreeNode>;

class ForestKernel {
 public:
  /// Distinct-threshold budget per feature for the cut-code sweep: the
  /// uint16 code reserves 0xFFFF for NaN.
  static constexpr std::size_t kMaxCuts = 65000;

  ForestKernel() = default;

  /// Validate and lay out the trees.  Throws std::invalid_argument unless
  /// every tree is non-empty, every child index is in range, and every
  /// node is reached exactly once from its tree's root.  No trees leaves
  /// the engine empty.
  void build(const std::vector<Tree>& trees);

  bool empty() const { return roots_.empty(); }
  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return nodes_.size(); }
  /// Root-to-deepest-leaf transitions of tree t.
  std::size_t depth(std::size_t t) const { return depths_[t]; }
  /// Tree t in trainer order (leaves carry zero child indices).
  Tree tree(std::size_t t) const;
  /// True when accumulate() runs the cut-code sweep.
  bool cut_codes() const { return !code_nodes_.empty(); }

  /// out[r] += sum over trees, in tree order, of the leaf value row r
  /// reaches.  The caller owns the initial contents of `out` (zero for
  /// DT/RF, the base score for GBDT).
  void accumulate(BatchView batch, std::span<double> out) const;
  /// The two sweeps behind accumulate(), for parity tests and benches.
  /// accumulate_codes() requires cut_codes().
  void accumulate_thresholds(BatchView batch, std::span<double> out) const;
  void accumulate_codes(BatchView batch, std::span<double> out) const;
  /// init + sum of the row's leaf values: the threshold sweep over a 1-row
  /// batch view of `row` (zero copy).
  double score_row(std::span<const double> row, double init) const;

 private:
  // Threshold-sweep node.  Internal: kid = {left, left + 1}.  Leaf:
  // kid = {self, self} and feature 0, so a parked lane reads column 0 and
  // stays put.  A leaf keeps its trainer threshold for tree().
  struct Node {
    double threshold = 0.0;
    std::uint32_t feature = 0;
    std::uint32_t kid[2] = {0, 0};
  };
  // Cut-code node: `left + (code > tq)` selects the child; leaves have
  // tq == 0xFFFF and left == self, which no uint16 code exceeds.  `feature`
  // is pre-multiplied by the code-tile stride when codes_scaled_.
  struct CodeNode {
    std::uint16_t feature = 0;
    std::uint16_t tq = 0;
    std::uint32_t left = 0;
  };

  /// Build the cut grid and code nodes; leaves them empty when the grid
  /// does not fit (the threshold sweep then serves every batch).
  void build_codes();
  void check(BatchView batch, std::span<const double> out) const;
  /// Quantize tile rows [t0, t0 + tile) into codes[f * kTile + r].
  void encode_tile(BatchView batch, std::size_t t0, std::size_t tile,
                   std::uint16_t* codes) const;

  std::vector<Node> nodes_;            // all trees, children adjacent
  std::vector<double> values_;         // per node
  std::vector<std::uint32_t> source_;  // trainer index within its tree
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint32_t> depths_;  // fixed trip count per tree
  std::size_t required_width_ = 0;     // widest feature index + 1

  std::vector<CodeNode> code_nodes_;        // empty: threshold sweep only
  std::vector<double> cuts_;                // CSR threshold grid by feature
  std::vector<std::uint32_t> cut_offsets_;  // size n_features + 1
  bool codes_scaled_ = false;
};

}  // namespace drlhmd::ml
