// Tree-engine parity: the cut-code sweep, the threshold sweep and the row
// path of every tree model agree bit for bit.
//
// The engine (ml::ForestKernel, DESIGN.md §12) stores double leaves and
// sums them tree by tree, so a sweep that reaches the same leaves yields
// the same bits.  The cut-code sweep's integer compares reproduce
// `v <= threshold` decision for decision — NaN and +inf go right, -inf
// goes left, exact threshold hits go left — so it must match the threshold
// sweep exactly.  Each model's batch path is checked against its row path
// (a 1-row threshold sweep) and against the engine's two sweeps directly,
// on offset slices and on special values (tree_sweep_tail_test covers the
// lane and tile boundaries).
// The last test crafts an ensemble over the cut-code budget and checks the
// threshold-sweep fallback the same way.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace drlhmd {
namespace {

ml::Dataset blobs(std::size_t n_per_class, double gap, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::Dataset d;
  for (std::size_t i = 0; i < n_per_class; ++i) {
    std::vector<double> benign(4), malware(4);
    for (std::size_t c = 0; c < 4; ++c) {
      benign[c] = rng.normal(0.0, 1.0);
      malware[c] = rng.normal(gap, 1.0);
    }
    d.push(std::move(benign), 0);
    d.push(std::move(malware), 1);
  }
  d.shuffle(rng);
  return d;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_bits(const std::vector<double>& expected,
                      const std::vector<double>& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_TRUE(same_bits(expected[i], actual[i]))
        << what << ": row " << i << " expected=" << expected[i]
        << " actual=" << actual[i];
}

const std::vector<std::size_t> kWidths = {1, 2, 8};

/// The model's batch path against its row path, and the engine's threshold
/// sweep against its cut-code sweep (when built), all compared bitwise.
template <typename Model>
void expect_engine_parity(const Model& model, ml::BatchView view,
                          const char* what) {
  const std::size_t n = view.rows();
  std::vector<double> batch(n), rows(n), row(view.cols());
  model.predict_proba_batch(view, batch);
  for (std::size_t r = 0; r < n; ++r) {
    view.gather_row(r, row);
    rows[r] = model.predict_proba(row);
  }
  expect_same_bits(rows, batch, what);

  const ml::ForestKernel& engine = model.kernel();
  std::vector<double> thresholds(n, 0.0);
  engine.accumulate_thresholds(view, thresholds);
  if (engine.cut_codes()) {
    std::vector<double> codes(n, 0.0);
    engine.accumulate_codes(view, codes);
    expect_same_bits(thresholds, codes, what);
  }
}

/// Rows carrying every threshold the engine uses (exact hits), their
/// neighbours one ulp either side, ±0.0, denormals, NaN and ±inf.
ml::Dataset special_probe(const ml::ForestKernel& engine, std::size_t width) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {
      0.0, -0.0, denorm, -denorm, 1000 * denorm,
      std::numeric_limits<double>::quiet_NaN(), inf, -inf,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest()};
  for (std::size_t t = 0; t < engine.tree_count(); ++t)
    for (const ml::TreeNode& node : engine.tree(t))
      if (!node.leaf()) {
        values.push_back(node.threshold);
        values.push_back(std::nextafter(node.threshold, inf));
        values.push_back(std::nextafter(node.threshold, -inf));
      }
  ml::Dataset probe;
  util::Rng rng(5);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::vector<double> x(width);
    // Special value in one column, the rest drawn from the value pool too.
    for (std::size_t c = 0; c < width; ++c)
      x[c] = values[rng.next_below(values.size())];
    x[i % width] = values[i];
    probe.push(std::move(x), 0);
  }
  return probe;
}

class KernelParity : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(saved_); }

 private:
  std::size_t saved_ = util::parallel_thread_count();
};

TEST_F(KernelParity, DecisionTreeKernelIsFloatRoundedExact) {
  ml::DecisionTree tree;
  tree.fit(blobs(150, 1.5, 17));
  // A lone tree stays on the threshold sweep: no cut grid is built.
  EXPECT_FALSE(tree.kernel().cut_codes());
  EXPECT_EQ(tree.kernel().tree_count(), 1u);
  const ml::Dataset test = blobs(101, 1.5, 91);  // odd count: partial block
  expect_engine_parity(tree, test.view(), "DT");
}

TEST_F(KernelParity, RandomForestFastMatchesExact) {
  ml::RandomForest forest;
  forest.fit(blobs(150, 1.5, 17));
  ASSERT_TRUE(forest.kernel().cut_codes());
  EXPECT_EQ(forest.kernel().tree_count(), forest.tree_count());
  const ml::Dataset test = blobs(101, 1.5, 91);
  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    expect_engine_parity(forest, test.view(), "RF");
  }
}

TEST_F(KernelParity, GbdtFastMatchesExact) {
  ml::Gbdt gbdt;
  gbdt.fit(blobs(150, 1.5, 17));
  ASSERT_TRUE(gbdt.kernel().cut_codes());
  const ml::Dataset test = blobs(101, 1.5, 91);
  std::vector<double> raw(test.size());
  gbdt.raw_score_batch(test.view(), raw);
  for (std::size_t i = 0; i < test.size(); ++i)
    EXPECT_TRUE(same_bits(raw[i], gbdt.raw_score(test.row_copy(i))))
        << "row " << i;
  for (const std::size_t width : kWidths) {
    util::set_parallel_threads(width);
    expect_engine_parity(gbdt, test.view(), "LightGBM");
  }
}

TEST_F(KernelParity, OffsetSlicesMatchExactPath) {
  const ml::Dataset train = blobs(120, 1.5, 23);
  ml::DecisionTree tree;
  ml::RandomForest forest;
  ml::Gbdt gbdt;
  tree.fit(train);
  forest.fit(train);
  gbdt.fit(train);
  const ml::Dataset test = blobs(80, 1.5, 29);

  const struct {
    std::size_t begin, count;
  } slices[] = {{0, 37}, {1, 64}, {33, 127}, {159, 1}, {7, 0}};
  for (const auto& s : slices) {
    const ml::BatchView view = test.view().rows_slice(s.begin, s.count);
    expect_engine_parity(tree, view, "DT slice");
    expect_engine_parity(forest, view, "RF slice");
    expect_engine_parity(gbdt, view, "LightGBM slice");
  }
}

TEST_F(KernelParity, NanAndInfReachTheSameLeaf) {
  const ml::Dataset train = blobs(150, 1.5, 41);
  ml::DecisionTree tree;
  ml::RandomForest forest;
  ml::Gbdt gbdt;
  tree.fit(train);
  forest.fit(train);
  gbdt.fit(train);

  // Every row carries a NaN or +/-inf in some column (NaN and +inf go
  // right, -inf goes left).
  ml::Dataset probe = blobs(40, 1.5, 43);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const double special = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
    probe.X.mutable_view().col(i % 4)[i] = special;
  }
  expect_engine_parity(tree, probe.view(), "DT NaN/inf");
  expect_engine_parity(forest, probe.view(), "RF NaN/inf");
  expect_engine_parity(gbdt, probe.view(), "LightGBM NaN/inf");
}

TEST_F(KernelParity, ThresholdHitsAndDenormalsReachTheSameLeaf) {
  const ml::Dataset train = blobs(150, 1.5, 47);
  ml::DecisionTree tree;
  ml::RandomForest forest;
  ml::Gbdt gbdt;
  tree.fit(train);
  forest.fit(train);
  gbdt.fit(train);
  expect_engine_parity(tree, special_probe(tree.kernel(), 4).view(),
                       "DT specials");
  expect_engine_parity(forest, special_probe(forest.kernel(), 4).view(),
                       "RF specials");
  expect_engine_parity(gbdt, special_probe(gbdt.kernel(), 4).view(),
                       "LightGBM specials");
}

TEST_F(KernelParity, KernelSurvivesSerializationRoundtrip) {
  ml::RandomForest forest;
  forest.fit(blobs(100, 1.5, 59));
  const std::vector<std::uint8_t> bytes = forest.serialize();
  const ml::RandomForest copy = ml::RandomForest::deserialize(bytes);
  EXPECT_EQ(copy.serialize(), bytes);  // trainer node order survives
  ASSERT_TRUE(copy.kernel().cut_codes());

  const ml::Dataset test = blobs(50, 1.5, 61);
  std::vector<double> original(test.size()), restored(test.size());
  forest.predict_proba_batch(test.view(), original);
  copy.predict_proba_batch(test.view(), restored);
  expect_same_bits(original, restored, "RF roundtrip");
}

// --- over-budget fallback ---------------------------------------------

/// Balanced tree of the given depth on feature 0 in heap order (node i has
/// children 2i+1 and 2i+2); thresholds are the in-order ranks, so every
/// internal node has a distinct threshold, and leaves carry distinct values.
ml::Tree balanced_tree(std::uint32_t depth) {
  const std::uint32_t internal = (1u << depth) - 1;
  ml::Tree tree(2 * static_cast<std::size_t>(internal) + 1);
  double rank = 0.0;
  // Iterative in-order walk over the internal nodes.
  std::vector<std::uint32_t> stack;
  std::uint32_t i = 0;
  while (i < internal || !stack.empty()) {
    for (; i < internal; i = 2 * i + 1) stack.push_back(i);
    i = stack.back();
    stack.pop_back();
    tree[i].feature = 0;
    tree[i].threshold = rank++;
    tree[i].left = 2 * i + 1;
    tree[i].right = 2 * i + 2;
    i = 2 * i + 2;
  }
  for (std::size_t k = internal; k < tree.size(); ++k)
    tree[k].value = 1.0 / static_cast<double>(k + 1);
  return tree;
}

TEST_F(KernelParity, OverBudgetGridFallsBackToThresholdSweep) {
  // 2^17 - 1 distinct thresholds on one feature: over kMaxCuts.
  const ml::Tree big = balanced_tree(17);
  ASSERT_GT((big.size() - 1) / 2, ml::ForestKernel::kMaxCuts);
  const ml::Tree stump = {ml::TreeNode{.value = 0.25}};

  const ml::DecisionTree tree =
      ml::DecisionTree::deserialize(ml::DecisionTree::write_tree(big));

  util::ByteWriter rf;
  rf.write_string("RF");
  rf.write_u8(1);
  rf.write_u64(2);
  rf.write_bytes(ml::DecisionTree::write_tree(big));
  rf.write_bytes(ml::DecisionTree::write_tree(stump));
  const ml::RandomForest forest = ml::RandomForest::deserialize(rf.take());

  util::ByteWriter gb;
  gb.write_string("GBDT");
  gb.write_u8(1);
  gb.write_f64(-0.5);
  gb.write_u64(2);
  for (const ml::Tree* t : {&big, &stump}) {
    gb.write_u64(t->size());
    for (const ml::TreeNode& n : *t) {
      gb.write_i64(n.leaf() ? -1 : static_cast<std::int64_t>(n.feature));
      gb.write_f64(n.threshold);
      gb.write_i64(n.left);
      gb.write_i64(n.right);
      gb.write_f64(n.value);
    }
  }
  const ml::Gbdt gbdt = ml::Gbdt::deserialize(gb.take());

  EXPECT_FALSE(tree.kernel().cut_codes());
  EXPECT_FALSE(forest.kernel().cut_codes());
  EXPECT_FALSE(gbdt.kernel().cut_codes());
  EXPECT_EQ(tree.depth(), 18u);

  // Values spread over the whole threshold range, exact hits, half-way
  // points, and the specials.
  const double internal = static_cast<double>((big.size() - 1) / 2);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ml::Dataset pool;
  util::Rng rng(67);
  for (std::size_t i = 0; i < 1040; ++i) {
    double v = std::floor(rng.uniform() * (internal + 2.0)) - 1.0;
    if (i % 3 == 1) v += 0.5;
    if (i % 97 == 0) v = nan;
    if (i % 97 == 1) v = inf;
    if (i % 97 == 2) v = -inf;
    pool.push({v}, 0);
  }
  for (const std::size_t size : {1, 15, 16, 17, 1030}) {
    const ml::BatchView view = pool.view().rows_slice(5, size);
    expect_engine_parity(tree, view, "DT over budget");
    expect_engine_parity(forest, view, "RF over budget");
    expect_engine_parity(gbdt, view, "LightGBM over budget");
  }
}

}  // namespace
}  // namespace drlhmd
