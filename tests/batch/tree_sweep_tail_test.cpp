// Tree-sweep tail coverage: each tree model's batch path (the cut-code
// sweep for RF/GBDT, the threshold sweep for DT) must be bit-for-bit
// identical to the row path at every size from 1 to 17 (partial 16-lane
// blocks) and at and past the 1024-row code tile, over non-zero BatchView
// offsets, and in the presence of NaN/inf values (which `v <= threshold`
// routes right/right/left respectively).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
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

/// Every batch size up to one past the 16-lane block (a lone row takes
/// the 1-row walk), and sizes at and past the cut-code sweep's 1024-row
/// tile.
const std::size_t kTailSizes[] = {1,  2,  3,  4,  5,  6,  7,    8,    9,   10,
                                  11, 12, 13, 14, 15, 16, 17, 1024, 1025, 2049};

template <typename Model>
void expect_tail_parity(const Model& model, const ml::Dataset& pool,
                        const char* what) {
  for (const std::size_t size : kTailSizes) {
    // Offset 0 and a deliberately odd non-zero base: the slice's column
    // pointers then start mid-storage, which is what the runtime's
    // mid-batch re-score path produces.
    for (const std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
      ASSERT_LE(offset + size, pool.size());
      const ml::BatchView view = pool.X.view().rows_slice(offset, size);
      std::vector<double> batch(size);
      model.predict_proba_batch(view, batch);
      for (std::size_t i = 0; i < size; ++i) {
        const double row = model.predict_proba(pool.row_copy(offset + i));
        EXPECT_TRUE(same_bits(row, batch[i]))
            << what << ": size " << size << " offset " << offset << " row "
            << i << " batch=" << batch[i] << " row-path=" << row;
      }
    }
  }
}

TEST(FlatNodeTail, PartialBlocksMatchScalarPath) {
  const ml::Dataset train = blobs(150, 1.5, 71);
  const ml::Dataset pool = blobs(1100, 1.5, 73);

  ml::DecisionTree tree;
  tree.fit(train);
  expect_tail_parity(tree, pool, "DT");

  ml::RandomForest forest;
  forest.fit(train);
  expect_tail_parity(forest, pool, "RF");

  ml::Gbdt gbdt;
  gbdt.fit(train);
  expect_tail_parity(gbdt, pool, "LightGBM");
}

TEST(FlatNodeTail, NanAndInfMatchScalarPathBitForBit) {
  const ml::Dataset train = blobs(150, 1.5, 79);
  ml::Dataset pool = blobs(1100, 1.5, 83);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double special = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
    pool.X.mutable_view().col(i % 4)[i] = special;
  }

  ml::DecisionTree tree;
  tree.fit(train);
  expect_tail_parity(tree, pool, "DT NaN/inf");

  ml::RandomForest forest;
  forest.fit(train);
  expect_tail_parity(forest, pool, "RF NaN/inf");

  ml::Gbdt gbdt;
  gbdt.fit(train);
  expect_tail_parity(gbdt, pool, "LightGBM NaN/inf");
}

}  // namespace
}  // namespace drlhmd
