// Corrupt tree artifacts: every tree deserializer rejects bad node counts
// and bad structure with std::invalid_argument — before allocating for a
// count the input cannot hold, and before any traversal walks a broken
// tree.  Checkpoint resume loads classifiers before the vault digest check,
// so this is the line that keeps tampered bytes from crashing the loader.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"

namespace drlhmd {
namespace {

/// Root splitting on feature 0 into two leaves, in trainer order.
ml::Tree stump_split() {
  ml::Tree tree(3);
  tree[0].feature = 0;
  tree[0].threshold = 0.5;
  tree[0].left = 1;
  tree[0].right = 2;
  tree[1].value = 0.1;
  tree[2].value = 0.9;
  return tree;
}

std::vector<std::uint8_t> dt_bytes(const ml::Tree& tree) {
  return ml::DecisionTree::write_tree(tree);
}

std::vector<std::uint8_t> rf_bytes(const std::vector<ml::Tree>& trees) {
  util::ByteWriter w;
  w.write_string("RF");
  w.write_u8(1);
  w.write_u64(trees.size());
  for (const ml::Tree& tree : trees) w.write_bytes(dt_bytes(tree));
  return w.take();
}

struct GbdtNode {
  std::int64_t feature, left, right;
};

std::vector<std::uint8_t> gbdt_bytes(const std::vector<GbdtNode>& nodes) {
  util::ByteWriter w;
  w.write_string("GBDT");
  w.write_u8(1);
  w.write_f64(0.0);
  w.write_u64(1);
  w.write_u64(nodes.size());
  for (const GbdtNode& n : nodes) {
    w.write_i64(n.feature);
    w.write_f64(0.5);
    w.write_i64(n.left);
    w.write_i64(n.right);
    w.write_f64(0.25);
  }
  return w.take();
}

/// Header of a DT blob claiming `count` nodes, with no payload behind it.
std::vector<std::uint8_t> dt_header(std::uint64_t count) {
  util::ByteWriter w;
  w.write_string("DT");
  w.write_u8(1);
  w.write_u64(count);
  return w.take();
}

TEST(TreeBytes, ValidTreesRoundTrip) {
  const std::vector<std::uint8_t> dt = dt_bytes(stump_split());
  EXPECT_EQ(ml::DecisionTree::deserialize(dt).serialize(), dt);
  const std::vector<std::uint8_t> rf = rf_bytes({stump_split(), stump_split()});
  EXPECT_EQ(ml::RandomForest::deserialize(rf).serialize(), rf);
  const std::vector<std::uint8_t> gb =
      gbdt_bytes({{0, 1, 2}, {-1, 0, 0}, {-1, 0, 0}});
  EXPECT_EQ(ml::Gbdt::deserialize(gb).serialize(), gb);
}

TEST(TreeBytes, DecisionTreeRejectsBadChildIndices) {
  ml::Tree far = stump_split();
  far[0].right = 70000;  // past the end
  EXPECT_THROW(ml::DecisionTree::deserialize(dt_bytes(far)),
               std::invalid_argument);

  ml::Tree cycle = stump_split();
  cycle[0].right = 0;  // back to the root
  EXPECT_THROW(ml::DecisionTree::deserialize(dt_bytes(cycle)),
               std::invalid_argument);

  ml::Tree shared = stump_split();
  shared[0].right = 1;  // both children are node 1
  EXPECT_THROW(ml::DecisionTree::deserialize(dt_bytes(shared)),
               std::invalid_argument);

  ml::Tree orphan = stump_split();
  orphan[0].feature = ml::TreeNode::kLeaf;  // root leaf: nodes 1, 2 unreached
  EXPECT_THROW(ml::DecisionTree::deserialize(dt_bytes(orphan)),
               std::invalid_argument);

  ml::Tree loop(5);  // 0 -> (1, 2), 1 -> (3, 1): node 1 is its own child
  loop[0] = stump_split()[0];
  loop[1].feature = 0;
  loop[1].left = 3;
  loop[1].right = 1;
  EXPECT_THROW(ml::DecisionTree::deserialize(dt_bytes(loop)),
               std::invalid_argument);
}

TEST(TreeBytes, HugeCountsFailBeforeAllocating) {
  // 2^40 nodes would need 32 TiB; the input holds none.
  EXPECT_THROW(ml::DecisionTree::deserialize(dt_header(std::uint64_t{1} << 40)),
               std::invalid_argument);
  EXPECT_THROW(ml::DecisionTree::deserialize(dt_header(~std::uint64_t{0})),
               std::invalid_argument);

  util::ByteWriter rf;
  rf.write_string("RF");
  rf.write_u8(1);
  rf.write_u64(std::uint64_t{1} << 40);  // trees
  EXPECT_THROW(ml::RandomForest::deserialize(rf.take()), std::invalid_argument);

  util::ByteWriter gb;
  gb.write_string("GBDT");
  gb.write_u8(1);
  gb.write_f64(0.0);
  gb.write_u64(1);
  gb.write_u64(std::uint64_t{1} << 40);  // nodes of the one tree
  EXPECT_THROW(ml::Gbdt::deserialize(gb.take()), std::invalid_argument);
}

TEST(TreeBytes, RandomForestRejectsABadMember) {
  ml::Tree bad = stump_split();
  bad[0].left = 9;
  EXPECT_THROW(ml::RandomForest::deserialize(rf_bytes({stump_split(), bad})),
               std::invalid_argument);
  EXPECT_THROW(ml::RandomForest::deserialize(rf_bytes({stump_split(), {}})),
               std::invalid_argument);  // an empty member tree
}

TEST(TreeBytes, GbdtRejectsBadIndices) {
  EXPECT_THROW(ml::Gbdt::deserialize(gbdt_bytes({{0, 1, 70000}, {-1, 0, 0},
                                                 {-1, 0, 0}})),
               std::invalid_argument);
  EXPECT_THROW(ml::Gbdt::deserialize(gbdt_bytes({{0, -5, 2}, {-1, 0, 0},
                                                 {-1, 0, 0}})),
               std::invalid_argument);
  EXPECT_THROW(ml::Gbdt::deserialize(gbdt_bytes({{0, 0, 2}, {-1, 0, 0},
                                                 {-1, 0, 0}})),
               std::invalid_argument);  // cycle through the root
  EXPECT_THROW(ml::Gbdt::deserialize(gbdt_bytes({{-7, 1, 2}, {-1, 0, 0},
                                                 {-1, 0, 0}})),
               std::invalid_argument);  // feature below the leaf marker
  EXPECT_THROW(ml::Gbdt::deserialize(gbdt_bytes({{std::int64_t{1} << 33, 1, 2},
                                                 {-1, 0, 0}, {-1, 0, 0}})),
               std::invalid_argument);  // feature past uint32
  EXPECT_THROW(ml::Gbdt::deserialize(gbdt_bytes({})), std::invalid_argument);
}

}  // namespace
}  // namespace drlhmd
