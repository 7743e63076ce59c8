#include "ml/forest_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/arena.hpp"

namespace drlhmd::ml {
namespace {

// Rows per code tile: 4 features x 1024 codes = 8 KB of uint16 plus the
// source columns stay L1/L2-resident while every tree replays the tile.
// Also the compile-time stride of the feature-major code tile, so the hot
// loop's code address is one indexed load instead of a runtime multiply.
constexpr std::size_t kTile = 1024;
// Lockstep traversal lanes: up to 16 independent node->value load chains
// stay in flight instead of one per row.
constexpr std::size_t kLanes = 16;
// Cut-code leaf marker: no uint16 code exceeds it, so leaf lanes park.
constexpr std::uint16_t kLeafTq = 0xFFFF;

// Independent branchless binary searches advanced in lockstep by the
// encode stage.  One search is a latency-bound chain (every probe address
// depends on the previous compare), so interleaving kProbeLanes of them
// turns the encode from log2(n) serial round-trips per row into
// throughput-bound work shared across rows — the same trick the traversal
// plays with its node chains.
constexpr std::size_t kProbeLanes = 8;

// Branchless lower_bound: #{ cuts[i] < v }.  The comparison compiles to a
// conditional move, so random probe values cost log2(n) predictable steps
// instead of log2(n) mispredicted branches.  Requires n >= 1.  NaN
// compares false everywhere and returns 0; callers special-case it.
inline std::uint32_t count_below(const double* cuts, std::uint32_t n,
                                 double v) {
  const double* base = cuts;
  std::uint32_t len = n;
  while (len > 1) {
    const std::uint32_t half = len / 2;
    base += (base[half - 1] < v) ? half : 0;
    len -= half;
  }
  return static_cast<std::uint32_t>(base - cuts) +
         (base[0] < v ? 1u : 0u);
}

}  // namespace

void ForestKernel::build(const std::vector<Tree>& trees) {
  *this = ForestKernel{};
  std::size_t total = 0;
  for (const Tree& tree : trees) {
    if (tree.empty())
      throw std::invalid_argument("ForestKernel::build: empty tree");
    total += tree.size();
  }
  if (total >= TreeNode::kLeaf)
    throw std::invalid_argument("ForestKernel::build: too many nodes");
  nodes_.resize(total);
  values_.resize(total);
  source_.resize(total);
  roots_.reserve(trees.size());
  depths_.reserve(trees.size());

  std::vector<std::uint32_t> slot;
  std::vector<std::uint8_t> seen;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;  // (node, depth)
  std::uint32_t base = 0;
  for (const Tree& tree : trees) {
    // Walk from the root, giving each child pair adjacent slots in visit
    // order.  A child out of range, or one reached twice (a cycle or a
    // shared subtree), rejects the tree; so does a node never reached.
    const auto n = static_cast<std::uint32_t>(tree.size());
    slot.assign(n, 0);
    seen.assign(n, 0);
    seen[0] = 1;
    std::uint32_t next = 1;
    std::uint32_t depth = 0;
    stack.assign(1, {0, 0});
    while (!stack.empty()) {
      const auto [i, d] = stack.back();
      stack.pop_back();
      const TreeNode& node = tree[i];
      if (node.leaf()) {
        depth = std::max(depth, d);
        continue;
      }
      for (const std::uint32_t child : {node.left, node.right}) {
        if (child >= n)
          throw std::invalid_argument(
              "ForestKernel::build: child index out of range");
        if (seen[child] != 0)
          throw std::invalid_argument(
              "ForestKernel::build: node reached twice");
        seen[child] = 1;
      }
      slot[node.left] = next++;
      slot[node.right] = next++;
      stack.push_back({node.right, d + 1});
      stack.push_back({node.left, d + 1});
    }
    if (next != n)
      throw std::invalid_argument("ForestKernel::build: unreachable node");

    for (std::uint32_t i = 0; i < n; ++i) {
      const TreeNode& src = tree[i];
      const std::uint32_t e = base + slot[i];
      Node& dst = nodes_[e];
      dst.threshold = src.threshold;
      values_[e] = src.value;
      source_[e] = i;
      if (src.leaf()) {
        dst.kid[0] = dst.kid[1] = e;
        continue;
      }
      dst.feature = src.feature;
      dst.kid[0] = base + slot[src.left];
      dst.kid[1] = dst.kid[0] + 1;
      required_width_ = std::max(required_width_,
                                 static_cast<std::size_t>(src.feature) + 1);
    }
    roots_.push_back(base);
    depths_.push_back(depth);
    base += n;
  }
  build_codes();
}

void ForestKernel::build_codes() {
  // A lone tree never amortizes the per-tile encode: quantizing a row
  // costs one binary search per feature but serves one traversal.
  if (roots_.size() < 2) return;
  const std::size_t n_features = std::max<std::size_t>(required_width_, 1);
  if (n_features > 0xFFFF) return;  // feature index must fit the uint16 node

  std::vector<std::vector<double>> grid(n_features);
  for (std::size_t e = 0; e < nodes_.size(); ++e) {
    const Node& node = nodes_[e];
    if (node.kid[0] == e) continue;  // leaf
    if (std::isnan(node.threshold)) return;  // no place on a sorted grid
    grid[node.feature].push_back(node.threshold);
  }
  std::vector<double> cuts;
  std::vector<std::uint32_t> offsets{0};
  for (auto& g : grid) {
    std::sort(g.begin(), g.end());
    g.erase(std::unique(g.begin(), g.end()), g.end());
    if (g.size() > kMaxCuts) return;  // uint16 code budget exceeded
    cuts.insert(cuts.end(), g.begin(), g.end());
    offsets.push_back(static_cast<std::uint32_t>(cuts.size()));
  }
  cuts_ = std::move(cuts);
  cut_offsets_ = std::move(offsets);

  // feature * kTile + lane must fit the uint16 field: up to 64 features
  // at the 1024-row tile stride.
  codes_scaled_ = n_features * kTile <= 65536;
  code_nodes_.resize(nodes_.size());
  for (std::size_t e = 0; e < nodes_.size(); ++e) {
    const Node& node = nodes_[e];
    CodeNode& dst = code_nodes_[e];
    dst.left = node.kid[0];
    if (node.kid[0] == e) {
      dst.tq = kLeafTq;
      continue;
    }
    const double* begin = cuts_.data() + cut_offsets_[node.feature];
    const double* end = cuts_.data() + cut_offsets_[node.feature + 1];
    dst.tq = static_cast<std::uint16_t>(
        std::lower_bound(begin, end, node.threshold) - begin);
    dst.feature = static_cast<std::uint16_t>(
        codes_scaled_ ? node.feature * kTile : node.feature);
  }
}

Tree ForestKernel::tree(std::size_t t) const {
  const std::uint32_t begin = roots_[t];
  const std::size_t end =
      t + 1 < roots_.size() ? roots_[t + 1] : nodes_.size();
  Tree out(end - begin);
  for (std::uint32_t e = begin; e < end; ++e) {
    const Node& node = nodes_[e];
    TreeNode& dst = out[source_[e]];
    dst.threshold = node.threshold;
    dst.value = values_[e];
    if (node.kid[0] == e) continue;  // leaf
    dst.feature = node.feature;
    dst.left = source_[node.kid[0]];
    dst.right = source_[node.kid[1]];
  }
  return out;
}

void ForestKernel::check(BatchView batch, std::span<const double> out) const {
  if (out.size() != batch.rows())
    throw std::invalid_argument("ForestKernel: out size mismatch");
  if (batch.cols() < required_width_)
    throw std::invalid_argument("ForestKernel: feature width mismatch");
}

void ForestKernel::accumulate(BatchView batch, std::span<double> out) const {
  if (cut_codes())
    accumulate_codes(batch, out);
  else
    accumulate_thresholds(batch, out);
}

double ForestKernel::score_row(std::span<const double> row, double init) const {
  double total = init;
  accumulate_thresholds(BatchView(row.data(), 1, row.size(), 1), {&total, 1});
  return total;
}

// Tree-outer, lockstep block-inner: each lane's descent is a pure
// `idx = kid[v <= threshold ? 0 : 1]` with no data-dependent branch, and
// the trip count is the tree's fixed depth, so the branch predictor sees
// only counted loops.  `v <= threshold` sends NaN right.
void ForestKernel::accumulate_thresholds(BatchView batch,
                                         std::span<double> out) const {
  check(batch, out);
  const std::size_t rows = batch.rows();
  const double* const base = batch.col(0).data();
  const std::size_t stride = batch.stride();
  const Node* const nodes = nodes_.data();
  const double* const values = values_.data();
  if (rows == 1) {
    // A lone lane has nothing to wait for: it stops on its leaf (the
    // self-loop) instead of parking for the rest of the fixed depth, and
    // branches instead of selecting, so the next node load can start
    // before the compare resolves.
    double total = out[0];
    for (const std::uint32_t root : roots_) {
      std::uint32_t i = root;
      while (nodes[i].kid[0] != i) {
        const Node& n = nodes[i];
        i = base[n.feature * stride] <= n.threshold ? n.kid[0] : n.kid[1];
      }
      total += values[i];
    }
    out[0] = total;
    return;
  }
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const std::uint32_t root = roots_[t];
    const std::uint32_t depth = depths_[t];
    for (std::size_t r0 = 0; r0 < rows; r0 += kLanes) {
      const std::size_t count = std::min(kLanes, rows - r0);
      const double* const lane = base + r0;
      std::uint32_t idx[kLanes];
      for (std::size_t l = 0; l < count; ++l) idx[l] = root;
      if (count == kLanes) {
        for (std::uint32_t d = 0; d < depth; ++d) {
          for (std::size_t l = 0; l < kLanes; ++l) {
            const Node& n = nodes[idx[l]];
            idx[l] = n.kid[lane[n.feature * stride + l] <= n.threshold ? 0 : 1];
          }
        }
      } else {
        for (std::uint32_t d = 0; d < depth; ++d) {
          for (std::size_t l = 0; l < count; ++l) {
            const Node& n = nodes[idx[l]];
            idx[l] = n.kid[lane[n.feature * stride + l] <= n.threshold ? 0 : 1];
          }
        }
      }
      for (std::size_t l = 0; l < count; ++l) out[r0 + l] += values[idx[l]];
    }
  }
}

void ForestKernel::encode_tile(BatchView batch, std::size_t t0,
                               std::size_t tile, std::uint16_t* codes) const {
  const std::size_t n_features = cut_offsets_.size() - 1;
  for (std::size_t f = 0; f < n_features; ++f) {
    std::uint16_t* const crow = codes + f * kTile;
    const std::uint32_t n_cuts = cut_offsets_[f + 1] - cut_offsets_[f];
    if (n_cuts == 0) {  // feature unused by any split: lanes never branch on it
      std::fill(crow, crow + tile, std::uint16_t{0});
      continue;
    }
    const double* const cuts = cuts_.data() + cut_offsets_[f];
    const double* const col = batch.col(f).data() + t0;
    std::size_t r = 0;
    for (; r + kProbeLanes <= tile; r += kProbeLanes) {
      const double* probe[kProbeLanes];
      double v[kProbeLanes];
      for (std::size_t g = 0; g < kProbeLanes; ++g) {
        v[g] = col[r + g];
        probe[g] = cuts;
      }
      std::uint32_t len = n_cuts;
      while (len > 1) {
        const std::uint32_t half = len / 2;
        for (std::size_t g = 0; g < kProbeLanes; ++g)
          probe[g] += (probe[g][half - 1] < v[g]) ? half : 0;
        len -= half;
      }
      for (std::size_t g = 0; g < kProbeLanes; ++g) {
        const std::uint32_t code = static_cast<std::uint32_t>(probe[g] - cuts) +
                                   (probe[g][0] < v[g] ? 1u : 0u);
        // NaN compares false: always right, like v <= t.
        crow[r + g] = static_cast<std::uint16_t>(
            std::isnan(v[g]) ? kLeafTq : code);
      }
    }
    for (; r < tile; ++r) {
      const double v = col[r];
      crow[r] = static_cast<std::uint16_t>(
          std::isnan(v) ? kLeafTq : count_below(cuts, n_cuts, v));
    }
  }
}

namespace {

// Cut-code traversal of one tree over one code tile.  One step is
// load node -> load code -> compare -> select.  The 16 named lane indices
// stay register-resident — an array would force the compiler to spill each
// index to the stack between levels, roughly doubling the loads per step.
// kScaled: node features are pre-multiplied by the tile stride (<= 64
// features), so the code address is a single indexed load.
template <bool kScaled, typename CodeNode>
void sweep_codes(const CodeNode* nodes, const double* values,
                 std::uint32_t root, std::uint32_t depth,
                 const std::uint16_t* codes, std::size_t tile, double* out) {
  const auto at = [](const CodeNode& n) -> std::size_t {
    return kScaled ? n.feature : n.feature * kTile;
  };
  std::size_t r0 = 0;
  for (; r0 + kLanes <= tile; r0 += kLanes) {
    const std::uint16_t* const ctile = codes + r0;
    std::uint32_t i0 = root, i1 = root, i2 = root, i3 = root, i4 = root,
                  i5 = root, i6 = root, i7 = root, i8 = root, i9 = root,
                  i10 = root, i11 = root, i12 = root, i13 = root, i14 = root,
                  i15 = root;
    for (std::uint32_t d = 0; d < depth; ++d) {
#define DRLHMD_FK_LANE(k)                                    \
  {                                                          \
    const CodeNode n = nodes[i##k];                          \
    i##k = n.left + (ctile[at(n) + k] > n.tq ? 1u : 0u);     \
  }
      DRLHMD_FK_LANE(0) DRLHMD_FK_LANE(1) DRLHMD_FK_LANE(2)
      DRLHMD_FK_LANE(3) DRLHMD_FK_LANE(4) DRLHMD_FK_LANE(5)
      DRLHMD_FK_LANE(6) DRLHMD_FK_LANE(7) DRLHMD_FK_LANE(8)
      DRLHMD_FK_LANE(9) DRLHMD_FK_LANE(10) DRLHMD_FK_LANE(11)
      DRLHMD_FK_LANE(12) DRLHMD_FK_LANE(13) DRLHMD_FK_LANE(14)
      DRLHMD_FK_LANE(15)
#undef DRLHMD_FK_LANE
    }
    double* const o = out + r0;
    o[0] += values[i0];
    o[1] += values[i1];
    o[2] += values[i2];
    o[3] += values[i3];
    o[4] += values[i4];
    o[5] += values[i5];
    o[6] += values[i6];
    o[7] += values[i7];
    o[8] += values[i8];
    o[9] += values[i9];
    o[10] += values[i10];
    o[11] += values[i11];
    o[12] += values[i12];
    o[13] += values[i13];
    o[14] += values[i14];
    o[15] += values[i15];
  }
  if (r0 < tile) {  // partial-lane tail (last tile only)
    const std::size_t count = tile - r0;
    const std::uint16_t* const ctile = codes + r0;
    std::uint32_t idx[kLanes];
    for (std::size_t l = 0; l < count; ++l) idx[l] = root;
    for (std::uint32_t d = 0; d < depth; ++d) {
      for (std::size_t l = 0; l < count; ++l) {
        const CodeNode n = nodes[idx[l]];
        idx[l] = n.left + (ctile[at(n) + l] > n.tq ? 1u : 0u);
      }
    }
    for (std::size_t l = 0; l < count; ++l) out[r0 + l] += values[idx[l]];
  }
}

}  // namespace

void ForestKernel::accumulate_codes(BatchView batch,
                                    std::span<double> out) const {
  if (!cut_codes())
    throw std::logic_error("ForestKernel::accumulate_codes: no cut codes");
  check(batch, out);
  const std::size_t rows = batch.rows();
  if (rows == 0) return;
  const std::size_t n_features = cut_offsets_.size() - 1;
  util::ArenaScope scope(util::scratch_arena());
  auto codes = scope.alloc<std::uint16_t>(n_features * kTile);

  const CodeNode* const nodes = code_nodes_.data();
  const double* const values = values_.data();
  for (std::size_t t0 = 0; t0 < rows; t0 += kTile) {
    const std::size_t tile = std::min(kTile, rows - t0);
    encode_tile(batch, t0, tile, codes.data());
    // Tree loop outside the lane loop keeps each tree's node span
    // streaming through cache once per tile.
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      if (codes_scaled_)
        sweep_codes<true>(nodes, values, roots_[t], depths_[t], codes.data(),
                          tile, out.data() + t0);
      else
        sweep_codes<false>(nodes, values, roots_[t], depths_[t], codes.data(),
                           tile, out.data() + t0);
    }
  }
}

}  // namespace drlhmd::ml
