// Bit-level exactness of nn::Network's Adam.  The library's Adam runs two
// doubles per instruction and skips the arithmetic of first moments stuck on
// beta1's subnormal fixed points; the tests below train it side by side with
// a scalar reference written here in the textbook operation order, and
// demand identical bits after every compared step.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "ml/matrix.hpp"
#include "ml/nn.hpp"
#include "rl/a2c.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace drlhmd {
namespace {

using ml::Matrix;
namespace nn = ml::nn;

constexpr double kTiny = std::numeric_limits<double>::denorm_min();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Index of the first element whose bits differ, or -1 when all match.
long first_difference(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (bits(a.flat()[i]) != bits(b.flat()[i])) return static_cast<long>(i);
  return -1;
}

/// What the reference saw about tiny first moments, one entry per scalar
/// update.
struct AdamCensus {
  /// g == 0 and 0 < |m| <= 6 * 2^-1074: count per signed multiple m / 2^-1074.
  std::map<long, long> tiny_moments;
  long stuck = 0;          // g == 0, m != 0 and beta1 * m == m
  long revived = 0;        // g != 0 while m sat on a fixed point
  long tiny_p_moved = 0;   // g == 0, 0 < |m| <= 6 * 2^-1074, p changed
  long zero_p_moved = 0;   // p was +0 or -0 and its bits changed
};

/// Scalar Adam in the operation order the library has always used.
void reference_adam(Matrix& param, const Matrix& grad, Matrix& m, Matrix& v,
                    double lr, double beta1, double beta2, double eps,
                    std::uint64_t t, AdamCensus* census = nullptr) {
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  for (std::size_t i = 0; i < param.size(); ++i) {
    double& p = param.flat()[i];
    double& mi = m.flat()[i];
    double& vi = v.flat()[i];
    const double g = grad.flat()[i];
    const double p_before = p, m_before = mi;
    const bool fixed = mi != 0.0 && beta1 * mi == mi;
    const bool tiny = g == 0.0 && mi != 0.0 && std::fabs(mi) <= 6.0 * kTiny;

    mi = beta1 * mi + (1.0 - beta1) * g;
    vi = beta2 * vi + (1.0 - beta2) * g * g;
    const double m_hat = mi / bc1;
    const double v_hat = vi / bc2;
    p -= lr * m_hat / (std::sqrt(v_hat) + eps);

    if (census == nullptr) continue;
    const bool p_moved = bits(p) != bits(p_before);
    if (tiny) {
      ++census->tiny_moments[std::lround(m_before / kTiny)];
      if (p_moved) ++census->tiny_p_moved;
    }
    if (g == 0.0 && fixed) ++census->stuck;
    if (g != 0.0 && fixed) ++census->revived;
    if (p_before == 0.0 && p_moved) ++census->zero_p_moved;
  }
}

std::unique_ptr<nn::Dense> dense_from(const Matrix& w, const Matrix& b) {
  util::ByteWriter out;
  for (const Matrix* mat : {&w, &b}) {
    out.write_u64(mat->rows());
    out.write_u64(mat->cols());
    out.write_f64_vec(mat->flat());
  }
  const std::vector<std::uint8_t> bytes = out.take();
  util::ByteReader in(bytes);
  return nn::Dense::deserialize(in);
}

const nn::Dense& dense_at(const nn::Network& net, std::size_t i) {
  return dynamic_cast<const nn::Dense&>(net.layer(i));
}

// The derived set is pinned here rather than through the weights: a moment
// frozen at 6 * 2^-1074 for beta1 = 0.9 would never show in them, because
// beta1 times 6 or 5 units both round to 5 units.
TEST(AdamTest, StuckSetIsBeta1FixedPoints) {
  for (const double beta1 : {0.9, 0.5, 0.75, 0.99, 0.999, 0.3}) {
    const nn::AdamStep step = nn::AdamStep::at(1e-3, beta1, 0.999, 1e-8, 7);
    const double k_max = step.stuck_m / kTiny;
    ASSERT_EQ(k_max, std::floor(k_max)) << "beta1 " << beta1;
    for (double k = 1.0; k <= k_max + 3.0; k += 1.0) {
      const double m = k * kTiny;
      EXPECT_EQ(beta1 * m == m, k <= k_max) << "beta1 " << beta1 << " k " << k;
      EXPECT_EQ(beta1 * -m == -m, k <= k_max) << "beta1 " << beta1 << " k " << -k;
    }
  }
  EXPECT_EQ(nn::AdamStep::at(1e-3, 0.9, 0.999, 1e-8, 1).stuck_m, 5.0 * kTiny);
  EXPECT_EQ(nn::AdamStep::at(1e-3, 0.5, 0.999, 1e-8, 1).stuck_m, 0.0);
  EXPECT_EQ(nn::AdamStep::at(1e-3, 0.75, 0.999, 1e-8, 1).stuck_m, 2.0 * kTiny);
  // No fast path without a positive eps (the step bound needs it).
  EXPECT_TRUE(std::isinf(nn::AdamStep::at(1e-3, 0.9, 0.999, 0.0, 3).exact_p));
}

// One Dense layer, 2 inputs x 72 outputs, trained on two-row batches whose
// rows are negatives of each other, so the bias gradient is exactly 0 and
// the bias never moves.  Input 0 drives row 0 of W through normal training
// and then 7,600 zero-gradient steps, long enough for its first moments to
// decay through the subnormal range onto beta1's fixed points.  Input 1 is
// 0 except at two injection steps, where it is 64 * 2^-1074: that writes a
// chosen tiny first moment k * 2^-1074 (k = +-1..+-6) into each column of
// row 1 and leaves v at 0, and a second injection adds 2^-1074 to a stuck
// moment (revival).  Row 1's weights are built in: 0.75, -1e-100, 2^-1000,
// a subnormal, +0 and -0, one per k.  After the first injection the learning
// rate cycles 1e-3, 1e200, 0, 1e10, so a stuck moment's step is sometimes
// far below half an ulp of p (the fast path may fire) and sometimes large
// enough to move a small p (it must not).
AdamCensus run_probe(double beta1, std::uint64_t seed) {
  constexpr std::size_t kPerP = 12;
  constexpr double kKs[kPerP] = {1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6};
  const std::vector<double> ps = {0.75, -1e-100, 0x1p-1000, 1e-310, 0.0, -0.0};
  const std::size_t cols = kPerP * ps.size();
  constexpr std::uint64_t kActive = 64, kInject1 = 7700, kInject2 = 8200,
                          kRevive = 8600, kSteps = 8800;
  constexpr double kLrCycle[4] = {1e-3, 1e200, 0.0, 1e10};
  constexpr double kBeta2 = 0.999, kEps = 1e-8;

  util::Rng rng(seed);
  Matrix w(2, cols), b(1, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    w.at(0, j) = rng.normal();
    w.at(1, j) = ps[j / kPerP];
  }
  nn::Network net;
  net.add(dense_from(w, b));
  Matrix mw(2, cols), vw(2, cols), mb(1, cols), vb(1, cols);
  AdamCensus census;

  // Per-column gradient target: 64 * dY rounds to the integer c, and the
  // two rows contribute 2c * 2^-1074 to the gradient of row 1, so
  // (1 - beta1) * g lands exactly on k * 2^-1074.
  const auto inject = [&](Matrix& x, Matrix& target, auto k_of) {
    x.at(0, 1) = 64.0 * kTiny;
    x.at(1, 1) = -64.0 * kTiny;
    for (std::size_t j = 0; j < cols; ++j) {
      const double c = static_cast<double>(
          std::lround(k_of(j) / (2.0 * (1.0 - beta1))));
      const double e = (c + 0.25) * static_cast<double>(cols) / 64.0;
      target.at(0, j) = -e;
      target.at(1, j) = e;
    }
  };

  for (std::uint64_t s = 0; s < kSteps; ++s) {
    Matrix x(2, 2), target(2, cols);
    double lr = 1e-3;
    if (s < kActive || s == kRevive) {
      const double a = s == kRevive ? 1.0 : rng.normal();
      x.at(0, 0) = a;
      x.at(1, 0) = -a;
      for (std::size_t j = 0; j < cols; ++j) {
        const double tau = rng.normal();
        target.at(0, j) = tau;
        target.at(1, j) = -tau;
      }
    } else if (s == kInject1) {
      inject(x, target, [&](std::size_t j) { return kKs[j % kPerP]; });
    } else if (s == kInject2) {
      inject(x, target, [](std::size_t) { return 1.0; });
    } else if (s > kInject1) {
      lr = kLrCycle[(s - kInject1 - 1) % 4];
    }

    // Library step.
    const Matrix out = net.forward(x);
    net.backward(nn::mse_loss(out, target).grad);
    net.adam_step(lr, beta1, kBeta2, kEps);

    // Reference step: forward as Dense::forward, gradients into zeroed
    // buffers, scalar Adam.
    Matrix ref_out = x.matmul(w);
    ref_out.add_row_broadcast(b);
    const Matrix d_out = nn::mse_loss(ref_out, target).grad;
    Matrix gw(2, cols), gb(1, cols);
    gw += x.transpose_matmul(d_out);
    gb += d_out.column_sums();
    reference_adam(w, gw, mw, vw, lr, beta1, kBeta2, kEps, s + 1, &census);
    reference_adam(b, gb, mb, vb, lr, beta1, kBeta2, kEps, s + 1, &census);

    const nn::Dense& layer = dense_at(net, 0);
    const long dw = first_difference(layer.weights(), w);
    const long db = first_difference(layer.bias(), b);
    if (dw >= 0 || db >= 0) {
      ADD_FAILURE() << "beta1 " << beta1 << ": step " << s + 1
                    << " diverges from the reference at "
                    << (dw >= 0 ? "W[" + std::to_string(dw) + "]"
                                : "b[" + std::to_string(db) + "]");
      break;
    }
  }
  return census;
}

TEST(AdamTest, SubnormalFixedPointMatchesReference) {
  const AdamCensus c = run_probe(0.9, 3);
  // Every stuck multiple 1..5 of 2^-1074, both signs, and the transient 6
  // (beta1 * 6 * 2^-1074 rounds to 5 * 2^-1074) went through Adam.
  for (long k = 1; k <= 6; ++k) {
    EXPECT_GT(c.tiny_moments.count(k), 0u) << "k " << k;
    EXPECT_GT(c.tiny_moments.count(-k), 0u) << "k -" << k;
  }
  EXPECT_GT(c.stuck, 1000);       // row 0 decayed onto the fixed points
  EXPECT_GT(c.revived, 0);        // and came back
  EXPECT_GT(c.tiny_p_moved, 0);   // small |p|: the stuck step was visible
  EXPECT_GT(c.zero_p_moved, 0);   // p = +-0 changed bits

  // beta1 = 0.5 has no subnormal fixed point: every tiny moment decays.
  const AdamCensus half = run_probe(0.5, 4);
  EXPECT_EQ(half.stuck, 0);
  for (long k = 1; k <= 5; ++k) {
    EXPECT_GT(half.tiny_moments.count(k), 0u) << "k " << k;
    EXPECT_GT(half.tiny_moments.count(-k), 0u) << "k -" << k;
  }
  EXPECT_GT(half.tiny_p_moved, 0);
}

/// The A2C update as it has always been written: Matrix forward through
/// Dense/ReLU layers, per-layer gradients via transpose_matmul into zeroed
/// buffers, and scalar Adam.
class ReferenceMlp {
 public:
  explicit ReferenceMlp(const nn::Network& net) {
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      if (net.layer(i).kind() != "dense") continue;
      const nn::Dense& d = dense_at(net, i);
      w_.push_back(d.weights());
      b_.push_back(d.bias());
      mw_.emplace_back(d.weights().rows(), d.weights().cols());
      vw_.emplace_back(d.weights().rows(), d.weights().cols());
      mb_.emplace_back(1, d.bias().cols());
      vb_.emplace_back(1, d.bias().cols());
    }
  }

  Matrix forward(const Matrix& x) {
    inputs_.clear();
    pre_.clear();
    Matrix a = x;
    for (std::size_t l = 0; l < w_.size(); ++l) {
      inputs_.push_back(a);
      Matrix z = a.matmul(w_[l]);
      z.add_row_broadcast(b_[l]);
      if (l + 1 < w_.size()) {
        pre_.push_back(z);
        for (double& e : z.flat()) e = e > 0.0 ? e : 0.0;
      }
      a = z;
    }
    return a;
  }

  void backward_and_step(Matrix grad, double lr, AdamCensus* census) {
    std::vector<Matrix> gw(w_.size()), gb(w_.size());
    for (std::size_t l = w_.size(); l-- > 0;) {
      gw[l] = Matrix(w_[l].rows(), w_[l].cols());
      gw[l] += inputs_[l].transpose_matmul(grad);
      gb[l] = Matrix(1, b_[l].cols());
      gb[l] += grad.column_sums();
      if (l == 0) break;
      grad = grad.matmul_transpose(w_[l]);
      for (std::size_t i = 0; i < grad.size(); ++i)
        if (pre_[l - 1].flat()[i] <= 0.0) grad.flat()[i] = 0.0;
    }
    ++t_;
    for (std::size_t l = 0; l < w_.size(); ++l) {
      reference_adam(w_[l], gw[l], mw_[l], vw_[l], lr, 0.9, 0.999, 1e-8, t_,
                     census);
      reference_adam(b_[l], gb[l], mb_[l], vb_[l], lr, 0.9, 0.999, 1e-8, t_,
                     census);
    }
  }

  /// First layer whose weights or bias differ from `net`'s, or -1.
  long first_mismatch(const nn::Network& net) const {
    std::size_t l = 0;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      if (net.layer(i).kind() != "dense") continue;
      const nn::Dense& d = dense_at(net, i);
      if (first_difference(d.weights(), w_[l]) >= 0 ||
          first_difference(d.bias(), b_[l]) >= 0)
        return static_cast<long>(l);
      ++l;
    }
    return -1;
  }

 private:
  std::vector<Matrix> w_, b_, mw_, vw_, mb_, vb_;
  std::vector<Matrix> inputs_, pre_;
  std::uint64_t t_ = 0;
};

TEST(A2CTest, TrainingMatchesParentReference) {
  constexpr std::size_t kObs = 5, kActions = 3, kPinned = 3;
  constexpr std::size_t kPinFrom = 200, kSteps = 9000;
  rl::A2CConfig config;
  config.hidden = {16, 16};
  config.seed = 19;
  rl::A2C agent(kObs, kActions, config);
  ReferenceMlp actor(agent.actor()), critic(agent.critic());
  AdamCensus census;
  util::Rng rng(23);

  for (std::size_t s = 1; s <= kSteps; ++s) {
    std::vector<double> obs(kObs);
    for (double& o : obs) o = rng.normal();
    if (s > kPinFrom) obs[kPinned] = 0.0;
    const auto action =
        static_cast<std::size_t>(rng.uniform_int(0, kActions - 1));
    const double reward = rng.normal();
    const double next_value = rng.normal();
    const bool done = rng.bernoulli(0.5);

    agent.update(obs, action, reward, next_value, done);

    // Reference: A2C::update's critic and actor losses, step for step.
    const Matrix x = Matrix::row_vector(obs);
    const double td_target = reward + (done ? 0.0 : config.gamma * next_value);
    const Matrix v = critic.forward(x);
    Matrix target(1, 1);
    target.at(0, 0) = td_target;
    critic.backward_and_step(nn::mse_loss(v, target).grad, config.critic_lr,
                             &census);
    const double advantage = td_target - v.at(0, 0);
    const Matrix probs = nn::softmax(actor.forward(x));
    Matrix grad(1, kActions);
    for (std::size_t j = 0; j < kActions; ++j) {
      const double p = probs.at(0, j);
      const double onehot = (j == action) ? 1.0 : 0.0;
      grad.at(0, j) = advantage * (p - onehot);
      double entropy_term = std::log(std::max(p, 1e-12)) + 1.0;
      double expectation = 0.0;
      for (std::size_t k = 0; k < kActions; ++k) {
        const double pk = probs.at(0, k);
        expectation += pk * (std::log(std::max(pk, 1e-12)) + 1.0);
      }
      grad.at(0, j) += config.entropy_bonus * p * (entropy_term - expectation);
    }
    actor.backward_and_step(grad, config.actor_lr, &census);

    if (s % 1000 == 0 || s == kSteps) {
      ASSERT_EQ(critic.first_mismatch(agent.critic()), -1) << "step " << s;
      ASSERT_EQ(actor.first_mismatch(agent.actor()), -1) << "step " << s;
    }
  }
  // The pinned column's first-layer weights reached the stuck regime.
  EXPECT_GT(census.stuck, 0);
}

}  // namespace
}  // namespace drlhmd
