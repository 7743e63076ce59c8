#include "ml/nn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

namespace drlhmd::ml::nn {
namespace {

/// Scalar test loss L = 0.5 * sum(out^2); dL/dout = out.
double scalar_loss(const Matrix& out) {
  double total = 0.0;
  for (double v : out.flat()) total += 0.5 * v * v;
  return total;
}

/// Central-difference check of dL/dInput for an arbitrary layer stack.
void check_input_gradient(Network& net, Matrix input, double tolerance = 1e-5) {
  const Matrix out = net.forward(input);
  Matrix grad_out = out;  // dL/dout for the scalar loss above
  const Matrix analytic = net.backward(grad_out);

  const double eps = 1e-5;
  for (std::size_t i = 0; i < input.size(); ++i) {
    Matrix plus = input, minus = input;
    plus.flat()[i] += eps;
    minus.flat()[i] -= eps;
    const double numeric =
        (scalar_loss(net.forward(plus)) - scalar_loss(net.forward(minus))) /
        (2.0 * eps);
    EXPECT_NEAR(analytic.flat()[i], numeric, tolerance)
        << "gradient mismatch at input index " << i;
  }
}

TEST(DenseTest, ForwardComputesAffine) {
  util::Rng rng(1);
  Dense layer(2, 2, rng);
  const Matrix x = Matrix::from_rows({{1.0, 2.0}});
  const Matrix out = layer.forward(x);
  const Matrix& w = layer.weights();
  const Matrix& b = layer.bias();
  EXPECT_NEAR(out(0, 0), 1.0 * w(0, 0) + 2.0 * w(1, 0) + b(0, 0), 1e-12);
  EXPECT_NEAR(out(0, 1), 1.0 * w(0, 1) + 2.0 * w(1, 1) + b(0, 1), 1e-12);
}

TEST(DenseTest, InputGradientMatchesFiniteDifference) {
  util::Rng rng(2);
  Network net;
  net.add(std::make_unique<Dense>(4, 3, rng));
  check_input_gradient(net, Matrix::randn(2, 4, 1.0, rng));
}

TEST(ReluTest, ForwardZeroesNegatives) {
  Relu relu;
  const Matrix x = Matrix::from_rows({{-1.0, 0.0, 2.0}});
  const Matrix out = relu.forward(x);
  EXPECT_EQ(out(0, 0), 0.0);
  EXPECT_EQ(out(0, 1), 0.0);
  EXPECT_EQ(out(0, 2), 2.0);
}

TEST(ReluTest, BackwardMasksGradient) {
  Relu relu;
  const Matrix x = Matrix::from_rows({{-1.0, 3.0}});
  relu.forward(x);
  const Matrix g = Matrix::from_rows({{5.0, 7.0}});
  const Matrix gin = relu.backward(g);
  EXPECT_EQ(gin(0, 0), 0.0);
  EXPECT_EQ(gin(0, 1), 7.0);
}

TEST(MlpGradientTest, DeepStackGradientMatchesFiniteDifference) {
  util::Rng rng(3);
  Network net = make_mlp(5, {8, 8}, 3, rng);
  // Keep inputs away from ReLU kinks for a clean finite-difference check.
  Matrix input = Matrix::randn(2, 5, 1.0, rng);
  check_input_gradient(net, input, 1e-4);
}

TEST(Conv1DTest, OutputShape) {
  util::Rng rng(4);
  Conv1D conv(2, 3, 6, 2, rng);
  EXPECT_EQ(conv.out_length(), 5u);
  EXPECT_EQ(conv.out_width(), 15u);
  const Matrix x = Matrix::randn(3, 12, 1.0, rng);
  const Matrix out = conv.forward(x);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 15u);
}

TEST(Conv1DTest, KnownConvolution) {
  util::Rng rng(5);
  Conv1D conv(1, 1, 3, 2, rng);
  // Forward on a known signal, derive expected from layer weights.
  const Matrix x = Matrix::from_rows({{1.0, 2.0, 3.0}});
  const Matrix out = conv.forward(x);
  ASSERT_EQ(out.cols(), 2u);
  // out[p] = w0*x[p] + w1*x[p+1] + b; consistency between positions:
  // (out[1]-b) - (out[0]-b) = w0*(x1-x0) + w1*(x2-x1) = w0 + w1.
  // We can't read w directly (private), but linearity must hold:
  const Matrix x2 = Matrix::from_rows({{2.0, 4.0, 6.0}});
  const Matrix out2 = conv.forward(x2);
  // f(2x) - f(0) = 2 (f(x) - f(0)); evaluate f(0) to get the bias.
  const Matrix zero = Matrix::from_rows({{0.0, 0.0, 0.0}});
  const Matrix outz = conv.forward(zero);
  for (std::size_t c = 0; c < 2; ++c)
    EXPECT_NEAR(out2(0, c) - outz(0, c), 2.0 * (out(0, c) - outz(0, c)), 1e-12);
}

TEST(Conv1DTest, InputGradientMatchesFiniteDifference) {
  util::Rng rng(6);
  Network net;
  net.add(std::make_unique<Conv1D>(1, 4, 6, 2, rng));
  check_input_gradient(net, Matrix::randn(2, 6, 1.0, rng));
}

TEST(Conv1DTest, StackedConvGradient) {
  util::Rng rng(7);
  Network net;
  auto c1 = std::make_unique<Conv1D>(1, 3, 6, 2, rng);
  const std::size_t l1 = c1->out_length();
  net.add(std::move(c1));
  net.add(std::make_unique<Conv1D>(3, 2, l1, 2, rng));
  check_input_gradient(net, Matrix::randn(1, 6, 1.0, rng), 1e-4);
}

TEST(Conv1DTest, ConstructionValidation) {
  util::Rng rng(8);
  EXPECT_THROW(Conv1D(0, 1, 4, 2, rng), std::invalid_argument);
  EXPECT_THROW(Conv1D(1, 1, 2, 3, rng), std::invalid_argument);
}

TEST(SoftmaxTest, RowsSumToOneAndOrderPreserved) {
  const Matrix logits = Matrix::from_rows({{1.0, 2.0, 3.0}, {-1.0, -1.0, -1.0}});
  const Matrix p = softmax(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < 3; ++c) total += p(r, c);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
  EXPECT_GT(p(0, 2), p(0, 1));
  EXPECT_NEAR(p(1, 0), 1.0 / 3.0, 1e-12);
}

TEST(SoftmaxTest, NumericallyStableForLargeLogits) {
  const Matrix logits = Matrix::from_rows({{1000.0, 1001.0}});
  const Matrix p = softmax(logits);
  EXPECT_TRUE(std::isfinite(p(0, 0)));
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0, 1e-12);
}

TEST(LossTest, SoftmaxCrossEntropyKnownValue) {
  const Matrix logits = Matrix::from_rows({{0.0, 0.0}});
  const std::vector<int> labels = {1};
  const LossResult loss = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(loss.loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(loss.grad(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(loss.grad(0, 1), -0.5, 1e-12);
}

TEST(LossTest, SoftmaxCrossEntropyGradientNumeric) {
  util::Rng rng(9);
  Matrix logits = Matrix::randn(3, 4, 1.0, rng);
  const std::vector<int> labels = {0, 2, 3};
  const LossResult analytic = softmax_cross_entropy(logits, labels);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix plus = logits, minus = logits;
    plus.flat()[i] += eps;
    minus.flat()[i] -= eps;
    const double numeric = (softmax_cross_entropy(plus, labels).loss -
                            softmax_cross_entropy(minus, labels).loss) /
                           (2.0 * eps);
    EXPECT_NEAR(analytic.grad.flat()[i], numeric, 1e-6);
  }
}

TEST(LossTest, SoftmaxCrossEntropyErrors) {
  const Matrix logits(2, 2);
  const std::vector<int> wrong_size = {0};
  EXPECT_THROW(softmax_cross_entropy(logits, wrong_size), std::invalid_argument);
  const std::vector<int> bad_label = {0, 5};
  EXPECT_THROW(softmax_cross_entropy(logits, bad_label), std::invalid_argument);
}

TEST(LossTest, MseKnownValueAndGradient) {
  const Matrix pred = Matrix::from_rows({{1.0, 3.0}});
  const Matrix target = Matrix::from_rows({{0.0, 0.0}});
  const LossResult loss = mse_loss(pred, target);
  EXPECT_NEAR(loss.loss, (1.0 + 9.0) / 2.0, 1e-12);
  EXPECT_NEAR(loss.grad(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(loss.grad(0, 1), 3.0, 1e-12);
  EXPECT_THROW(mse_loss(pred, Matrix(2, 1)), std::invalid_argument);
}

TEST(NetworkTest, TrainingReducesLoss) {
  util::Rng rng(10);
  Network net = make_mlp(2, {16}, 2, rng);
  // XOR-ish labels: not linearly separable, needs the hidden layer.
  const Matrix x = Matrix::from_rows({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  const std::vector<int> y = {0, 1, 1, 0};
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const Matrix logits = net.forward(x);
    const LossResult loss = softmax_cross_entropy(logits, y);
    if (epoch == 0) first_loss = loss.loss;
    last_loss = loss.loss;
    net.backward(loss.grad);
    net.adam_step(0.01);
  }
  EXPECT_LT(last_loss, 0.3 * first_loss);
}

TEST(NetworkTest, CopyIsIndependent) {
  util::Rng rng(11);
  Network a = make_mlp(2, {4}, 2, rng);
  Network b = a;  // deep copy
  const Matrix x = Matrix::from_rows({{1.0, -1.0}});
  const Matrix before = b.forward(x);
  // Train a; b must not change.
  const std::vector<int> y = {1};
  for (int i = 0; i < 50; ++i) {
    const LossResult loss = softmax_cross_entropy(a.forward(x), y);
    a.backward(loss.grad);
    a.adam_step(0.05);
  }
  const Matrix after = b.forward(x);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before.flat()[i], after.flat()[i]);
}

TEST(NetworkTest, CopyContinuesTrainingBitwise) {
  util::Rng rng(13);
  Network a;
  a.add(std::make_unique<Conv1D>(1, 2, 4, 2, rng));
  a.add(std::make_unique<Relu>());
  a.add(std::make_unique<Dense>(6, 5, rng));
  a.add(std::make_unique<Relu>());
  a.add(std::make_unique<Dense>(5, 2, rng));
  util::Rng data(14);
  std::vector<Matrix> xs;
  std::vector<std::vector<int>> ys;
  for (int i = 0; i < 40; ++i) {
    Matrix x(3, 4);
    for (double& v : x.flat()) v = data.normal();
    xs.push_back(x);
    ys.push_back({static_cast<int>(i % 2), static_cast<int>((i / 2) % 2), 1});
  }
  const auto train = [&](Network& net, int i) {
    const LossResult loss = softmax_cross_entropy(net.forward(xs[i]), ys[i]);
    net.backward(loss.grad);
    net.adam_step(0.01);
  };
  for (int i = 0; i < 20; ++i) train(a, i);
  // The copy carries the Adam moments and step count, so both continue
  // identically.
  Network b = a;
  for (int i = 20; i < 40; ++i) {
    train(a, i);
    train(b, i);
  }
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(NetworkTest, SerializeRoundTripPreservesOutputs) {
  util::Rng rng(12);
  Network net;
  net.add(std::make_unique<Conv1D>(1, 3, 4, 2, rng));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Dense>(9, 2, rng));
  const Matrix x = Matrix::randn(2, 4, 1.0, rng);
  const Matrix expected = net.forward(x);

  Network restored = Network::deserialize(net.serialize());
  const Matrix actual = restored.forward(x);
  ASSERT_TRUE(actual.same_shape(expected));
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_DOUBLE_EQ(actual.flat()[i], expected.flat()[i]);
}

TEST(NetworkTest, DeserializeRejectsGarbage) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_THROW(Network::deserialize(garbage), std::exception);
}

TEST(NetworkTest, ParamCount) {
  util::Rng rng(13);
  Network net = make_mlp(4, {8}, 2, rng);
  // dense(4->8): 32+8; dense(8->2): 16+2.
  EXPECT_EQ(net.param_count(), 58u);
}

}  // namespace
}  // namespace drlhmd::ml::nn
