// Advantage Actor-Critic (paper Section 2.5.2).
//
// Actor and Critic are MLPs with four hidden layers; the actor emits a
// softmax policy over actions, the critic a scalar state value trained with
// MSE.  Learning rates follow the paper: 5e-4 (actor), 1e-3 (critic);
// discount factor 0.99.  Episodes in the adversarial-predictor environment
// are single-step ("independent events"), for which the general n-step
// update below degenerates to advantage = reward - V(s).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/feature_matrix.hpp"
#include "ml/nn.hpp"
#include "rl/env.hpp"

namespace drlhmd::rl {

struct A2CConfig {
  std::vector<std::size_t> hidden = {64, 64, 64, 64};  // 4 hidden layers
  double actor_lr = 5e-4;
  double critic_lr = 1e-3;
  double gamma = 0.99;
  double entropy_bonus = 1e-3;  // exploration regularizer
  std::uint64_t seed = 41;
};

struct EpisodeStats {
  double episode_reward = 0.0;
  std::size_t steps = 0;
};

class A2C {
 public:
  A2C(std::size_t observation_size, std::size_t action_count,
      A2CConfig config = {});

  /// Sample an action from the current policy.
  std::size_t act(std::span<const double> observation, util::Rng& rng) const;
  /// Greedy action (argmax of the policy).
  std::size_t act_greedy(std::span<const double> observation) const;
  /// Policy probabilities.
  std::vector<double> policy(std::span<const double> observation) const;
  /// Critic value estimate V(s).
  double value(std::span<const double> observation) const;
  /// V(s) for every row of a columnar batch: one critic pass, bitwise
  /// identical to value() per row (the critic's layers are row-local).
  void value_batch(ml::BatchView batch, std::span<double> out) const;

  /// One actor-critic update from a single transition.
  /// `next_value` must be 0 for terminal transitions.
  void update(std::span<const double> observation, std::size_t action,
              double reward, double next_value, bool done);

  /// Roll out one episode in `env`, updating after every step.
  EpisodeStats train_episode(Environment& env, util::Rng& rng,
                             std::size_t max_steps = 10'000);

  std::size_t observation_size() const { return obs_size_; }
  std::size_t action_count() const { return n_actions_; }
  const A2CConfig& config() const { return config_; }
  const ml::nn::Network& actor() const { return actor_; }
  const ml::nn::Network& critic() const { return critic_; }

  std::vector<std::uint8_t> serialize() const;
  static A2C deserialize(std::span<const std::uint8_t> bytes);

 private:
  std::size_t obs_size_;
  std::size_t n_actions_;
  A2CConfig config_;
  ml::nn::Network actor_;
  ml::nn::Network critic_;
};

}  // namespace drlhmd::rl
