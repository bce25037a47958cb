// Multilayer perceptron with dropout, trained by backprop + Adam.
//
// This is the regression model of the Bayesian VO pipeline (paper
// Sec. III): dropout applied at the input and after every hidden layer,
// with the usual "inverted" scaling so that the expected forward pass is
// mask-independent. At inference the same masked forward is reused for
// MC-Dropout sampling (Gal & Ghahramani: dropout at test time realizes
// approximate variational inference).
#pragma once

#include <functional>
#include <vector>

#include "core/rng.hpp"
#include "nn/tensor.hpp"

namespace cimnav::nn {

/// Architecture/regularization configuration.
struct MlpConfig {
  std::vector<int> layer_sizes;  ///< e.g. {96, 64, 32, 4}
  double dropout_p = 0.5;        ///< drop probability, input + hidden
  bool dropout_on_input = true;  ///< enables the compute-reuse locus
};

/// Adam optimizer hyperparameters.
struct TrainOptions {
  int epochs = 60;
  int batch_size = 32;
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  bool shuffle = true;
};

class Mlp {
 public:
  /// He-uniform initialization.
  Mlp(const MlpConfig& config, core::Rng& rng);

  const MlpConfig& config() const { return config_; }
  int input_size() const { return config_.layer_sizes.front(); }
  int output_size() const { return config_.layer_sizes.back(); }
  /// Number of weight layers (= layer_sizes.size() - 1).
  int layer_count() const { return static_cast<int>(weights_.size()); }

  const Matrix& weights(int layer) const;
  const Vector& biases(int layer) const;
  Matrix& mutable_weights(int layer);
  Vector& mutable_biases(int layer);

  /// Deterministic forward pass (no dropout; the "classical" network).
  Vector forward(const Vector& x) const;

  /// Masked forward pass for MC-Dropout. `masks` holds one mask per
  /// dropout site: masks[0] over the input (if enabled), then one per
  /// hidden layer, each applied to the post-activation vector with
  /// inverted-dropout scaling 1/(1-p).
  Vector forward_masked(const Vector& x,
                        const std::vector<Mask>& masks) const;

  /// Number of dropout sites (size expected of `masks`).
  int dropout_site_count() const;

  /// Width of dropout site `s` (input size or hidden layer size).
  int dropout_site_width(int site) const;

  /// Draws a full set of Bernoulli(1-p) keep-masks using `gen`, a callable
  /// returning true with probability p_drop when invoked.
  std::vector<Mask> sample_masks(
      const std::function<bool()>& drop_draw) const;

  /// One epoch of minibatch Adam on MSE loss; returns mean training loss.
  /// Dropout is active during training (same sites as inference). Each
  /// minibatch runs as batched products with the bits of a per-sample
  /// loop (rounding contract: docs/architecture.md, "Set-up"). Throws
  /// std::invalid_argument, naming the sample, when an input or target
  /// has the wrong width; nothing is drawn or updated before that check.
  double train_epoch(const std::vector<Vector>& inputs,
                     const std::vector<Vector>& targets,
                     const TrainOptions& opt, core::Rng& rng);

  /// Mean squared error over a dataset (deterministic forward).
  double evaluate_mse(const std::vector<Vector>& inputs,
                      const std::vector<Vector>& targets) const;

 private:
  struct AdamSlot {
    Matrix m_w, v_w;
    Vector m_b, v_b;
  };

  MlpConfig config_;
  std::vector<Matrix> weights_;  ///< weights_[l]: (out x in)
  std::vector<Vector> biases_;
  std::vector<AdamSlot> adam_;
  std::int64_t adam_steps_ = 0;
};

}  // namespace cimnav::nn
