#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace cimnav::nn {
namespace {

double relu(double x) { return x > 0.0 ? x : 0.0; }
double relu_grad(double x) { return x > 0.0 ? 1.0 : 0.0; }

/// In-place square roots of non-negative values. A `std::sqrt` loop does
/// not vectorize while errno handling is on, and GCC cannot switch that
/// off per function; the SSE2/AVX square root is the same correctly
/// rounded operation.
void sqrt_in_place(double* x, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX__)
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_sqrt_pd(_mm256_loadu_pd(x + i)));
#elif defined(__SSE2__)
  for (; i + 2 <= n; i += 2)
    _mm_storeu_pd(x + i, _mm_sqrt_pd(_mm_loadu_pd(x + i)));
#endif
  for (; i < n; ++i) x[i] = std::sqrt(x[i]);
}

/// Adam on n parameters from their summed batch gradients, in chunks:
/// moments and v / bc2, then the square roots, then the weight step. The
/// expressions are the per-parameter loop's, so the bits are too.
void adam_update(const TrainOptions& opt, double bc1, double bc2,
                 double inv_batch, const double* __restrict grad,
                 std::size_t n, double* __restrict w, double* __restrict m,
                 double* __restrict v) {
  constexpr std::size_t kChunk = 256;
  double root[kChunk];
  const double beta1 = opt.beta1, beta2 = opt.beta2;
  const double lr = opt.learning_rate, eps = opt.epsilon;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t len = std::min(kChunk, n - base);
    double* __restrict cw = w + base;
    double* __restrict cm = m + base;
    double* __restrict cv = v + base;
    const double* __restrict cg = grad + base;
    for (std::size_t i = 0; i < len; ++i) {
      const double g = cg[i] * inv_batch;
      cm[i] = beta1 * cm[i] + (1.0 - beta1) * g;
      cv[i] = beta2 * cv[i] + (1.0 - beta2) * g * g;
      root[i] = cv[i] / bc2;
    }
    sqrt_in_place(root, len);
    for (std::size_t i = 0; i < len; ++i)
      cw[i] -= lr * (cm[i] / bc1) / (root[i] + eps);
  }
}

}  // namespace

Mlp::Mlp(const MlpConfig& config, core::Rng& rng) : config_(config) {
  CIMNAV_REQUIRE(config.layer_sizes.size() >= 2,
                 "need at least input and output layers");
  for (int s : config.layer_sizes)
    CIMNAV_REQUIRE(s > 0, "layer sizes must be positive");
  CIMNAV_REQUIRE(config.dropout_p >= 0.0 && config.dropout_p < 1.0,
                 "dropout probability must lie in [0, 1)");

  const std::size_t layers = config.layer_sizes.size() - 1;
  weights_.reserve(layers);
  biases_.reserve(layers);
  adam_.resize(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    const int fan_in = config.layer_sizes[l];
    const int fan_out = config.layer_sizes[l + 1];
    Matrix w(fan_out, fan_in);
    const double bound = std::sqrt(6.0 / static_cast<double>(fan_in));
    for (double& v : w.data()) v = rng.uniform(-bound, bound);
    weights_.push_back(std::move(w));
    biases_.emplace_back(static_cast<std::size_t>(fan_out), 0.0);
    adam_[l].m_w = Matrix(fan_out, fan_in);
    adam_[l].v_w = Matrix(fan_out, fan_in);
    adam_[l].m_b.assign(static_cast<std::size_t>(fan_out), 0.0);
    adam_[l].v_b.assign(static_cast<std::size_t>(fan_out), 0.0);
  }
}

const Matrix& Mlp::weights(int layer) const {
  CIMNAV_REQUIRE(layer >= 0 && layer < layer_count(), "layer out of range");
  return weights_[static_cast<std::size_t>(layer)];
}

const Vector& Mlp::biases(int layer) const {
  CIMNAV_REQUIRE(layer >= 0 && layer < layer_count(), "layer out of range");
  return biases_[static_cast<std::size_t>(layer)];
}

Matrix& Mlp::mutable_weights(int layer) {
  CIMNAV_REQUIRE(layer >= 0 && layer < layer_count(), "layer out of range");
  return weights_[static_cast<std::size_t>(layer)];
}

Vector& Mlp::mutable_biases(int layer) {
  CIMNAV_REQUIRE(layer >= 0 && layer < layer_count(), "layer out of range");
  return biases_[static_cast<std::size_t>(layer)];
}

int Mlp::dropout_site_count() const { return layer_count() - 1; }

int Mlp::dropout_site_width(int site) const {
  CIMNAV_REQUIRE(site >= 0 && site < dropout_site_count(),
                 "dropout site out of range");
  return config_.layer_sizes[static_cast<std::size_t>(site) + 1];
}

std::vector<Mask> Mlp::sample_masks(
    const std::function<bool()>& drop_draw) const {
  std::vector<Mask> masks(static_cast<std::size_t>(dropout_site_count()));
  for (int s = 0; s < dropout_site_count(); ++s) {
    Mask& m = masks[static_cast<std::size_t>(s)];
    m.resize(static_cast<std::size_t>(dropout_site_width(s)));
    for (auto& bit : m) bit = drop_draw() ? 0 : 1;
  }
  return masks;
}

Vector Mlp::forward(const Vector& x) const {
  CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(input_size()),
                 "input size mismatch");
  Vector a = x;
  for (int l = 0; l < layer_count(); ++l) {
    Vector z = weights_[static_cast<std::size_t>(l)].matvec(a);
    const Vector& b = biases_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
    if (l + 1 < layer_count())
      for (double& v : z) v = relu(v);
    a = std::move(z);
  }
  return a;
}

Vector Mlp::forward_masked(const Vector& x,
                           const std::vector<Mask>& masks) const {
  CIMNAV_REQUIRE(x.size() == static_cast<std::size_t>(input_size()),
                 "input size mismatch");
  CIMNAV_REQUIRE(masks.size() ==
                     static_cast<std::size_t>(dropout_site_count()),
                 "mask count mismatch");
  const double keep_scale = 1.0 / (1.0 - config_.dropout_p);
  Vector a = x;
  for (int l = 0; l < layer_count(); ++l) {
    Vector z = weights_[static_cast<std::size_t>(l)].matvec(a);
    const Vector& b = biases_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
    if (l + 1 < layer_count()) {
      for (double& v : z) v = relu(v);
      const Mask& m = masks[static_cast<std::size_t>(l)];
      CIMNAV_REQUIRE(m.size() == z.size(), "hidden mask size mismatch");
      for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = m[i] ? z[i] * keep_scale : 0.0;
    }
    a = std::move(z);
  }
  return a;
}

double Mlp::train_epoch(const std::vector<Vector>& inputs,
                        const std::vector<Vector>& targets,
                        const TrainOptions& opt, core::Rng& rng) {
  CIMNAV_REQUIRE(inputs.size() == targets.size() && !inputs.empty(),
                 "dataset must be non-empty and paired");
  CIMNAV_REQUIRE(opt.batch_size > 0, "batch size must be positive");
  const std::size_t n = inputs.size();
  const auto in_width = static_cast<std::size_t>(input_size());
  const auto out_width = static_cast<std::size_t>(output_size());
  // Every width is checked before the shuffle draws or a weight moves.
  for (std::size_t i = 0; i < n; ++i) {
    CIMNAV_REQUIRE(inputs[i].size() == in_width,
                   "input " + std::to_string(i) + " has " +
                       std::to_string(inputs[i].size()) + " values, expected " +
                       std::to_string(in_width));
    CIMNAV_REQUIRE(targets[i].size() == out_width,
                   "target " + std::to_string(i) + " has " +
                       std::to_string(targets[i].size()) +
                       " values, expected " + std::to_string(out_width));
  }

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (opt.shuffle) order = rng.permutation(n);

  const int layers = layer_count();
  const double keep_scale = 1.0 / (1.0 - config_.dropout_p);
  const std::size_t cap =
      std::min(static_cast<std::size_t>(opt.batch_size), n);
  const auto width = [&](int l) {
    return static_cast<std::size_t>(
        config_.layer_sizes[static_cast<std::size_t>(l)]);
  };
  std::size_t widest = 0;
  for (int l = 0; l <= layers; ++l) widest = std::max(widest, width(l));

  // Scratch for one batch, sized once. Per sample, the keep-bits of every
  // dropout site in site order; per layer l, its input activations both
  // sample-major (act, for the weight gradient) and unit-major (act_t,
  // samples along memory for the forward products); per hidden layer, the
  // backward factor (dropout gate x ReLU derivative) of each output.
  std::size_t mask_width = 0;
  for (int s = 0; s < dropout_site_count(); ++s)
    mask_width += static_cast<std::size_t>(dropout_site_width(s));
  std::vector<std::uint8_t> keep(cap * mask_width);
  std::vector<Vector> act, act_t, gate;
  std::vector<Matrix> grad_w;
  std::vector<Vector> grad_b;
  for (int l = 0; l < layers; ++l) {
    act.emplace_back(cap * width(l));
    act_t.emplace_back(cap * width(l));
    if (l + 1 < layers) gate.emplace_back(cap * width(l + 1));
    grad_w.emplace_back(static_cast<int>(width(l + 1)),
                        static_cast<int>(width(l)));
    grad_b.emplace_back(width(l + 1));
  }
  Vector z(cap * widest), delta(cap * widest), prev(cap * widest);

  double total_loss = 0.0;
  std::size_t processed = 0;
  while (processed < n) {
    const std::size_t batch = std::min(cap, n - processed);
    const int batch_i = static_cast<int>(batch);

    // The batch's masks first, in sample, site, unit order: the rng draws
    // the per-sample loop made, since nothing else draws in between.
    for (std::size_t u = 0; u < batch * mask_width; ++u)
      keep[u] = rng.bernoulli(config_.dropout_p) ? 0 : 1;

    for (std::size_t s = 0; s < batch; ++s) {
      const Vector& x = inputs[order[processed + s]];
      for (std::size_t c = 0; c < in_width; ++c) {
        act[0][s * in_width + c] = x[c];
        act_t[0][c * cap + s] = x[c];
      }
    }
    std::size_t site_offset = 0;

    // Forward: each layer is one batched product.
    for (int l = 0; l < layers; ++l) {
      const auto lu = static_cast<std::size_t>(l);
      const Matrix& w = weights_[lu];
      const Vector& b = biases_[lu];
      const std::size_t rows = width(l + 1);
      product_sums({.a = w.data().data(),
                    .a_k = 1,
                    .a_i = width(l),
                    .b = act_t[lu].data(),
                    .b_k = cap,
                    .out = z.data(),
                    .out_i = 1,
                    .out_j = rows,
                    .k = w.cols(),
                    .i = w.rows(),
                    .j = batch_i});

      if (l + 1 < layers) {
        Vector& a = act[lu + 1];
        Vector& a_t = act_t[lu + 1];
        Vector& g = gate[lu];
        for (std::size_t s = 0; s < batch; ++s) {
          const std::uint8_t* m = keep.data() + s * mask_width + site_offset;
          for (std::size_t r = 0; r < rows; ++r) {
            const double pre = z[s * rows + r] + b[r];
            const double v = m[r] ? relu(pre) * keep_scale : 0.0;
            a[s * rows + r] = v;
            a_t[r * cap + s] = v;
            g[s * rows + r] = (m[r] ? keep_scale : 0.0) * relu_grad(pre);
          }
        }
        site_offset += rows;
        continue;
      }

      // Loss and output delta (MSE, 1/2 factor absorbed). The squared
      // errors are summed by the same kernel.
      for (std::size_t s = 0; s < batch; ++s) {
        const Vector& t = targets[order[processed + s]];
        double* e = delta.data() + s * rows;
        for (std::size_t k = 0; k < rows; ++k)
          e[k] = (z[s * rows + k] + b[k]) - t[k];
        double loss = 0.0;
        product_sums({.a = e,
                      .a_k = 1,
                      .b = e,
                      .b_k = 1,
                      .out = &loss,
                      .k = w.rows(),
                      .i = 1,
                      .j = 1});
        total_loss += loss / static_cast<double>(rows);
        for (std::size_t k = 0; k < rows; ++k)
          e[k] = 2.0 * e[k] / static_cast<double>(rows);
      }
    }

    // Backward: each weight gradient sums its samples in sample order
    // from zero; W^T delta sums its rows in ascending order.
    double* d = delta.data();
    double* p = prev.data();
    for (int l = layers - 1; l >= 0; --l) {
      const auto lu = static_cast<std::size_t>(l);
      const Matrix& w = weights_[lu];
      const std::size_t rows = width(l + 1);
      const std::size_t cols = width(l);
      product_sums({.a = d,
                    .a_k = rows,
                    .a_i = 1,
                    .b = act[lu].data(),
                    .b_k = cols,
                    .out = grad_w[lu].data().data(),
                    .out_i = cols,
                    .out_j = 1,
                    .k = batch_i,
                    .i = w.rows(),
                    .j = w.cols()});
      Vector& gb = grad_b[lu];
      for (std::size_t r = 0; r < rows; ++r) {
        double sum = 0.0;
        for (std::size_t s = 0; s < batch; ++s) sum += d[s * rows + r];
        gb[r] = sum;
      }
      if (l == 0) break;

      // Propagate through W, then the dropout gate and ReLU of layer l-1.
      product_sums({.a = d,
                    .a_k = 1,
                    .a_i = rows,
                    .b = w.data().data(),
                    .b_k = cols,
                    .out = p,
                    .out_i = cols,
                    .out_j = 1,
                    .k = w.rows(),
                    .i = batch_i,
                    .j = w.cols()});
      const double* g = gate[lu - 1].data();
      for (std::size_t e = 0; e < batch * cols; ++e) p[e] *= g[e];
      std::swap(d, p);
    }

    // Adam update.
    ++adam_steps_;
    const double bc1 =
        1.0 - std::pow(opt.beta1, static_cast<double>(adam_steps_));
    const double bc2 =
        1.0 - std::pow(opt.beta2, static_cast<double>(adam_steps_));
    const double inv_batch = 1.0 / static_cast<double>(batch);
    for (std::size_t l = 0; l < adam_.size(); ++l) {
      AdamSlot& slot = adam_[l];
      std::vector<double>& w = weights_[l].data();
      adam_update(opt, bc1, bc2, inv_batch, grad_w[l].data().data(), w.size(),
                  w.data(), slot.m_w.data().data(), slot.v_w.data().data());
      Vector& b = biases_[l];
      adam_update(opt, bc1, bc2, inv_batch, grad_b[l].data(), b.size(),
                  b.data(), slot.m_b.data(), slot.v_b.data());
    }
    processed += batch;
  }
  return total_loss / static_cast<double>(n);
}

double Mlp::evaluate_mse(const std::vector<Vector>& inputs,
                         const std::vector<Vector>& targets) const {
  CIMNAV_REQUIRE(inputs.size() == targets.size() && !inputs.empty(),
                 "dataset must be non-empty and paired");
  double total = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Vector y = forward(inputs[i]);
    double s = 0.0;
    for (std::size_t k = 0; k < y.size(); ++k) {
      const double e = y[k] - targets[i][k];
      s += e * e;
    }
    total += s / static_cast<double>(y.size());
  }
  return total / static_cast<double>(inputs.size());
}

}  // namespace cimnav::nn
