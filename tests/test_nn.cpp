// Unit tests for the neural-network stack: matrix ops, MLP training,
// CIM-executed inference and compute reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace cimnav::nn {
namespace {

using core::Rng;

TEST(Matrix, Matvec) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  const Vector y = m.matvec({1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
}

TEST(Matrix, SizeChecks) {
  Matrix m(2, 3);
  EXPECT_THROW(m.matvec({1, 1}), std::invalid_argument);
  EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
}

// (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60: rounded it is 1 + 2^-29, which
// cancels the previous term exactly, while an FMA keeps 2^-60.
const double kSquared = 1.0 + std::ldexp(1.0, -30);
const double kCancels = -(1.0 + std::ldexp(1.0, -29));

TEST(Matrix, MatvecRoundsEveryProduct) {
  // Placed at every column of every row of shapes with 4-row groups, tail
  // rows and column counts off a multiple of 4, each row must sum to 0.
  for (const int rows : {1, 3, 4, 6, 9}) {
    for (const int cols : {2, 3, 5, 8, 13}) {
      for (int at = 1; at < cols; ++at) {
        Matrix m(rows, cols);
        Vector x(static_cast<std::size_t>(cols), 0.0);
        x[static_cast<std::size_t>(at) - 1] = 1.0;
        x[static_cast<std::size_t>(at)] = kSquared;
        for (int r = 0; r < rows; ++r) {
          m(r, at - 1) = kCancels;
          m(r, at) = kSquared;
        }
        const Vector y = m.matvec(x);
        for (int r = 0; r < rows; ++r)
          EXPECT_EQ(y[static_cast<std::size_t>(r)], 0.0)
              << rows << "x" << cols << " product at column " << at;
      }
    }
  }
}

TEST(ProductSums, VectorTilesRoundEveryProduct) {
  // The cancelling pair at every step k of every out(i, j): j spans whole
  // 8-wide vector tiles plus a tail column, and i spans 4-row groups plus
  // tail rows, so every sum of both tile shapes must come out 0.
  for (const int ni : {1, 4, 5}) {
    for (const int nj : {8, 9, 16, 17}) {
      for (const int nk : {2, 3, 5}) {
        for (int at = 1; at < nk; ++at) {
          const auto i_count = static_cast<std::size_t>(ni);
          const auto j_count = static_cast<std::size_t>(nj);
          const auto k_count = static_cast<std::size_t>(nk);
          const auto k = static_cast<std::size_t>(at);
          std::vector<double> a(k_count * i_count, 0.0);
          std::vector<double> b(k_count * j_count, 0.0);
          for (std::size_t i = 0; i < i_count; ++i) {
            a[(k - 1) * i_count + i] = kCancels;
            a[k * i_count + i] = kSquared;
          }
          for (std::size_t j = 0; j < j_count; ++j) {
            b[(k - 1) * j_count + j] = 1.0;
            b[k * j_count + j] = kSquared;
          }
          std::vector<double> out(i_count * j_count, -1.0);
          product_sums({.a = a.data(),
                        .a_k = i_count,
                        .a_i = 1,
                        .b = b.data(),
                        .b_k = j_count,
                        .out = out.data(),
                        .out_i = j_count,
                        .out_j = 1,
                        .k = nk,
                        .i = ni,
                        .j = nj});
          for (std::size_t e = 0; e < out.size(); ++e)
            EXPECT_EQ(out[e], 0.0)
                << ni << "x" << nj << " k=" << nk << ", product at step "
                << at << ", out(" << e / j_count << ", " << e % j_count
                << ")";
        }
      }
    }
  }
}

MlpConfig small_config(double p = 0.0) {
  MlpConfig cfg;
  cfg.layer_sizes = {4, 16, 8, 2};
  cfg.dropout_p = p;
  return cfg;
}

TEST(Mlp, ForwardShapeAndDeterminism) {
  Rng rng(3);
  const Mlp net(small_config(), rng);
  const Vector x{0.1, 0.2, 0.3, 0.4};
  const Vector y1 = net.forward(x);
  const Vector y2 = net.forward(x);
  ASSERT_EQ(y1.size(), 2u);
  EXPECT_EQ(y1, y2);
}

TEST(Mlp, DropoutSiteAccounting) {
  Rng rng(5);
  const Mlp net(small_config(0.5), rng);
  EXPECT_EQ(net.dropout_site_count(), 2);
  EXPECT_EQ(net.dropout_site_width(0), 16);
  EXPECT_EQ(net.dropout_site_width(1), 8);
  EXPECT_THROW(net.dropout_site_width(2), std::invalid_argument);
}

TEST(Mlp, AllOnesMaskEqualsScaledForward) {
  // With every neuron kept, the masked forward is the deterministic
  // forward scaled by keep_scale at each site (inverted dropout).
  Rng rng(7);
  MlpConfig cfg = small_config(0.5);
  const Mlp net(cfg, rng);
  const Vector x{0.3, 0.1, 0.9, 0.5};
  std::vector<Mask> ones;
  for (int s = 0; s < net.dropout_site_count(); ++s)
    ones.emplace_back(static_cast<std::size_t>(net.dropout_site_width(s)), 1);
  const Vector masked = net.forward_masked(x, ones);
  ASSERT_EQ(masked.size(), 2u);
  // Not equal to plain forward (scaling), but finite and deterministic.
  EXPECT_TRUE(std::isfinite(masked[0]));
}

TEST(Mlp, MaskedForwardExpectationExactForLinearNet) {
  // With one hidden layer the mask sits after the only ReLU, and the
  // output layer is linear: inverted dropout makes E[masked forward]
  // equal the deterministic forward exactly; only Monte-Carlo error
  // remains.
  Rng rng(11);
  MlpConfig cfg;
  cfg.layer_sizes = {4, 8, 2};
  cfg.dropout_p = 0.3;
  const Mlp net(cfg, rng);
  const Vector x{0.5, 0.2, 0.8, 0.1};
  const Vector ref = net.forward(x);
  Vector mean(2, 0.0);
  Rng mrng(13);
  const int T = 60000;
  for (int t = 0; t < T; ++t) {
    const auto masks =
        net.sample_masks([&] { return mrng.bernoulli(0.3); });
    const Vector y = net.forward_masked(x, masks);
    for (std::size_t i = 0; i < y.size(); ++i) mean[i] += y[i] / T;
  }
  for (std::size_t i = 0; i < mean.size(); ++i)
    EXPECT_NEAR(mean[i], ref[i], 0.01);
}

TEST(Mlp, MaskedForwardExpectationApproximatesForwardThroughRelu) {
  // Through ReLU the equality is only approximate (Jensen gap), but the
  // MC mean must stay within a moderate band of the deterministic pass.
  Rng rng(11);
  const Mlp net(small_config(0.3), rng);
  const Vector x{0.5, 0.2, 0.8, 0.1};
  const Vector ref = net.forward(x);
  Vector mean(2, 0.0);
  Rng mrng(13);
  const int T = 4000;
  for (int t = 0; t < T; ++t) {
    const auto masks =
        net.sample_masks([&] { return mrng.bernoulli(0.3); });
    const Vector y = net.forward_masked(x, masks);
    for (std::size_t i = 0; i < y.size(); ++i) mean[i] += y[i] / T;
  }
  for (std::size_t i = 0; i < mean.size(); ++i)
    EXPECT_NEAR(mean[i], ref[i], 0.5 * (std::abs(ref[i]) + 0.1));
}

TEST(Mlp, TrainsLinearTask) {
  Rng rng(17);
  Mlp net(small_config(), rng);
  std::vector<Vector> X, Y;
  for (int i = 0; i < 1000; ++i) {
    Vector x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    Y.push_back({x[0] - x[1], 0.5 * x[2] + 0.5 * x[3]});
    X.push_back(std::move(x));
  }
  TrainOptions opt;
  double loss = 1.0;
  for (int e = 0; e < 60; ++e) loss = net.train_epoch(X, Y, opt, rng);
  EXPECT_LT(loss, 1e-3);
  EXPECT_LT(net.evaluate_mse(X, Y), 1e-3);
}

TEST(Mlp, TrainingLossDecreases) {
  Rng rng(19);
  Mlp net(small_config(0.1), rng);
  std::vector<Vector> X, Y;
  for (int i = 0; i < 600; ++i) {
    Vector x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    Y.push_back({x[0] * x[1], x[2]});
    X.push_back(std::move(x));
  }
  TrainOptions opt;
  const double first = net.train_epoch(X, Y, opt, rng);
  double last = first;
  for (int e = 0; e < 30; ++e) last = net.train_epoch(X, Y, opt, rng);
  EXPECT_LT(last, first);
}

// ---------------------------------------------------------------------------
// Reference trainer: the per-sample minibatch loop Mlp::train_epoch ran
// before it became batched, kept as the bit-identity oracle. It owns its
// Adam moments and uses only Mlp's public accessors.
// ---------------------------------------------------------------------------

struct ReferenceAdam {
  explicit ReferenceAdam(const Mlp& net) {
    for (int l = 0; l < net.layer_count(); ++l) {
      const Matrix& w = net.weights(l);
      m_w.emplace_back(w.rows(), w.cols());
      v_w.emplace_back(w.rows(), w.cols());
      m_b.emplace_back(net.biases(l).size(), 0.0);
      v_b.emplace_back(net.biases(l).size(), 0.0);
    }
  }
  std::vector<Matrix> m_w, v_w;
  std::vector<Vector> m_b, v_b;
  std::int64_t steps = 0;
};

/// y = W^T x, row by row in ascending order.
Vector reference_matvec_transposed(const Matrix& w, const Vector& x) {
  Vector y(static_cast<std::size_t>(w.cols()), 0.0);
  for (int r = 0; r < w.rows(); ++r) {
    const double xr = x[static_cast<std::size_t>(r)];
    for (int c = 0; c < w.cols(); ++c)
      y[static_cast<std::size_t>(c)] += w(r, c) * xr;
  }
  return y;
}

double reference_train_epoch(Mlp& net, ReferenceAdam& adam,
                             const std::vector<Vector>& inputs,
                             const std::vector<Vector>& targets,
                             const TrainOptions& opt, Rng& rng) {
  const std::size_t n = inputs.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (opt.shuffle) order = rng.permutation(n);

  const MlpConfig& cfg = net.config();
  const int layers = net.layer_count();
  const double keep_scale = 1.0 / (1.0 - cfg.dropout_p);
  double total_loss = 0.0;

  std::vector<Matrix> grad_w;
  std::vector<Vector> grad_b;
  for (int l = 0; l < layers; ++l) {
    grad_w.emplace_back(net.weights(l).rows(), net.weights(l).cols());
    grad_b.emplace_back(net.biases(l).size(), 0.0);
  }

  std::size_t processed = 0;
  while (processed < n) {
    const std::size_t batch = std::min<std::size_t>(
        static_cast<std::size_t>(opt.batch_size), n - processed);
    for (int l = 0; l < layers; ++l) {
      for (double& g : grad_w[static_cast<std::size_t>(l)].data()) g = 0.0;
      for (double& g : grad_b[static_cast<std::size_t>(l)]) g = 0.0;
    }

    for (std::size_t bi = 0; bi < batch; ++bi) {
      const std::size_t idx = order[processed + bi];
      const Vector& t = targets[idx];

      std::vector<Vector> acts;
      std::vector<Vector> preact;
      const std::vector<Mask> live_masks =
          net.sample_masks([&] { return rng.bernoulli(cfg.dropout_p); });
      Vector a = inputs[idx];
      acts.push_back(a);
      for (int l = 0; l < layers; ++l) {
        Vector z = net.weights(l).matvec(a);
        const Vector& b = net.biases(l);
        for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
        preact.push_back(z);
        if (l + 1 < layers) {
          for (double& v : z) v = v > 0.0 ? v : 0.0;
          const Mask& m = live_masks[static_cast<std::size_t>(l)];
          for (std::size_t i = 0; i < z.size(); ++i)
            z[i] = m[i] ? z[i] * keep_scale : 0.0;
        }
        a = std::move(z);
        acts.push_back(a);
      }

      Vector delta(a.size());
      double loss = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double e = a[i] - t[i];
        loss += e * e;
        delta[i] = 2.0 * e / static_cast<double>(a.size());
      }
      total_loss += loss / static_cast<double>(a.size());

      for (int l = layers - 1; l >= 0; --l) {
        const Vector& input_act = acts[static_cast<std::size_t>(l)];
        auto& gw = grad_w[static_cast<std::size_t>(l)];
        auto& gb = grad_b[static_cast<std::size_t>(l)];
        for (int r = 0; r < gw.rows(); ++r) {
          const double d = delta[static_cast<std::size_t>(r)];
          gb[static_cast<std::size_t>(r)] += d;
          for (int c = 0; c < gw.cols(); ++c)
            gw(r, c) += d * input_act[static_cast<std::size_t>(c)];
        }
        if (l == 0) break;
        Vector prev = reference_matvec_transposed(net.weights(l), delta);
        const Mask& m = live_masks[static_cast<std::size_t>(l) - 1];
        const Vector& z_prev = preact[static_cast<std::size_t>(l) - 1];
        for (std::size_t i = 0; i < prev.size(); ++i) {
          const double gate = m[i] ? keep_scale : 0.0;
          prev[i] *= gate * (z_prev[i] > 0.0 ? 1.0 : 0.0);
        }
        delta = std::move(prev);
      }
    }

    ++adam.steps;
    const double bc1 =
        1.0 - std::pow(opt.beta1, static_cast<double>(adam.steps));
    const double bc2 =
        1.0 - std::pow(opt.beta2, static_cast<double>(adam.steps));
    const double inv_batch = 1.0 / static_cast<double>(batch);
    for (int l = 0; l < layers; ++l) {
      const auto lu = static_cast<std::size_t>(l);
      std::vector<double>& w = net.mutable_weights(l).data();
      std::vector<double>& mw = adam.m_w[lu].data();
      std::vector<double>& vw = adam.v_w[lu].data();
      const std::vector<double>& gw = grad_w[lu].data();
      for (std::size_t i = 0; i < w.size(); ++i) {
        const double g = gw[i] * inv_batch;
        mw[i] = opt.beta1 * mw[i] + (1.0 - opt.beta1) * g;
        vw[i] = opt.beta2 * vw[i] + (1.0 - opt.beta2) * g * g;
        w[i] -= opt.learning_rate * (mw[i] / bc1) /
                (std::sqrt(vw[i] / bc2) + opt.epsilon);
      }
      Vector& b = net.mutable_biases(l);
      Vector& mb = adam.m_b[lu];
      Vector& vb = adam.v_b[lu];
      const Vector& gb = grad_b[lu];
      for (std::size_t i = 0; i < b.size(); ++i) {
        const double g = gb[i] * inv_batch;
        mb[i] = opt.beta1 * mb[i] + (1.0 - opt.beta1) * g;
        vb[i] = opt.beta2 * vb[i] + (1.0 - opt.beta2) * g * g;
        b[i] -= opt.learning_rate * (mb[i] / bc1) /
                (std::sqrt(vb[i] / bc2) + opt.epsilon);
      }
    }
    processed += batch;
  }
  return total_loss / static_cast<double>(n);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_parameters(const Mlp& got, const Mlp& want) {
  for (int l = 0; l < want.layer_count(); ++l) {
    const std::vector<double>& gw = got.weights(l).data();
    const std::vector<double>& ww = want.weights(l).data();
    ASSERT_EQ(gw.size(), ww.size());
    for (std::size_t i = 0; i < ww.size(); ++i)
      ASSERT_EQ(bits_of(gw[i]), bits_of(ww[i]))
          << "layer " << l << " weight " << i << ": " << gw[i] << " vs "
          << ww[i];
    const Vector& gb = got.biases(l);
    const Vector& wb = want.biases(l);
    ASSERT_EQ(gb.size(), wb.size());
    for (std::size_t i = 0; i < wb.size(); ++i)
      ASSERT_EQ(bits_of(gb[i]), bits_of(wb[i]))
          << "layer " << l << " bias " << i;
  }
}

struct OracleCase {
  const char* name;
  MlpConfig config;
  std::size_t samples;
};

std::vector<OracleCase> oracle_cases() {
  MlpConfig vo;
  vo.layer_sizes = {144, 128, 64, 4};
  vo.dropout_p = 0.2;
  MlpConfig ragged;
  ragged.layer_sizes = {5, 13, 7, 3};
  ragged.dropout_p = 0.35;
  MlpConfig ragged_one_hidden;
  ragged_one_hidden.layer_sizes = {9, 6, 11};
  ragged_one_hidden.dropout_p = 0.25;
  // Each count leaves a partial last batch at every batch size above 1.
  return {{"vo_144_128_64_4", vo, 150},
          {"small_4_16_8_2", small_config(0.3), 230},
          {"ragged_5_13_7_3", ragged, 230},
          {"ragged_9_6_11", ragged_one_hidden, 230}};
}

TEST(MlpTrainOracle, BatchedEpochMatchesPerSampleLoopBitForBit) {
  for (const OracleCase& c : oracle_cases()) {
    Rng data_rng(101);
    std::vector<Vector> X, Y;
    for (std::size_t i = 0; i < c.samples; ++i) {
      Vector x(static_cast<std::size_t>(c.config.layer_sizes.front()));
      for (double& v : x) v = data_rng.uniform(-1.0, 1.0);
      Vector y(static_cast<std::size_t>(c.config.layer_sizes.back()));
      for (double& v : y) v = data_rng.uniform(-0.5, 0.5);
      X.push_back(std::move(x));
      Y.push_back(std::move(y));
    }
    for (const int batch : {1, 7, 32}) {
      for (const bool shuffle : {true, false}) {
        SCOPED_TRACE(std::string(c.name) + " batch=" + std::to_string(batch) +
                     " shuffle=" + std::to_string(shuffle));
        ASSERT_NE(c.samples % static_cast<std::size_t>(batch) == 0,
                  batch > 1);
        Rng init_a(7), init_b(7);
        Mlp net(c.config, init_a);
        Mlp ref(c.config, init_b);
        ReferenceAdam adam(ref);
        TrainOptions opt;
        opt.batch_size = batch;
        opt.shuffle = shuffle;
        opt.learning_rate = 3e-3;
        Rng rng_a(11), rng_b(11);
        for (int epoch = 0; epoch < 3; ++epoch) {
          const double loss = net.train_epoch(X, Y, opt, rng_a);
          const double want = reference_train_epoch(ref, adam, X, Y, opt, rng_b);
          EXPECT_EQ(bits_of(loss), bits_of(want))
              << "epoch " << epoch << ": " << loss << " vs " << want;
        }
        expect_same_parameters(net, ref);
        EXPECT_EQ(rng_a(), rng_b());
      }
    }
  }
}

TEST(MlpTrainOracle, RejectsBadWidthsBeforeAnyStep) {
  Rng rng(29);
  Mlp net(small_config(0.2), rng);
  std::vector<Vector> X, Y;
  for (int i = 0; i < 40; ++i) {
    X.push_back({rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
    Y.push_back({rng.uniform(), rng.uniform()});
  }
  const Mlp before = net;
  TrainOptions opt;
  opt.batch_size = 8;

  // A short target, and an input one value too wide at the last index.
  // Fresh exact-size buffers, so a read past the end leaves the heap
  // allocation (and AddressSanitizer reports it).
  auto short_target = Y;
  short_target[5] = Vector{0.5};
  auto wide_input = X;
  wide_input.back() = Vector{0.1, 0.2, 0.3, 0.4, 0.5};
  const struct {
    const std::vector<Vector>& inputs;
    const std::vector<Vector>& targets;
    const char* index;
  } bad[] = {{X, short_target, "target 5 "}, {wide_input, Y, "input 39 "}};
  for (const auto& b : bad) {
    Rng train_rng(31), untouched(31);
    try {
      net.train_epoch(b.inputs, b.targets, opt, train_rng);
      ADD_FAILURE() << "no throw for " << b.index;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(b.index), std::string::npos)
          << e.what();
    }
    expect_same_parameters(net, before);
    EXPECT_EQ(train_rng(), untouched());
  }
  // The same data with the widths repaired still trains.
  EXPECT_TRUE(std::isfinite(net.train_epoch(X, Y, opt, rng)));
}

class TrainedFixture : public ::testing::Test {
 protected:
  TrainedFixture() : rng_(23), net_(small_config(0.2), rng_) {
    for (int i = 0; i < 800; ++i) {
      Vector x{rng_.uniform(), rng_.uniform(), rng_.uniform(), rng_.uniform()};
      targets_.push_back({x[0] + 0.5 * x[1], x[2] - x[3]});
      inputs_.push_back(std::move(x));
    }
    TrainOptions opt;
    for (int e = 0; e < 50; ++e) net_.train_epoch(inputs_, targets_, opt, rng_);
  }

  Rng rng_;
  Mlp net_;
  std::vector<Vector> inputs_, targets_;
};

TEST_F(TrainedFixture, CimIdealTracksFloat) {
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 12;
  mc.analog_noise = false;
  Rng crng(29);
  const CimMlp cim(net_, mc, inputs_, crng);
  Rng arng(31);
  for (std::size_t i = 0; i < 30; ++i) {
    const Vector ref = net_.forward(inputs_[i]);
    const Vector y = cim.forward_deterministic(inputs_[i], arng);
    for (std::size_t k = 0; k < y.size(); ++k)
      EXPECT_NEAR(y[k], ref[k], 0.06);
  }
}

/// Dense MC engine on one frame: output t of forward_window for mask set t.
std::vector<Vector> window_frame(const CimMlp& cim, const Vector& x,
                                 const std::vector<std::vector<Mask>>& sets,
                                 std::uint64_t noise_root) {
  CimMlp::FrameBatch frame;
  frame.x = &x;
  frame.mask_sets = &sets;
  frame.noise_root = noise_root;
  CimMlp::WindowScratch scratch;
  std::vector<std::vector<Vector>> outs;
  cim.forward_window({frame}, nullptr, scratch, outs);
  return outs[0];
}

/// Reuse engine on one frame, the sets visited in order as one chain
/// (chain_len = 0: a dense start, then a delta read per set).
std::vector<Vector> reuse_frame(const CimMlp& cim, const Vector& x,
                                const std::vector<std::vector<Mask>>& sets,
                                std::uint64_t noise_root) {
  std::vector<Vector> outs;
  CimMlp::ReuseFrame frame;
  frame.x = &x;
  frame.mask_sets = &sets;
  frame.noise_root = noise_root;
  frame.outs = &outs;
  CimMlp::ReuseScratch scratch;
  cim.forward_reuse_window({frame}, nullptr, scratch);
  return outs;
}

std::vector<std::vector<Mask>> draw_sets(const Mlp& net, int count, double p,
                                         Rng& rng) {
  std::vector<std::vector<Mask>> sets;
  for (int t = 0; t < count; ++t)
    sets.push_back(net.sample_masks([&] { return rng.bernoulli(p); }));
  return sets;
}

TEST_F(TrainedFixture, CimMaskedMatchesReferenceMasked) {
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 12;
  mc.analog_noise = false;
  Rng crng(37);
  const CimMlp cim(net_, mc, inputs_, crng);
  Rng mrng(41);
  const auto sets = draw_sets(net_, 1, 0.2, mrng);
  const Vector ref = net_.forward_masked(inputs_[0], sets[0]);
  for (const Vector& y : {window_frame(cim, inputs_[0], sets, 43)[0],
                          reuse_frame(cim, inputs_[0], sets, 43)[0]}) {
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t k = 0; k < y.size(); ++k)
      EXPECT_NEAR(y[k], ref[k], 0.12);
  }
}

TEST_F(TrainedFixture, ReuseEquivalentToDenseForwardNoiseFree) {
  // The core compute-reuse correctness property: with analog noise off
  // and a lossless ADC, the delta path must reproduce the dense masked
  // forward across a sequence of masks.
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 14;
  mc.analog_noise = false;
  Rng crng(47);
  const CimMlp cim(net_, mc, inputs_, crng);
  Rng mrng(53);
  const auto sets = draw_sets(net_, 12, 0.3, mrng);
  const auto dense = window_frame(cim, inputs_[0], sets, 59);
  const auto reused = reuse_frame(cim, inputs_[0], sets, 59);
  ASSERT_EQ(dense.size(), reused.size());
  for (std::size_t t = 0; t < dense.size(); ++t) {
    ASSERT_EQ(dense[t].size(), reused[t].size());
    for (std::size_t k = 0; k < dense[t].size(); ++k)
      EXPECT_NEAR(reused[t][k], dense[t][k], 1e-6) << "iteration " << t;
  }
}

TEST_F(TrainedFixture, ReuseSavesWordlinePulses) {
  cimsram::CimMacroConfig mc;
  mc.input_bits = 6;
  mc.weight_bits = 6;
  Rng crng(61);
  const CimMlp cim(net_, mc, inputs_, crng);
  Rng mrng(67);
  const auto sets = draw_sets(net_, 20, 0.5, mrng);
  cim.reset_stats();
  window_frame(cim, inputs_[0], sets, 71);
  const auto dense_pulses = cim.total_stats().wordline_pulses;
  cim.reset_stats();
  reuse_frame(cim, inputs_[0], sets, 71);
  const auto reuse_pulses = cim.total_stats().wordline_pulses;
  EXPECT_LT(reuse_pulses, dense_pulses);
}

TEST(CimMlpNoise, AnalogNoiseAccumulatesAcrossReuse) {
  // With analog noise on, repeated delta updates drift relative to a
  // fresh dense evaluation — the trade-off the reuse ablation quantifies.
  Rng rng(97);
  MlpConfig cfg;
  cfg.layer_sizes = {8, 16, 2};
  cfg.dropout_p = 0.5;
  Mlp net(cfg, rng);
  std::vector<Vector> calib;
  for (int i = 0; i < 10; ++i) {
    Vector v(8);
    for (auto& e : v) e = rng.uniform();
    calib.push_back(v);
  }
  cimsram::CimMacroConfig mc;
  mc.noise_coeff = 0.2;
  Rng crng(101);
  const CimMlp cim(net, mc, calib, crng);
  Rng mrng(103);
  const auto sets = draw_sets(net, 30, 0.5, mrng);
  const auto reused = reuse_frame(cim, calib[0], sets, 107);
  const auto dense = window_frame(cim, calib[0], sets, 107);
  double drift = 0.0;
  for (std::size_t t = 0; t < dense.size(); ++t)
    for (std::size_t k = 0; k < dense[t].size(); ++k)
      drift += std::abs(reused[t][k] - dense[t][k]);
  EXPECT_GT(drift, 0.0);
}

TEST(CimMlpMasks, RejectsMaskNarrowerThanItsSite) {
  // Both MC engines validate every mask's width up front: a hidden mask
  // one neuron short, or empty, must throw before any layer reads past
  // its end.
  Rng rng(139);
  const Mlp net(small_config(0.5), rng);
  std::vector<Vector> calib{{0.1, 0.2, 0.3, 0.4}, {0.4, 0.3, 0.2, 0.1}};
  const CimMlp cim(net, cimsram::CimMacroConfig{}, calib, rng);
  const auto sets = draw_sets(net, 3, 0.5, rng);
  // Site 1 (layer 1's outputs) is the column mask the reuse locus
  // epilogue reads.
  const Mask& site = sets[1][1];
  for (const std::size_t width : {site.size() - 1, std::size_t{0}}) {
    auto bad = sets;
    // A fresh exact-size buffer, so a read past its end leaves the heap
    // allocation (and AddressSanitizer reports it).
    bad[1][1] = Mask(site.begin(),
                     site.begin() + static_cast<std::ptrdiff_t>(width));
    EXPECT_THROW(window_frame(cim, calib[0], bad, 1), std::invalid_argument)
        << "width=" << width;
    EXPECT_THROW(reuse_frame(cim, calib[0], bad, 1), std::invalid_argument)
        << "width=" << width;
  }
}

}  // namespace
}  // namespace cimnav::nn
