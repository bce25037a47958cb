// Unit tests for the neural-network stack: matrix ops, MLP training,
// CIM-executed inference and compute reuse.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace cimnav::nn {
namespace {

using core::Rng;

TEST(Matrix, MatvecAndTranspose) {
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
  const Vector yt = m.matvec_transposed({1, 1});
  EXPECT_DOUBLE_EQ(yt[0], 5);
  EXPECT_DOUBLE_EQ(yt[1], 7);
  EXPECT_DOUBLE_EQ(yt[2], 9);
}

TEST(Matrix, SizeChecks) {
  Matrix m(2, 3);
  EXPECT_THROW(m.matvec({1, 1}), std::invalid_argument);
  EXPECT_THROW(m.matvec_transposed({1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
}

MlpConfig small_config(double p = 0.0, bool input_dropout = false) {
  MlpConfig cfg;
  cfg.layer_sizes = {4, 16, 8, 2};
  cfg.dropout_p = p;
  cfg.dropout_on_input = input_dropout;
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
  const Mlp hidden_only(small_config(0.5, false), rng);
  EXPECT_EQ(hidden_only.dropout_site_count(), 2);
  EXPECT_EQ(hidden_only.dropout_site_width(0), 16);
  EXPECT_EQ(hidden_only.dropout_site_width(1), 8);
  const Mlp with_input(small_config(0.5, true), rng);
  EXPECT_EQ(with_input.dropout_site_count(), 3);
  EXPECT_EQ(with_input.dropout_site_width(0), 4);
}

TEST(Mlp, AllOnesMaskEqualsScaledForward) {
  // With every neuron kept, the masked forward is the deterministic
  // forward scaled by keep_scale at each site (inverted dropout).
  Rng rng(7);
  MlpConfig cfg = small_config(0.5, false);
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
  // For a single weight layer (no ReLU between dropout and output),
  // inverted dropout makes E[masked forward] equal the deterministic
  // forward exactly; only Monte-Carlo error remains.
  Rng rng(11);
  MlpConfig cfg;
  cfg.layer_sizes = {4, 2};
  cfg.dropout_p = 0.3;
  cfg.dropout_on_input = true;
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
  const Mlp net(small_config(0.3, false), rng);
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
  Mlp net(small_config(0.1, false), rng);
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

class TrainedFixture : public ::testing::Test {
 protected:
  TrainedFixture() : rng_(23), net_(small_config(0.2, false), rng_) {
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

TEST(CimMlpInputDropout, ReuseEquivalenceWithInputSite) {
  // Same property for the input-site dropout configuration.
  Rng rng(73);
  MlpConfig cfg;
  cfg.layer_sizes = {6, 12, 3};
  cfg.dropout_p = 0.4;
  cfg.dropout_on_input = true;
  Mlp net(cfg, rng);
  std::vector<Vector> calib;
  for (int i = 0; i < 20; ++i)
    calib.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                     rng.uniform(), rng.uniform(), rng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 14;
  mc.analog_noise = false;
  Rng crng(79);
  const CimMlp cim(net, mc, calib, crng);
  Rng mrng(83);
  const auto sets = draw_sets(net, 10, 0.4, mrng);
  const auto dense = window_frame(cim, calib[0], sets, 89);
  const auto reused = reuse_frame(cim, calib[0], sets, 89);
  for (std::size_t t = 0; t < dense.size(); ++t)
    for (std::size_t k = 0; k < dense[t].size(); ++k)
      EXPECT_NEAR(reused[t][k], dense[t][k], 1e-6);
}

TEST(CimMlpNoise, AnalogNoiseAccumulatesAcrossReuse) {
  // With analog noise on, repeated delta updates drift relative to a
  // fresh dense evaluation — the trade-off the reuse ablation quantifies.
  Rng rng(97);
  MlpConfig cfg;
  cfg.layer_sizes = {8, 16, 2};
  cfg.dropout_p = 0.5;
  cfg.dropout_on_input = false;
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
  for (const bool on_input : {false, true}) {
    const Mlp net(small_config(0.5, on_input), rng);
    std::vector<Vector> calib{{0.1, 0.2, 0.3, 0.4}, {0.4, 0.3, 0.2, 0.1}};
    const CimMlp cim(net, cimsram::CimMacroConfig{}, calib, rng);
    const auto sets = draw_sets(net, 3, 0.5, rng);
    // Site 1 is the column mask the reuse locus epilogue reads in both
    // dropout modes (layer 0's outputs with input-site dropout, layer 1's
    // with hidden-site dropout).
    const Mask& site = sets[1][1];
    for (const std::size_t width : {site.size() - 1, std::size_t{0}}) {
      auto bad = sets;
      // A fresh exact-size buffer, so a read past its end leaves the heap
      // allocation (and AddressSanitizer reports it).
      bad[1][1] = Mask(site.begin(),
                       site.begin() + static_cast<std::ptrdiff_t>(width));
      EXPECT_THROW(window_frame(cim, calib[0], bad, 1), std::invalid_argument)
          << "on_input=" << on_input << " width=" << width;
      EXPECT_THROW(reuse_frame(cim, calib[0], bad, 1), std::invalid_argument)
          << "on_input=" << on_input << " width=" << width;
    }
  }
}

}  // namespace
}  // namespace cimnav::nn
