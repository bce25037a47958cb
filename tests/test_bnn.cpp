// Unit tests for MC-Dropout inference, mask sources, sample ordering,
// workload accounting, and the cross-frame window (forward_window /
// mc_predict_cim_window) bit for bit against the per-frame path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"

namespace cimnav::bnn {
namespace {

using core::Rng;
using nn::Mask;
using nn::Vector;

TEST(Hamming, DistanceBasics) {
  EXPECT_EQ(hamming_distance({1, 0, 1}, {1, 0, 1}), 0u);
  EXPECT_EQ(hamming_distance({1, 0, 1}, {0, 1, 0}), 3u);
  EXPECT_EQ(hamming_distance({1, 1, 0, 0}, {1, 0, 1, 0}), 2u);
  EXPECT_THROW(hamming_distance({1}, {1, 0}), std::invalid_argument);
}

/// Each mask as a one-site set (the tour keys on site 0).
std::vector<std::vector<Mask>> as_sets(const std::vector<Mask>& masks) {
  std::vector<std::vector<Mask>> sets;
  for (const Mask& m : masks) sets.push_back({m});
  return sets;
}

/// The greedy tour over every position of `sets`.
std::vector<std::size_t> greedy_tour(
    const std::vector<std::vector<Mask>>& sets) {
  std::vector<std::size_t> order(sets.size());
  std::vector<std::uint8_t> used;
  greedy_order_chain(sets, 0, sets.size(), order, used);
  return order;
}

/// Sum of consecutive site-0 Hamming distances along `order`.
std::uint64_t tour_length(const std::vector<std::vector<Mask>>& sets,
                          const std::vector<std::size_t>& order) {
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < order.size(); ++i)
    total += hamming_distance(sets[order[i - 1]][0], sets[order[i]][0]);
  return total;
}

TEST(Ordering, GreedyNeverWorseThanIdentity) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Mask> masks;
    for (int t = 0; t < 16; ++t) {
      Mask m(64);
      for (auto& b : m) b = rng.bernoulli(0.5) ? 1 : 0;
      masks.push_back(std::move(m));
    }
    const auto sets = as_sets(masks);
    std::vector<std::size_t> identity(sets.size());
    for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    EXPECT_LE(tour_length(sets, greedy_tour(sets)),
              tour_length(sets, identity));
  }
}

TEST(Ordering, GreedyIsAPermutation) {
  Rng rng(5);
  std::vector<Mask> masks;
  for (int t = 0; t < 12; ++t) {
    Mask m(32);
    for (auto& b : m) b = rng.bernoulli(0.5) ? 1 : 0;
    masks.push_back(std::move(m));
  }
  const auto order = greedy_tour(as_sets(masks));
  std::vector<bool> seen(order.size(), false);
  for (auto i : order) {
    ASSERT_LT(i, order.size());
    ASSERT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Ordering, ClusteredMasksOrderWithinClusters) {
  // Two families of masks: all-low and all-high halves. Greedy ordering
  // should traverse one family before jumping to the other exactly once.
  std::vector<Mask> masks;
  for (int t = 0; t < 4; ++t) {
    Mask m(16, 0);
    for (int i = 0; i < 8; ++i) m[static_cast<std::size_t>(i)] = 1;
    m[static_cast<std::size_t>(t)] = 0;  // slight intra-family variation
    masks.push_back(m);
  }
  for (int t = 0; t < 4; ++t) {
    Mask m(16, 0);
    for (int i = 8; i < 16; ++i) m[static_cast<std::size_t>(i)] = 1;
    m[static_cast<std::size_t>(8 + t)] = 0;
    masks.push_back(m);
  }
  const auto order = greedy_tour(as_sets(masks));
  int family_switches = 0;
  for (std::size_t i = 1; i < order.size(); ++i)
    if ((order[i] < 4) != (order[i - 1] < 4)) ++family_switches;
  EXPECT_EQ(family_switches, 1);
}

TEST(McPrediction, ScalarVarianceIsMeanOfVariances) {
  McPrediction p;
  p.variance = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(p.scalar_variance(), 2.0);
  EXPECT_DOUBLE_EQ(McPrediction{}.scalar_variance(), 0.0);
}

class McFixture : public ::testing::Test {
 protected:
  McFixture() : rng_(7), net_(make_config(), rng_) {
    // Give the network non-trivial weights.
    std::vector<Vector> X, Y;
    for (int i = 0; i < 400; ++i) {
      Vector x{rng_.uniform(), rng_.uniform(), rng_.uniform()};
      Y.push_back({x[0] + x[1] - x[2]});
      X.push_back(std::move(x));
    }
    nn::TrainOptions opt;
    for (int e = 0; e < 40; ++e) net_.train_epoch(X, Y, opt, rng_);
  }
  static nn::MlpConfig make_config() {
    nn::MlpConfig cfg;
    cfg.layer_sizes = {3, 12, 6, 1};
    cfg.dropout_p = 0.3;
    cfg.dropout_on_input = false;
    return cfg;
  }
  Rng rng_;
  nn::Mlp net_;
};

TEST_F(McFixture, FloatMcMeanNearDeterministic) {
  SoftwareMaskSource masks(Rng{11});
  const Vector x{0.4, 0.6, 0.2};
  const auto pred = mc_predict_float(net_, x, 500, 0.3, masks);
  EXPECT_EQ(pred.samples, 500);
  EXPECT_NEAR(pred.mean[0], net_.forward(x)[0], 0.1);
  EXPECT_GT(pred.variance[0], 0.0);
}

TEST_F(McFixture, VarianceShrinksConvergesWithIterations) {
  // The MC estimate of the mean stabilizes as T grows.
  const Vector x{0.4, 0.6, 0.2};
  auto spread_at = [&](int T) {
    core::RunningStats s;
    for (int rep = 0; rep < 12; ++rep) {
      SoftwareMaskSource masks(Rng{static_cast<std::uint64_t>(100 + rep)});
      s.add(mc_predict_float(net_, x, T, 0.3, masks).mean[0]);
    }
    return s.stddev();
  };
  EXPECT_LT(spread_at(120), spread_at(5));
}

TEST_F(McFixture, CimPredictionMatchesFloatMc) {
  std::vector<Vector> calib;
  Rng crng(13);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 12;
  mc.analog_noise = false;
  Rng nrng(17);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  SoftwareMaskSource masks(Rng{19});
  McOptions opt;
  opt.iterations = 300;
  opt.dropout_p = 0.3;
  Rng arng(23);
  const Vector x{0.4, 0.6, 0.2};
  const auto pred = mc_predict_cim(cim, x, opt, masks, arng);
  SoftwareMaskSource masks2(Rng{19});
  const auto ref = mc_predict_float(net_, x, 300, 0.3, masks2);
  EXPECT_NEAR(pred.mean[0], ref.mean[0], 0.08);
}

TEST_F(McFixture, ReuseAndOrderingPreserveStatistics) {
  std::vector<Vector> calib;
  Rng crng(29);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.input_bits = 8;
  mc.weight_bits = 8;
  mc.adc_bits = 14;  // lossless readout: delta == dense exactly
  mc.analog_noise = false;
  Rng nrng(31);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const Vector x{0.4, 0.6, 0.2};

  auto run = [&](bool reuse, bool order) {
    SoftwareMaskSource masks(Rng{37});
    McOptions opt;
    opt.iterations = 200;
    opt.dropout_p = 0.3;
    opt.compute_reuse = reuse;
    opt.order_samples = order;
    Rng arng(41);
    return mc_predict_cim(cim, x, opt, masks, arng);
  };
  const auto base = run(false, false);
  const auto reuse = run(true, false);
  const auto both = run(true, true);
  // Same mask source seed -> same mask multiset. The delta accumulator
  // rounds through the ADC once per update, so a ~half-LSB random walk
  // over 200 iterations bounds the disagreement; ordering only permutes
  // the sample set.
  EXPECT_NEAR(reuse.mean[0], base.mean[0], 1e-3);
  EXPECT_NEAR(both.mean[0], base.mean[0], 1e-3);
  EXPECT_NEAR(both.variance[0], base.variance[0], 1e-3);
}

TEST_F(McFixture, WorkloadShowsReuseAndOrderingSavings) {
  std::vector<Vector> calib;
  Rng crng(43);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  Rng nrng(47);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const Vector x{0.4, 0.6, 0.2};

  auto workload_of = [&](bool reuse, bool order) {
    SoftwareMaskSource masks(Rng{53});
    McOptions opt;
    opt.iterations = 40;
    opt.dropout_p = 0.5;
    opt.compute_reuse = reuse;
    opt.order_samples = order;
    Rng arng(59);
    McWorkload wl;
    mc_predict_cim(cim, x, opt, masks, arng, &wl);
    return wl;
  };
  const auto dense = workload_of(false, false);
  const auto reuse = workload_of(true, false);
  const auto both = workload_of(true, true);
  EXPECT_LT(reuse.macro.wordline_pulses, dense.macro.wordline_pulses);
  EXPECT_LE(both.input_mask_flips, reuse.input_mask_flips);
  EXPECT_LE(both.macro.wordline_pulses, reuse.macro.wordline_pulses);
  EXPECT_GT(dense.mask_bits_drawn, 0u);
}

TEST_F(McFixture, WindowAttributionIsExactPerFrame) {
  std::vector<Vector> calib;
  Rng crng(83);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  Rng nrng(89);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const std::vector<Vector> inputs = {{0.4, 0.6, 0.2},
                                      {0.1, 0.9, 0.3},
                                      {0.7, 0.2, 0.5},
                                      {0.3, 0.3, 0.8}};
  std::vector<const Vector*> xs;
  for (const auto& x : inputs) xs.push_back(&x);

  const auto make_opt = [](core::ThreadPool* pool) {
    McOptions opt;
    opt.iterations = 9;
    opt.dropout_p = 0.4;
    opt.pool = pool;
    return opt;
  };
  const auto expect_stats_eq = [](const cimsram::MacroStats& a,
                                  const cimsram::MacroStats& b) {
    EXPECT_EQ(a.matvec_calls, b.matvec_calls);
    EXPECT_EQ(a.wordline_pulses, b.wordline_pulses);
    EXPECT_EQ(a.wordline_col_drives, b.wordline_col_drives);
    EXPECT_EQ(a.adc_conversions, b.adc_conversions);
    EXPECT_EQ(a.analog_cycles, b.analog_cycles);
    EXPECT_EQ(a.nominal_macs, b.nominal_macs);
  };

  // Serial per-frame reference: the same mask/noise consumption, one
  // measured counter delta per frame.
  std::vector<cimsram::MacroStats> ref;
  {
    SoftwareMaskSource masks(Rng{97});
    const McOptions opt = make_opt(nullptr);
    Rng arng(101);
    for (const auto* x : xs) {
      const auto before = cim.total_stats();
      mc_predict_cim(cim, *x, opt, masks, arng);
      ref.push_back(cim.total_stats() - before);
    }
  }

  core::ThreadPool p4(4);
  for (core::ThreadPool* pool :
       {static_cast<core::ThreadPool*>(nullptr), &p4}) {
    SoftwareMaskSource masks(Rng{97});
    Rng arng(101);
    McWorkload total;
    std::vector<McWorkload> per_frame;
    const auto before = cim.total_stats();
    mc_predict_cim_window(cim, xs, make_opt(pool), masks, arng, &total, 0,
                          {}, &per_frame);
    const auto window_delta = cim.total_stats() - before;

    ASSERT_EQ(per_frame.size(), xs.size());
    cimsram::MacroStats sum;
    for (std::size_t f = 0; f < per_frame.size(); ++f) {
      sum += per_frame[f].macro;
      // Exact attribution: each frame's captured stats equal the frame's
      // serial counter delta, not an even share of the window.
      expect_stats_eq(per_frame[f].macro, ref[f]);
    }
    // Conservation: the per-frame parts sum to the measured window delta.
    expect_stats_eq(sum, window_delta);
    expect_stats_eq(total.macro, window_delta);
  }
}

TEST_F(McFixture, PeriodicRefreshBoundsReuseDrift) {
  // With analog noise, the delta accumulator random-walks; refreshing it
  // every few iterations keeps the MC mean near the dense-path mean.
  std::vector<Vector> calib;
  Rng crng(73);
  for (int i = 0; i < 20; ++i)
    calib.push_back({crng.uniform(), crng.uniform(), crng.uniform()});
  cimsram::CimMacroConfig mc;
  mc.noise_coeff = 0.3;  // strong noise makes the drift visible
  Rng nrng(79);
  const nn::CimMlp cim(net_, mc, calib, nrng);
  const Vector x{0.4, 0.6, 0.2};

  auto mean_gap = [&](int refresh) {
    double gap = 0.0;
    const int reps = 6;
    for (int r = 0; r < reps; ++r) {
      SoftwareMaskSource m1(Rng{200 + static_cast<std::uint64_t>(r)});
      SoftwareMaskSource m2(Rng{200 + static_cast<std::uint64_t>(r)});
      McOptions with_reuse;
      with_reuse.iterations = 60;
      with_reuse.dropout_p = 0.3;
      with_reuse.compute_reuse = true;
      with_reuse.reuse_refresh_interval = refresh;
      McOptions dense = with_reuse;
      dense.compute_reuse = false;
      Rng a1(300 + static_cast<std::uint64_t>(r));
      Rng a2(300 + static_cast<std::uint64_t>(r));
      const auto pr = mc_predict_cim(cim, x, with_reuse, m1, a1);
      const auto pd = mc_predict_cim(cim, x, dense, m2, a2);
      gap += std::abs(pr.mean[0] - pd.mean[0]) / reps;
    }
    return gap;
  };
  EXPECT_LT(mean_gap(4), mean_gap(0));
}

// ---- Cross-frame window: bit-identity against the per-frame path ----

constexpr int kWindowIn = 24;

std::unique_ptr<nn::Mlp> make_window_net(bool dropout_on_input) {
  Rng rng(5);
  nn::MlpConfig cfg;
  cfg.layer_sizes = {kWindowIn, 16, 8, 3};
  cfg.dropout_on_input = dropout_on_input;
  return std::make_unique<nn::Mlp>(cfg, rng);
}

std::unique_ptr<nn::CimMlp> make_window_cim(const nn::Mlp& net) {
  Rng rng(5);
  std::vector<Vector> calib;
  for (int i = 0; i < 4; ++i) {
    Vector v(kWindowIn);
    for (auto& e : v) e = rng.uniform();
    calib.push_back(std::move(v));
  }
  cimsram::CimMacroConfig mc;
  mc.input_bits = 4;
  mc.weight_bits = 4;
  Rng crng(7);
  return std::make_unique<nn::CimMlp>(net, mc, calib, crng);
}

/// Pure function of the frame index (keyed stream).
Vector window_input(int frame) {
  Rng rng = Rng::stream(0xF00D, static_cast<std::uint64_t>(frame));
  Vector x(kWindowIn);
  for (auto& e : x) e = rng.uniform();
  return x;
}

void expect_same_prediction(const McPrediction& a, const McPrediction& b) {
  ASSERT_EQ(a.mean.size(), b.mean.size());
  EXPECT_EQ(a.samples, b.samples);
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    EXPECT_EQ(a.mean[i], b.mean[i]);
    EXPECT_EQ(a.variance[i], b.variance[i]);
  }
}

/// Serial reference for one (frame, iteration) item of forward_window:
/// the masked forward written against the public macro surface, with the
/// float network's biases and the CIM net's inverted-dropout scale.
Vector serial_item_forward(const nn::Mlp& net, const nn::CimMlp& cim,
                           const Vector& x, const std::vector<Mask>& set,
                           Rng& rng) {
  const double keep = cim.dropout_keep_scale();
  const Mask none;
  std::size_t site = 0;
  const Mask* rows = cim.dropout_on_input() ? &set[site++] : &none;
  Vector a = x;
  if (cim.dropout_on_input())
    for (double& v : a) v *= keep;
  std::vector<std::uint64_t> gate;
  cimsram::EncodedInput enc;
  Vector z;
  for (int l = 0; l < cim.layer_count(); ++l) {
    const bool hidden = l + 1 < cim.layer_count();
    const Mask& cols = hidden ? set[site] : none;
    const cimsram::CimMacro& macro = cim.macro(l);
    macro.encode_input(a, enc);
    cimsram::pack_row_mask(*rows, macro.n_in(), gate);
    macro.matvec_encoded(enc, gate, cols, &rng, z);
    const Vector& bias = net.biases(l);
    for (std::size_t i = 0; i < z.size(); ++i)
      z[i] = (!cols.empty() && !cols[i]) ? 0.0 : z[i] + bias[i];
    if (hidden) {
      for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = cols[i] ? std::max(0.0, z[i]) * keep : 0.0;
      rows = &cols;
      ++site;
    }
    a = z;
  }
  return a;
}

TEST(ForwardWindow, BitIdenticalToSerialPerItemForward) {
  for (bool on_input : {false, true}) {
    const auto net = make_window_net(on_input);
    const auto cim = make_window_cim(*net);
    constexpr int kFrames = 5, kIters = 7;

    // Draw per-frame mask sets once; both paths replay the same sets.
    Rng mask_rng(21);
    const int sites = (on_input ? 1 : 0) + cim->layer_count() - 1;
    std::vector<std::vector<std::vector<Mask>>> sets(kFrames);
    for (auto& frame_sets : sets) {
      frame_sets.resize(kIters);
      for (auto& set : frame_sets) {
        set.resize(static_cast<std::size_t>(sites));
        for (int s = 0; s < sites; ++s) {
          const int width = s == 0 && on_input
                                ? cim->macro(0).n_in()
                                : cim->macro(s - (on_input ? 1 : 0)).n_out();
          set[static_cast<std::size_t>(s)].resize(
              static_cast<std::size_t>(width));
          for (auto& bit : set[static_cast<std::size_t>(s)])
            bit = mask_rng.bernoulli(0.5) ? 0 : 1;
        }
      }
    }
    std::vector<Vector> inputs;
    for (int f = 0; f < kFrames; ++f) inputs.push_back(window_input(f));

    std::vector<nn::CimMlp::FrameBatch> frames(kFrames);
    for (int f = 0; f < kFrames; ++f) {
      const auto fi = static_cast<std::size_t>(f);
      frames[fi].x = &inputs[fi];
      frames[fi].mask_sets = &sets[fi];
      frames[fi].noise_root = 1000u + static_cast<std::uint64_t>(f);
    }

    core::ThreadPool p8(8);
    nn::CimMlp::WindowScratch scratch;
    std::vector<std::vector<Vector>> window_outs;
    cim->forward_window(frames, &p8, scratch, window_outs);
    // A second run through the same scratch must reuse buffers cleanly.
    cim->forward_window(frames, &p8, scratch, window_outs);

    ASSERT_EQ(window_outs.size(), static_cast<std::size_t>(kFrames));
    for (int f = 0; f < kFrames; ++f) {
      const auto fi = static_cast<std::size_t>(f);
      ASSERT_EQ(window_outs[fi].size(), sets[fi].size());
      for (std::size_t t = 0; t < sets[fi].size(); ++t) {
        Rng item_rng =
            Rng::stream(1000u + static_cast<std::uint64_t>(f), t);
        const Vector ref =
            serial_item_forward(*net, *cim, inputs[fi], sets[fi][t],
                                item_rng);
        ASSERT_EQ(window_outs[fi][t].size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j)
          EXPECT_EQ(window_outs[fi][t][j], ref[j])
              << "on_input=" << on_input << " f=" << f << " t=" << t;
      }
    }
  }
}

TEST(McPredictCimWindow, BitIdenticalToSerialPerFrameCalls) {
  for (bool on_input : {false, true}) {
    const auto net = make_window_net(on_input);
    const auto cim = make_window_cim(*net);
    constexpr int kFrames = 6;
    std::vector<Vector> inputs;
    std::vector<const Vector*> xs;
    for (int f = 0; f < kFrames; ++f) inputs.push_back(window_input(f));
    for (const auto& x : inputs) xs.push_back(&x);

    McOptions opt;
    opt.iterations = 9;
    opt.dropout_p = 0.5;

    // Serial reference: frame-at-a-time draws from the same sources.
    std::vector<McPrediction> ref;
    McWorkload ref_wl;
    {
      SoftwareMaskSource masks(Rng{11});
      Rng arng(13);
      for (const auto& x : inputs) {
        McWorkload wl;
        ref.push_back(mc_predict_cim(*cim, x, opt, masks, arng, &wl));
        ref_wl += wl;
      }
    }

    core::ThreadPool p1(1), p2(2), p8(8);
    for (core::ThreadPool* pool :
         {static_cast<core::ThreadPool*>(nullptr), &p1, &p2, &p8}) {
      SoftwareMaskSource masks(Rng{11});
      Rng arng(13);
      McOptions wopt = opt;
      wopt.pool = pool;
      McWorkload wl;
      const auto preds = mc_predict_cim_window(*cim, xs, wopt, masks, arng,
                                               &wl);
      ASSERT_EQ(preds.size(), ref.size());
      for (std::size_t f = 0; f < ref.size(); ++f)
        expect_same_prediction(preds[f], ref[f]);
      EXPECT_EQ(wl.macro.wordline_pulses, ref_wl.macro.wordline_pulses);
      EXPECT_EQ(wl.macro.adc_conversions, ref_wl.macro.adc_conversions);
      EXPECT_EQ(wl.mask_bits_drawn, ref_wl.mask_bits_drawn);
      EXPECT_EQ(wl.input_mask_flips, ref_wl.input_mask_flips);
    }
  }
}

TEST(McPredictCimWindow, RejectsSideItems) {
  const auto net = make_window_net(false);
  const auto cim = make_window_cim(*net);
  const Vector x0 = window_input(0);
  const std::vector<const Vector*> xs{&x0};
  SoftwareMaskSource masks(Rng{11});
  Rng arng(13);
  McOptions opt;
  opt.iterations = 3;
  EXPECT_THROW(mc_predict_cim_window(*cim, xs, opt, masks, arng, nullptr, 1,
                                     [](std::size_t) {}),
               std::invalid_argument);
}

TEST(MaskSources, SoftwareMatchesProbability) {
  SoftwareMaskSource src(Rng{61});
  int drops = 0;
  for (int i = 0; i < 20000; ++i) drops += src.draw(0.3) ? 1 : 0;
  EXPECT_NEAR(drops / 20000.0, 0.3, 0.02);
}

TEST(MaskSources, LfsrBalancedAtHalf) {
  LfsrMaskSource src(0xBEEF);
  int drops = 0;
  for (int i = 0; i < 20000; ++i) drops += src.draw(0.5) ? 1 : 0;
  EXPECT_NEAR(drops / 20000.0, 0.5, 0.03);
}

TEST(MaskSources, SramSourceCalibratesAndDraws) {
  SramMaskSource src(cimsram::SramRngParams{}, Rng{67}, Rng{71}, 4096);
  EXPECT_GE(src.initial_bias(), 0.0);
  EXPECT_LE(src.initial_bias(), 1.0);
  int drops = 0;
  for (int i = 0; i < 20000; ++i) drops += src.draw(0.5) ? 1 : 0;
  EXPECT_NEAR(drops / 20000.0, 0.5, 0.03);
  // Non-half probabilities via binary expansion.
  drops = 0;
  for (int i = 0; i < 20000; ++i) drops += src.draw(0.125) ? 1 : 0;
  EXPECT_NEAR(drops / 20000.0, 0.125, 0.02);
}

}  // namespace
}  // namespace cimnav::bnn
