// Unit tests for the VO pipeline: observations, trajectories and the
// end-to-end precision/uncertainty behavior.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "vo/observation.hpp"
#include "vo/pipeline.hpp"
#include "vo/trajectory.hpp"

namespace cimnav::vo {
namespace {

using core::Pose;
using core::Rng;
using core::Vec3;

TEST(Squash, BoundedAndMonotone) {
  double prev = -1.0;
  for (double x = -100; x <= 100; x += 0.5) {
    const double s = squash(x, 2.0);
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
    EXPECT_GT(s, prev);
    prev = s;
  }
  EXPECT_DOUBLE_EQ(squash(0.0, 2.0), 0.5);
}

TEST(Observation, FeatureSizeAndRange) {
  Rng rng(3);
  const auto obs = ObservationModel::random(10, {0, 0, 0}, {4, 3, 2}, rng);
  EXPECT_EQ(obs.feature_size(), 30);
  const auto f = obs.observe(Pose{{2, 1.5, 1}, 0.3}, rng);
  ASSERT_EQ(f.size(), 30u);
  for (double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Observation, CleanObservationIsDeterministicAndPoseSensitive) {
  Rng rng(5);
  const auto obs = ObservationModel::random(8, {0, 0, 0}, {4, 3, 2}, rng);
  const Pose a{{1, 1, 1}, 0.0};
  const Pose b{{1.5, 1, 1}, 0.0};
  EXPECT_EQ(obs.observe_clean(a), obs.observe_clean(a));
  EXPECT_NE(obs.observe_clean(a), obs.observe_clean(b));
}

TEST(Observation, OutOfRangeLandmarksReadNeutral) {
  const ObservationModel obs({{10, 0, 0}}, 0.0, 3.0);
  const auto f = obs.observe_clean(Pose{{0, 0, 0}, 0.0});
  EXPECT_DOUBLE_EQ(f[0], 0.5);
  EXPECT_DOUBLE_EQ(f[1], 0.5);
  EXPECT_DOUBLE_EQ(f[2], 0.5);
  EXPECT_EQ(obs.visible_count(Pose{{0, 0, 0}, 0.0}), 0);
  EXPECT_EQ(obs.visible_count(Pose{{8, 0, 0}, 0.0}), 1);
}

TEST(Observation, VisibilityVariesAlongTrajectory) {
  Rng rng(7);
  const auto obs = ObservationModel::random(24, {-0.5, -0.5, 0}, {4.5, 3.5, 2.5},
                                            rng);
  VoTrajectoryConfig tc;
  const auto poses = make_vo_trajectory(tc);
  int min_vis = 1000, max_vis = 0;
  for (const auto& p : poses) {
    const int v = obs.visible_count(p);
    min_vis = std::min(min_vis, v);
    max_vis = std::max(max_vis, v);
  }
  EXPECT_LT(min_vis, max_vis);  // difficulty varies across frames
}

TEST(Trajectory, StaysInsideBox) {
  VoTrajectoryConfig tc;
  const auto poses = make_vo_trajectory(tc);
  EXPECT_EQ(poses.size(), static_cast<std::size_t>(tc.steps) + 1);
  for (const auto& p : poses) {
    EXPECT_GE(p.position.x, tc.box_min.x - 1e-9);
    EXPECT_LE(p.position.x, tc.box_max.x + 1e-9);
    EXPECT_GE(p.position.z, tc.box_min.z - 1e-9);
    EXPECT_LE(p.position.z, tc.box_max.z + 1e-9);
  }
}

TEST(Trajectory, StepsAreSmooth) {
  VoTrajectoryConfig tc;
  tc.steps = 200;
  const auto poses = make_vo_trajectory(tc);
  for (std::size_t i = 1; i < poses.size(); ++i) {
    EXPECT_LT(poses[i].position_error(poses[i - 1]), 0.25);
    EXPECT_LT(poses[i].yaw_error(poses[i - 1]), 0.15);
  }
}

TEST(Trajectory, DeltasReplayToPath) {
  VoTrajectoryConfig tc;
  tc.steps = 50;
  const auto poses = make_vo_trajectory(tc);
  Pose p = poses.front();
  for (std::size_t i = 0; i + 1 < poses.size(); ++i) {
    p = p.compose(relative_delta(poses[i], poses[i + 1]));
    EXPECT_NEAR(p.position_error(poses[i + 1]), 0.0, 1e-9);
  }
}

/// 64-bit FNV-1a over the bytes of every weight, then every bias, layer
/// by layer.
std::uint64_t parameter_hash(const nn::Mlp& net) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const std::vector<double>& values) {
    for (const double v : values) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  };
  for (int l = 0; l < net.layer_count(); ++l) {
    mix(net.weights(l).data());
    mix(net.biases(l));
  }
  return h;
}

TEST(VoTraining, TrainedWeightsArePinnedOnEveryBuild) {
  // A short fixed training run. Nothing in the build fuses a * b + c, so
  // native (FMA) and portable builds train the same bits; a build that
  // contracts moves the hash.
  VoPipelineConfig cfg;
  cfg.train_samples = 1000;
  cfg.train.epochs = 2;
  cfg.test_steps = 40;
  const VoPipeline p(cfg);
  EXPECT_EQ(parameter_hash(p.network()), 0x171d62a9f7e6f2d9ull);
  EXPECT_EQ(p.test_mse(), 0.032976698962392331);
}

class PipelineFixture : public ::testing::Test {
 protected:
  static const VoPipeline& pipeline() {
    // Expensive (training); shared across tests in this suite.
    static const VoPipeline* p = [] {
      VoPipelineConfig cfg;
      cfg.train_samples = 2500;
      cfg.train.epochs = 80;
      cfg.test_steps = 120;  // keeps test deltas inside the train envelope
      cfg.hidden_sizes = {128, 64};
      return new VoPipeline(cfg);
    }();
    return *p;
  }
};

TEST_F(PipelineFixture, TrainingLearnsTheTask) {
  // Test MSE well below the target variance (~0.0038).
  EXPECT_LT(pipeline().test_mse(), 0.002);
}

TEST_F(PipelineFixture, FloatRunTracksTrajectory) {
  const VoRun run = pipeline().run_float();
  EXPECT_EQ(run.estimated.size(), pipeline().test_trajectory().size());
  EXPECT_LT(run.mean_delta_error, 0.08);
  EXPECT_GT(run.ate_rmse, 0.0);
}

TEST_F(PipelineFixture, McDropoutBeatsDeterministicOnCim) {
  // The paper's central Fig. 3(c-e) phenomenon: at a fixed low precision,
  // averaging MC-Dropout samples absorbs analog noise that cripples the
  // single-pass deterministic evaluation.
  cimsram::CimMacroConfig mc;
  mc.input_bits = 6;
  mc.weight_bits = 6;
  mc.adc_bits = 6;
  const VoRun det = pipeline().run_cim_deterministic(mc);
  bnn::SoftwareMaskSource masks(Rng{17});
  bnn::McOptions opt;
  opt.iterations = 30;
  opt.dropout_p = pipeline().config().dropout_p;
  const VoRun mcrun = pipeline().run_cim_mc(mc, opt, masks);
  EXPECT_LT(mcrun.mean_delta_error, det.mean_delta_error);
}

TEST_F(PipelineFixture, McVarianceIsReported) {
  cimsram::CimMacroConfig mc;
  mc.input_bits = 6;
  mc.weight_bits = 6;
  bnn::SoftwareMaskSource masks(Rng{19});
  bnn::McOptions opt;
  opt.iterations = 20;
  opt.dropout_p = pipeline().config().dropout_p;
  const VoRun run = pipeline().run_cim_mc(mc, opt, masks);
  int positive = 0;
  for (double v : run.frame_variance)
    if (v > 0.0) ++positive;
  EXPECT_EQ(positive, static_cast<int>(run.frame_variance.size()));
}

TEST_F(PipelineFixture, PooledMcRunBitIdenticalToSerial) {
  // Threading the per-frame MC iterations over a pool (the
  // VoPipelineConfig::pool route) must not change a single prediction:
  // noise streams are keyed on iteration indices, masks are drawn
  // serially per frame.
  cimsram::CimMacroConfig mc;
  mc.input_bits = 4;
  mc.weight_bits = 4;
  auto run_with = [&](core::ThreadPool* pool) {
    bnn::SoftwareMaskSource masks(Rng{29});
    bnn::McOptions opt;
    opt.iterations = 8;
    opt.dropout_p = pipeline().config().dropout_p;
    opt.pool = pool;
    return pipeline().run_cim_mc(mc, opt, masks);
  };
  const VoRun serial = run_with(nullptr);
  core::ThreadPool pool(4);
  const VoRun pooled = run_with(&pool);
  ASSERT_EQ(serial.frame_delta_error.size(), pooled.frame_delta_error.size());
  for (std::size_t i = 0; i < serial.frame_delta_error.size(); ++i) {
    EXPECT_EQ(serial.frame_delta_error[i], pooled.frame_delta_error[i]);
    EXPECT_EQ(serial.frame_variance[i], pooled.frame_variance[i]);
  }
  EXPECT_EQ(serial.ate_rmse, pooled.ate_rmse);
}

TEST_F(PipelineFixture, CimMcBitIdenticalToPerFrameLoop) {
  // run_cim_mc batches every test frame into one window; it must
  // reproduce a frame-at-a-time mc_predict_cim loop prediction for
  // prediction (same network snapshot, same mask and analog-noise
  // streams), dense and compute-reuse, serial and pooled.
  cimsram::CimMacroConfig mc;
  mc.input_bits = 4;
  mc.weight_bits = 4;
  const auto cim = pipeline().make_cim_network(mc);
  core::ThreadPool pool(4);
  for (bool reuse : {false, true}) {
    bnn::McOptions opt;
    opt.iterations = 6;
    opt.dropout_p = pipeline().config().dropout_p;
    opt.compute_reuse = reuse;

    // The per-frame reference: run_cim_mc's analog stream is seeded at
    // config().seed + 321.
    std::vector<bnn::McPrediction> ref;
    bnn::McWorkload ref_wl;
    {
      bnn::SoftwareMaskSource masks(Rng{31});
      Rng analog(pipeline().config().seed + 321);
      for (const auto& x : pipeline().test_inputs())
        ref.push_back(bnn::mc_predict_cim(*cim, x, opt, masks, analog,
                                          &ref_wl));
    }

    for (core::ThreadPool* p : {static_cast<core::ThreadPool*>(nullptr),
                                &pool}) {
      bnn::SoftwareMaskSource masks(Rng{31});
      bnn::McOptions popt = opt;
      popt.pool = p;
      bnn::McWorkload wl;
      const VoRun run = pipeline().run_cim_mc(mc, popt, masks, &wl);
      EXPECT_EQ(run.label, reuse ? "cim-mc-4b+reuse" : "cim-mc-4b");
      ASSERT_EQ(run.frame_variance.size(), ref.size());
      const auto& targets = pipeline().test_targets();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const nn::Vector& m = ref[i].mean;
        const nn::Vector& t = targets[i];
        const double de = std::sqrt((m[0] - t[0]) * (m[0] - t[0]) +
                                    (m[1] - t[1]) * (m[1] - t[1]) +
                                    (m[2] - t[2]) * (m[2] - t[2]));
        EXPECT_EQ(run.frame_delta_error[i], de) << "frame " << i;
        EXPECT_EQ(run.frame_variance[i], ref[i].scalar_variance())
            << "frame " << i;
      }
      EXPECT_EQ(wl.macro.wordline_pulses, ref_wl.macro.wordline_pulses);
      EXPECT_EQ(wl.macro.adc_conversions, ref_wl.macro.adc_conversions);
      EXPECT_EQ(wl.mask_bits_drawn, ref_wl.mask_bits_drawn);
      EXPECT_EQ(wl.input_mask_flips, ref_wl.input_mask_flips);
    }
  }
}

TEST_F(PipelineFixture, WorkloadAccumulatesAcrossFrames) {
  cimsram::CimMacroConfig mc;
  bnn::SoftwareMaskSource masks(Rng{23});
  bnn::McOptions opt;
  opt.iterations = 10;
  opt.dropout_p = pipeline().config().dropout_p;
  opt.compute_reuse = true;
  bnn::McWorkload wl;
  pipeline().run_cim_mc(mc, opt, masks, &wl);
  EXPECT_GT(wl.macro.matvec_calls, 0u);
  EXPECT_GT(wl.mask_bits_drawn, 0u);
}

}  // namespace
}  // namespace cimnav::vo
