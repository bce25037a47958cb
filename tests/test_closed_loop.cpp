// Tests for the closed-loop odometry runner: the posterior -> control /
// noise adapters, the open/closed switch, config validation, and the
// determinism contract (pools 1/2/8, windows 1/3/16/64, dense and
// compute-reuse VO — bit-identical to a serial per-frame loop written
// here over OdometrySession).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "filter/scenario.hpp"
#include "vo/closed_loop.hpp"
#include "vo/odometry_session.hpp"
#include "vo/pipeline.hpp"

namespace cimnav {
namespace {

using core::Rng;
using core::ThreadPool;

TEST(PosteriorAdapters, MeanBecomesControlAndStddevInflatesNoise) {
  bnn::McPrediction pred;
  pred.mean = {0.04, -0.02, 0.01, 0.05};
  pred.variance = {0.0004, 0.0009, 0.0001, 0.0016};
  pred.samples = 10;

  const filter::Control c = vo::posterior_control(pred);
  EXPECT_DOUBLE_EQ(c.delta_position.x, 0.04);
  EXPECT_DOUBLE_EQ(c.delta_position.y, -0.02);
  EXPECT_DOUBLE_EQ(c.delta_position.z, 0.01);
  EXPECT_DOUBLE_EQ(c.delta_yaw, 0.05);

  filter::MotionNoise base;
  base.sigma_position = {0.03, 0.03, 0.02};
  base.sigma_yaw = 0.01;
  filter::NoiseInflation inflation;
  inflation.gain = 1.0;
  const filter::MotionNoise n = vo::posterior_noise(pred, base, inflation);
  // Quadrature of the base noise with the per-axis predictive stddev.
  EXPECT_NEAR(n.sigma_position.x, std::sqrt(0.03 * 0.03 + 0.02 * 0.02),
              1e-12);
  EXPECT_NEAR(n.sigma_position.y, std::sqrt(0.03 * 0.03 + 0.03 * 0.03),
              1e-12);
  EXPECT_NEAR(n.sigma_yaw, std::sqrt(0.01 * 0.01 + 0.04 * 0.04), 1e-12);

  bnn::McPrediction bad;
  bad.mean = {0.1, 0.2};
  bad.variance = {0.1, 0.2};
  EXPECT_THROW(vo::posterior_control(bad), std::invalid_argument);
  EXPECT_THROW(vo::posterior_noise(bad, base, inflation),
               std::invalid_argument);
}

TEST(McPredictionAccessors, ComponentStddev) {
  bnn::McPrediction pred;
  pred.mean = {0, 0, 0, 0};
  pred.variance = {0.04, 0.01, 0.09, 0.16};
  EXPECT_DOUBLE_EQ(pred.component_stddev(0), 0.2);
  EXPECT_DOUBLE_EQ(pred.component_stddev(3), 0.4);
  EXPECT_THROW(pred.component_stddev(4), std::invalid_argument);
}

/// Shared scenario + VO stack, shrunk until a full run takes well under a
/// second; built once for the whole suite.
class ClosedLoopTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    filter::ScenarioConfig cfg =
        filter::make_scenario_config("corridor_dropout");
    cfg.trajectory_steps = 8;
    cfg.map_cloud_points = 1200;
    cfg.mixture_components = 20;
    cfg.scan_pixels = 40;
    cfg.filter.particle_count = 100;
    cfg.cim_columns = 120;
    scenario_ = new filter::LocalizationScenario(cfg);
    model_ = scenario_->make_cim_backend().release();

    vo::VoPipelineConfig vo_cfg;
    vo_cfg.landmark_count = 8;
    vo_cfg.hidden_sizes = {24, 12};
    vo_cfg.train_samples = 600;
    vo_cfg.train.epochs = 25;
    vo_cfg.test_steps = 8;
    vo_ = new vo::VoPipeline(vo_cfg);
    cimsram::CimMacroConfig macro;
    macro.input_bits = 6;
    macro.weight_bits = 6;
    macro.adc_bits = 6;
    net_ = vo_->make_cim_network(macro).release();
  }

  static void TearDownTestSuite() {
    delete net_;
    delete vo_;
    delete model_;
    delete scenario_;
    net_ = nullptr;
    vo_ = nullptr;
    model_ = nullptr;
    scenario_ = nullptr;
  }

  static vo::ClosedLoopConfig small_config() {
    vo::ClosedLoopConfig cfg;
    cfg.mc.iterations = 5;
    cfg.mc.dropout_p = 0.2;
    return cfg;
  }

  static void expect_same_runs(const vo::ClosedLoopRun& a,
                               const vo::ClosedLoopRun& b) {
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].position_error_m, b.steps[i].position_error_m);
      EXPECT_EQ(a.steps[i].position_spread_m, b.steps[i].position_spread_m);
      EXPECT_EQ(a.steps[i].ess_fraction, b.steps[i].ess_fraction);
      EXPECT_EQ(a.steps[i].vo_delta_error_m, b.steps[i].vo_delta_error_m);
      EXPECT_EQ(a.steps[i].vo_sigma, b.steps[i].vo_sigma);
      // The energy ledger is part of the determinism contract: actions,
      // measured evaluations and priced energy must match bit for bit.
      EXPECT_EQ(a.steps[i].update_action, b.steps[i].update_action);
      EXPECT_EQ(a.steps[i].likelihood_evals, b.steps[i].likelihood_evals);
      EXPECT_EQ(a.steps[i].update_energy_j, b.steps[i].update_energy_j);
      EXPECT_EQ(a.steps[i].vo_energy_j, b.steps[i].vo_energy_j);
      EXPECT_EQ(a.steps[i].update_beta, b.steps[i].update_beta);
    }
    EXPECT_EQ(a.rmse_m, b.rmse_m);
    EXPECT_EQ(a.mean_spread_m, b.mean_spread_m);
    EXPECT_EQ(a.vo_energy_j, b.vo_energy_j);
    EXPECT_EQ(a.update_energy_j, b.update_energy_j);
    EXPECT_EQ(a.likelihood_evals, b.likelihood_evals);
  }

  /// The serial per-frame loop every runner must match: one frame at a
  /// time, make_input -> mc_predict_cim -> consume, on one thread.
  static vo::ClosedLoopRun serial_reference(const vo::ClosedLoopConfig& cfg) {
    vo::ClosedLoopConfig serial = cfg;
    serial.pool = nullptr;
    vo::OdometrySession session;
    session.begin(*scenario_, *vo_, *net_, *model_, serial);
    nn::Vector x;
    for (int f = 0; f < session.frame_count(); ++f) {
      session.make_input(f, x);
      bnn::McWorkload wl;
      const bnn::McPrediction pred =
          bnn::mc_predict_cim(*net_, x, serial.mc, session.mask_source(),
                              session.analog_rng(), &wl);
      session.consume(f, pred);
      session.record_frame_macro(f, wl.macro);
    }
    return session.finish();
  }

  static filter::LocalizationScenario* scenario_;
  static filter::MeasurementModel* model_;
  static vo::VoPipeline* vo_;
  static nn::CimMlp* net_;
};

filter::LocalizationScenario* ClosedLoopTest::scenario_ = nullptr;
filter::MeasurementModel* ClosedLoopTest::model_ = nullptr;
vo::VoPipeline* ClosedLoopTest::vo_ = nullptr;
nn::CimMlp* ClosedLoopTest::net_ = nullptr;

TEST_F(ClosedLoopTest, BitIdenticalAcrossThreadPoolsAndWindows) {
  // The hard guarantee: a closed-loop scenario run is bit-identical to
  // the serial per-frame loop at pools 1/2/8 and any window size — 3
  // ends mid-window over 8 frames, 64 exceeds the frame count — with
  // dense and compute-reuse VO alike (the energy ledger included).
  ThreadPool p1(1), p2(2), p8(8);
  for (bool reuse : {false, true}) {
    vo::ClosedLoopConfig cfg = small_config();
    cfg.mc.compute_reuse = reuse;
    cfg.mc.reuse_refresh_interval = 2;
    const auto ref = serial_reference(cfg);
    ASSERT_EQ(ref.steps.size(), 8u);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p2,
                             &p8}) {
      for (int window : {1, 3, 16, 64}) {
        SCOPED_TRACE(::testing::Message() << "reuse=" << reuse << " threads="
                                          << (pool ? pool->thread_count() : 0)
                                          << " window=" << window);
        cfg.pool = pool;
        cfg.window = window;
        expect_same_runs(ref, vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                                    *model_, cfg));
      }
    }
  }
}

TEST_F(ClosedLoopTest, ValidateRejectsBadConfigsWithReason) {
  EXPECT_NO_THROW(vo::validate(small_config()));
  struct Bad {
    const char* reason;  ///< substring the error message must carry
    void (*poison)(vo::ClosedLoopConfig&);
  };
  const Bad cases[] = {
      {"window", [](vo::ClosedLoopConfig& c) { c.window = 0; }},
      {"mc.iterations", [](vo::ClosedLoopConfig& c) { c.mc.iterations = 0; }},
      {"mc.dropout_p", [](vo::ClosedLoopConfig& c) { c.mc.dropout_p = 1.0; }},
      {"mc.dropout_p", [](vo::ClosedLoopConfig& c) { c.mc.dropout_p = -0.1; }},
      {"mc.reuse_refresh_interval",
       [](vo::ClosedLoopConfig& c) { c.mc.reuse_refresh_interval = -1; }},
      // An unknown policy names the offender and lists the registry.
      {"'no_such_policy'; registered: always",
       [](vo::ClosedLoopConfig& c) { c.policy = "no_such_policy"; }},
  };
  for (const Bad& b : cases) {
    vo::ClosedLoopConfig cfg = small_config();
    b.poison(cfg);
    try {
      vo::validate(cfg);
      ADD_FAILURE() << "validate accepted a config with bad " << b.reason;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(b.reason), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_, cfg),
                 std::invalid_argument)
        << b.reason;
  }
}

TEST_F(ClosedLoopTest, OpenAndClosedLoopDiverge) {
  vo::ClosedLoopConfig cfg = small_config();
  cfg.mode = vo::OdometryMode::kOpenLoop;
  const auto open_run = vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                              *model_, cfg);
  cfg.mode = vo::OdometryMode::kClosedLoop;
  const auto closed_run = vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                                *model_, cfg);
  EXPECT_EQ(open_run.mode_label, "open-loop");
  EXPECT_EQ(closed_run.mode_label, "closed-loop");
  // Different controls and noise must produce a different flight; the VO
  // pass itself is identical (same seeds), so the reported uncertainty
  // matches frame for frame.
  EXPECT_NE(open_run.steps.front().position_error_m,
            closed_run.steps.front().position_error_m);
  for (std::size_t i = 0; i < open_run.steps.size(); ++i)
    EXPECT_EQ(open_run.steps[i].vo_sigma, closed_run.steps[i].vo_sigma);
  // Sanity bounds only: this fixture is shrunk far below tracking
  // quality (100 particles, 20 mixture components, T=5) — the realistic
  // accuracy comparison lives in bench_fig4_closed_loop. Both modes must
  // at least stay inside the room scale (~3.6 m diagonal).
  EXPECT_LT(open_run.final_error_m, 1.2);
  EXPECT_LT(closed_run.final_error_m, 3.0);
}

TEST_F(ClosedLoopTest, EnergyLedgerIsConsistentAndMeasured) {
  vo::ClosedLoopConfig cfg = small_config();
  const auto run = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                         cfg);
  EXPECT_EQ(run.policy_label, "always");
  EXPECT_EQ(run.full_updates, static_cast<int>(run.steps.size()));
  EXPECT_EQ(run.decimated_updates, 0);
  EXPECT_EQ(run.skipped_updates, 0);
  double vo_sum = 0.0, update_sum = 0.0, total_sum = 0.0;
  std::uint64_t evals = 0;
  for (const auto& s : run.steps) {
    EXPECT_EQ(s.update_action, autonomy::UpdateAction::kFull);
    // Every frame ran a full update: (N particles) x (scan points) reads,
    // measured through the array's hardware counter — divisible by N,
    // bounded by N x scan_pixels.
    EXPECT_EQ(s.likelihood_evals % 100u, 0u);
    EXPECT_GT(s.likelihood_evals, 0u);
    EXPECT_LE(s.likelihood_evals, 100u * 40u);
    EXPECT_GT(s.vo_energy_j, 0.0);
    EXPECT_GT(s.update_energy_j, 0.0);
    EXPECT_DOUBLE_EQ(s.energy_j, s.vo_energy_j + s.update_energy_j);
    vo_sum += s.vo_energy_j;
    update_sum += s.update_energy_j;
    total_sum += s.energy_j;
    evals += s.likelihood_evals;
  }
  EXPECT_DOUBLE_EQ(run.vo_energy_j, vo_sum);
  EXPECT_DOUBLE_EQ(run.update_energy_j, update_sum);
  EXPECT_DOUBLE_EQ(run.total_energy_j, total_sum);
  EXPECT_EQ(run.likelihood_evals, evals);
}

TEST_F(ClosedLoopTest, SigmaGateSavesMeasuredEnergy) {
  vo::ClosedLoopConfig cfg = small_config();
  const auto always = vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                            *model_, cfg);
  cfg.policy = "sigma_gate";
  // Exercise the mechanism, not the tuning: disable the data-dependent
  // wake rules so the skip pattern is deterministic on this shrunken
  // fixture (whose ESS runs below any realistic wake floor).
  cfg.policy_cfg.warmup_frames = 2;
  cfg.policy_cfg.ess_wake_floor = 0.0;
  cfg.policy_cfg.sigma_wake_ratio = 100.0;
  const auto gated = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                           cfg);
  EXPECT_EQ(gated.policy_label, "sigma_gate");
  EXPECT_GT(gated.skipped_updates, 0);
  EXPECT_LT(gated.update_energy_j, always.update_energy_j);
  EXPECT_LT(gated.likelihood_evals, always.likelihood_evals);
  // The VO pass is policy-independent (same seeds, same frames).
  EXPECT_EQ(gated.vo_energy_j, always.vo_energy_j);
  for (const auto& s : gated.steps) {
    if (s.update_action == autonomy::UpdateAction::kSkip) {
      EXPECT_EQ(s.likelihood_evals, 0u);
      EXPECT_EQ(s.update_energy_j, 0.0);
    } else {
      EXPECT_GT(s.likelihood_evals, 0u);
    }
  }
}

TEST_F(ClosedLoopTest, DecimatePolicySpendsBetweenSkipAndAlways) {
  vo::ClosedLoopConfig cfg = small_config();
  const auto always = vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                            *model_, cfg);
  cfg.policy = "decimate";
  cfg.policy_cfg.warmup_frames = 2;
  cfg.policy_cfg.ess_wake_floor = 0.0;
  cfg.policy_cfg.sigma_wake_ratio = 100.0;
  const auto decimated = vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                               *model_, cfg);
  EXPECT_GT(decimated.decimated_updates, 0);
  EXPECT_EQ(decimated.skipped_updates, 0);
  EXPECT_LT(decimated.update_energy_j, always.update_energy_j);
  EXPECT_GT(decimated.update_energy_j, 0.0);

  // A fraction that rounds to stride 1 actually runs full updates; the
  // ledger must book and label them as full, not decimated.
  cfg.policy_cfg.decimated_fraction = 0.7;
  const auto rounded = vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                             *model_, cfg);
  EXPECT_EQ(rounded.decimated_updates, 0);
  EXPECT_EQ(rounded.full_updates, static_cast<int>(rounded.steps.size()));
  EXPECT_EQ(rounded.update_energy_j, always.update_energy_j);
}

TEST_F(ClosedLoopTest, GatedPoliciesBitIdenticalAcrossThreadPoolsAndWindows) {
  // The determinism contract must survive the policy layer even when
  // frames are skipped (per-frame rng consumption varies by action but
  // the action sequence itself is a pure function of the frame-ordered
  // signals).
  vo::ClosedLoopConfig cfg = small_config();
  cfg.policy = "sigma_gate";
  cfg.policy_cfg.warmup_frames = 2;
  cfg.policy_cfg.ess_wake_floor = 0.0;
  cfg.policy_cfg.sigma_wake_ratio = 1.0;  // sigma-driven skips vary by frame
  cfg.window = 1;
  cfg.pool = nullptr;
  const auto ref = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                         cfg);
  ThreadPool p2(2), p8(8);
  for (ThreadPool* pool : {&p2, &p8}) {
    for (int window : {3, 16}) {
      cfg.pool = pool;
      cfg.window = window;
      expect_same_runs(ref, vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                                  *model_, cfg));
    }
  }
}

TEST_F(ClosedLoopTest, TemperingFloorHoldsEarlyStepEss) {
  // The degenerate-first-update fix, end to end: with an ESS-targeted
  // tempering floor the early measurement updates may not collapse the
  // cloud below the floor (the transient every scenario showed).
  vo::ClosedLoopConfig cfg = small_config();
  cfg.tempering_ess_floor = 0.12;
  const auto run = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                         cfg);
  for (std::size_t i = 0; i < 3 && i < run.steps.size(); ++i)
    EXPECT_GE(run.steps[i].ess_fraction, 0.12 - 1e-9) << "step " << i;
  // The annealing must actually have fired somewhere early on (a wide
  // displaced init against a tempered-but-sharp likelihood).
  bool annealed = false;
  for (const auto& s : run.steps) annealed = annealed || s.update_beta < 1.0;
  EXPECT_TRUE(annealed);
}

TEST_F(ClosedLoopTest, InflationGainWidensReportedSpread) {
  // gain 0 disables inflation (closed loop with base noise); a large
  // gain must widen the mean particle-cloud spread.
  vo::ClosedLoopConfig cfg = small_config();
  cfg.inflation.gain = 0.0;
  const auto tight = vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                           *model_, cfg);
  cfg.inflation.gain = 3.0;
  const auto wide = vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                          *model_, cfg);
  EXPECT_GT(wide.mean_spread_m, tight.mean_spread_m);
}

}  // namespace
}  // namespace cimnav
