#include "vo/closed_loop.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "vo/odometry_session.hpp"

namespace cimnav::vo {

filter::Control posterior_control(const bnn::McPrediction& pred) {
  CIMNAV_REQUIRE(pred.mean.size() >= 4,
                 "VO posterior must carry (dx, dy, dz, dyaw)");
  return filter::Control{{pred.mean[0], pred.mean[1], pred.mean[2]},
                         pred.mean[3]};
}

filter::MotionNoise posterior_noise(const bnn::McPrediction& pred,
                                    const filter::MotionNoise& base,
                                    const filter::NoiseInflation& inflation) {
  CIMNAV_REQUIRE(pred.variance.size() >= 4,
                 "VO posterior must carry (dx, dy, dz, dyaw) variances");
  const core::Vec3 sigma_pos{pred.component_stddev(0),
                             pred.component_stddev(1),
                             pred.component_stddev(2)};
  return filter::inflate_motion_noise(base, sigma_pos,
                                      pred.component_stddev(3), inflation);
}

void validate(const ClosedLoopConfig& config) {
  CIMNAV_REQUIRE(config.window >= 1, "window must hold at least one frame");
  CIMNAV_REQUIRE(config.mc.iterations >= 1,
                 "mc.iterations must be >= 1 (one MC-Dropout pass per frame)");
  CIMNAV_REQUIRE(config.mc.dropout_p >= 0.0 && config.mc.dropout_p < 1.0,
                 "mc.dropout_p must lie in [0, 1)");
  CIMNAV_REQUIRE(config.mc.reuse_refresh_interval >= 0,
                 "mc.reuse_refresh_interval must be >= 0 (0 = never refresh)");
  autonomy::require_update_policy(config.policy);
  autonomy::validate(config.policy_cfg);
  // Negative is the "keep the scenario's floor" sentinel; NaN fails both.
  CIMNAV_REQUIRE(config.tempering_ess_floor < 1.0,
                 "tempering_ess_floor must be < 0 (keep the scenario's) or "
                 "lie in [0, 1)");
  CIMNAV_REQUIRE(config.init_sigma_m >= 0.0 && config.init_sigma_yaw >= 0.0,
                 "init_sigma_m and init_sigma_yaw must be >= 0");
  if (config.kld_adapt) filter::validate(config.kld);
}

ClosedLoopRun run_odometry_loop(const filter::LocalizationScenario& scenario,
                                const VoPipeline& vo, const nn::CimMlp& net,
                                const filter::MeasurementModel& model,
                                const ClosedLoopConfig& config) {
  // The per-run state machine lives in OdometrySession (shared with the
  // fleet engine); this runner drives one session window by window:
  // A (inputs, fanned over the pool) -> B (one batched MC pass) -> C
  // (consume in frame order, alone, so the filter update fans out).
  validate(config);
  OdometrySession session;
  session.begin(scenario, vo, net, model, config);
  const int frames = session.frame_count();
  const int w = std::min(config.window, frames);
  std::vector<nn::Vector> inputs(static_cast<std::size_t>(w));
  std::vector<const nn::Vector*> xs;
  std::vector<bnn::McWorkload> frame_workloads;
  bnn::McOptions mc = config.mc;
  mc.pool = config.pool;
  for (int f0 = 0; f0 < frames; f0 += w) {
    const int n = std::min(w, frames - f0);
    const auto stage_a = [&](std::size_t begin, std::size_t end, int) {
      for (std::size_t i = begin; i < end; ++i)
        session.make_input(f0 + static_cast<int>(i), inputs[i]);
    };
    if (config.pool != nullptr) {
      config.pool->parallel_for(static_cast<std::size_t>(n), 1, stage_a);
    } else {
      stage_a(0, static_cast<std::size_t>(n), 0);
    }
    xs.clear();
    for (int i = 0; i < n; ++i)
      xs.push_back(&inputs[static_cast<std::size_t>(i)]);
    const std::vector<bnn::McPrediction> preds = bnn::mc_predict_cim_window(
        net, xs, mc, session.mask_source(), session.analog_rng(), nullptr, 0,
        {}, &frame_workloads);
    for (int i = 0; i < n; ++i) {
      const auto fi = static_cast<std::size_t>(i);
      session.consume(f0 + i, preds[fi]);
      session.record_frame_macro(f0 + i, frame_workloads[fi].macro);
    }
  }
  return session.finish();
}

}  // namespace cimnav::vo
