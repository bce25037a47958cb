#include "filter/scenario.hpp"

#include <cmath>
#include <tuple>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "prob/gmm.hpp"

namespace cimnav::filter {
namespace {

constexpr double kPi = 3.14159265358979323846;

map::Scene build_scene(const ScenarioConfig& cfg, core::Rng& rng) {
  return map::Scene::generate(cfg.scene, rng);
}

/// Co-design: constrains the HMGM fit to the bump widths the inverter
/// array can actually realize, mapped into world units.
prob::Hmgm fit_hmgm(const std::vector<core::Vec3>& cloud, int components,
                    const map::WorldToVoltage& mapping, core::Rng rng) {
  const circuit::InverterProgrammer programmer(circuit::MosfetParams{},
                                               circuit::MosfetParams{},
                                               circuit::SupplyParams{});
  const auto [sig_min_v, sig_max_v] = programmer.sigma_range();
  prob::MixtureFitOptions opt;
  std::tie(opt.sigma_floor_axes, opt.sigma_ceiling_axes) =
      map::world_sigma_bounds(mapping, sig_min_v, sig_max_v);
  return prob::Hmgm::fit(cloud, components, rng, opt);
}

/// Rejects scan fields the renderer would otherwise take silently (a
/// negative pixel count keeping every pixel, a NaN noise rendering
/// without noise), before the map fits run.
const ScenarioConfig& checked(const ScenarioConfig& cfg) {
  CIMNAV_REQUIRE(cfg.scan_pixels >= 1, "scan_pixels must be >= 1");
  CIMNAV_REQUIRE(std::isfinite(cfg.scan_noise_m) && cfg.scan_noise_m >= 0.0,
                 "scan_noise_m must be finite and non-negative");
  CIMNAV_REQUIRE(std::isfinite(cfg.camera_pitch_rad),
                 "camera_pitch_rad must be finite");
  return cfg;
}

/// Body-frame controls replaying poses[i] -> poses[i+1] exactly.
void fill_controls(Trajectory& traj) {
  traj.controls.clear();
  traj.controls.reserve(traj.poses.size() - 1);
  for (std::size_t i = 0; i + 1 < traj.poses.size(); ++i) {
    const core::Pose rel = traj.poses[i].relative_to(traj.poses[i + 1]);
    traj.controls.push_back(Control{rel.position, rel.yaw});
  }
}

}  // namespace

Trajectory make_loop_trajectory(const map::Scene& scene, int steps,
                                core::Rng& rng) {
  CIMNAV_REQUIRE(steps >= 1, "trajectory needs at least one step");
  const core::Vec3 lo = scene.interior_min(), hi = scene.interior_max();
  const core::Vec3 center = (lo + hi) * 0.5;
  // Ellipse inside the room above the furniture band (the generator keeps
  // boxes below ~45% of room height), with a slow vertical oscillation;
  // heading tangent to the path.
  const double rx = 0.30 * (hi.x - lo.x);
  const double ry = 0.30 * (hi.y - lo.y);
  const double z0 = core::lerp(lo.z, hi.z, 0.62);
  const double zamp = 0.08 * (hi.z - lo.z);
  const double phase0 = rng.uniform(0.0, 2.0 * kPi);

  Trajectory traj;
  traj.poses.reserve(static_cast<std::size_t>(steps) + 1);
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(steps);
    const double a = phase0 + 2.0 * kPi * t;
    const core::Vec3 pos{center.x + rx * std::cos(a),
                         center.y + ry * std::sin(a),
                         z0 + zamp * std::sin(2.0 * a)};
    // Tangent heading of the ellipse.
    const double yaw = std::atan2(ry * std::cos(a), -rx * std::sin(a));
    traj.poses.emplace_back(pos, yaw);
  }
  fill_controls(traj);
  return traj;
}

Trajectory make_panning_loop_trajectory(const map::Scene& scene, int steps,
                                        core::Rng& rng) {
  CIMNAV_REQUIRE(steps >= 1, "trajectory needs at least one step");
  const core::Vec3 lo = scene.interior_min(), hi = scene.interior_max();
  const core::Vec3 center = (lo + hi) * 0.5;
  // Same ellipse as make_loop_trajectory, but the heading pans
  // sinusoidally around +x instead of tracking the tangent: every pose
  // stays inside the VO regressor's training distribution (|yaw| <= ~1
  // rad, per-step |dyaw| <= pan_amp * 2*pi/steps), which is what lets
  // the closed loop use the VO posterior as odometry. One full pan cycle
  // per revolution, so the loop closes.
  const double rx = 0.30 * (hi.x - lo.x);
  const double ry = 0.30 * (hi.y - lo.y);
  const double z0 = core::lerp(lo.z, hi.z, 0.62);
  const double zamp = 0.08 * (hi.z - lo.z);
  const double phase0 = rng.uniform(0.0, 2.0 * kPi);
  const double pan_phase = rng.uniform(0.0, 2.0 * kPi);
  const double pan_amp = 0.5;  // inside the VO training distribution

  Trajectory traj;
  traj.poses.reserve(static_cast<std::size_t>(steps) + 1);
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(steps);
    const double a = phase0 + 2.0 * kPi * t;
    const core::Vec3 pos{center.x + rx * std::cos(a),
                         center.y + ry * std::sin(a),
                         z0 + zamp * std::sin(2.0 * a)};
    const double yaw = pan_amp * std::sin(2.0 * kPi * t + pan_phase);
    traj.poses.emplace_back(pos, yaw);
  }
  fill_controls(traj);
  return traj;
}

Trajectory make_corridor_trajectory(const map::Scene& scene, int steps,
                                    core::Rng& rng) {
  CIMNAV_REQUIRE(steps >= 1, "trajectory needs at least one step");
  const core::Vec3 lo = scene.interior_min(), hi = scene.interior_max();
  // One-way sweep down the long (x) axis: a straight flight with one
  // gentle lateral sway cycle and a slow vertical bob; the heading stays
  // tangent (near +x), so mild enough for the VO delta envelope.
  const double x0 = core::lerp(lo.x, hi.x, 0.12);
  const double x1 = core::lerp(lo.x, hi.x, 0.88);
  const double cy = 0.5 * (lo.y + hi.y);
  const double sway = 0.08 * (hi.y - lo.y);
  const double z0 = core::lerp(lo.z, hi.z, 0.60);
  const double zamp = 0.05 * (hi.z - lo.z);
  const double phase = rng.uniform(0.0, 2.0 * kPi);
  const double omega = 2.0 * kPi;  // one sway cycle over the sweep

  Trajectory traj;
  traj.poses.reserve(static_cast<std::size_t>(steps) + 1);
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(steps);
    const core::Vec3 pos{core::lerp(x0, x1, t),
                         cy + sway * std::sin(omega * t + phase),
                         z0 + zamp * std::sin(2.0 * kPi * t)};
    // Tangent heading from the analytic derivative.
    const double yaw = std::atan2(sway * omega * std::cos(omega * t + phase),
                                  x1 - x0);
    traj.poses.emplace_back(pos, yaw);
  }
  fill_controls(traj);
  return traj;
}

Trajectory make_square_trajectory(const map::Scene& scene, int steps,
                                  core::Rng& rng) {
  CIMNAV_REQUIRE(steps >= 1, "trajectory needs at least one step");
  const core::Vec3 lo = scene.interior_min(), hi = scene.interior_max();
  const core::Vec3 center = (lo + hi) * 0.5;
  // Rounded square: straight edges joined by quarter-circle corners,
  // traversed at constant speed (uniform |delta| per step) while the
  // heading pans sinusoidally through one cycle — so the final pose
  // coincides with the first (loop closure) and every yaw stays inside
  // the VO training distribution.
  const double rx = 0.32 * (hi.x - lo.x);
  const double ry = 0.32 * (hi.y - lo.y);
  const double rc = 0.35 * std::min(rx, ry);  // corner radius
  const double ax = rx - rc, ay = ry - rc;    // straight half-lengths
  // CCW starting at the right edge's lower end, 8 segments.
  const double seg_len[8] = {2.0 * ay,      kPi / 2.0 * rc, 2.0 * ax,
                             kPi / 2.0 * rc, 2.0 * ay,      kPi / 2.0 * rc,
                             2.0 * ax,      kPi / 2.0 * rc};
  double length = 0.0;
  for (double s : seg_len) length += s;

  const auto perimeter_point = [&](double s) {
    int seg = 0;
    while (seg < 7 && s > seg_len[seg]) s -= seg_len[seg++];
    const double cx = center.x, cy = center.y;
    switch (seg) {
      case 0: return core::Vec3{cx + rx, cy - ay + s, 0.0};
      case 1: {
        const double a = s / rc;
        return core::Vec3{cx + ax + rc * std::cos(a),
                          cy + ay + rc * std::sin(a), 0.0};
      }
      case 2: return core::Vec3{cx + ax - s, cy + ry, 0.0};
      case 3: {
        const double a = kPi / 2.0 + s / rc;
        return core::Vec3{cx - ax + rc * std::cos(a),
                          cy + ay + rc * std::sin(a), 0.0};
      }
      case 4: return core::Vec3{cx - rx, cy + ay - s, 0.0};
      case 5: {
        const double a = kPi + s / rc;
        return core::Vec3{cx - ax + rc * std::cos(a),
                          cy - ay + rc * std::sin(a), 0.0};
      }
      case 6: return core::Vec3{cx - ax + s, cy - ry, 0.0};
      default: {
        const double a = 1.5 * kPi + s / rc;
        return core::Vec3{cx + ax + rc * std::cos(a),
                          cy - ay + rc * std::sin(a), 0.0};
      }
    }
  };

  const double s0 = rng.uniform(0.0, length);
  const double pan_phase = rng.uniform(0.0, 2.0 * kPi);
  const double pan_amp = 0.5;  // heading pans inside the VO distribution
  // Slightly above the ellipse's band: the square's corners pass closer
  // to furniture, so stay clear of the tallest clutter stacks.
  const double z0 = core::lerp(lo.z, hi.z, 0.68);
  const double zamp = 0.05 * (hi.z - lo.z);

  Trajectory traj;
  traj.poses.reserve(static_cast<std::size_t>(steps) + 1);
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(steps);
    // i == steps wraps to exactly s0/z0/yaw(0): the loop closes.
    const double s = std::fmod(s0 + t * length, length);
    core::Vec3 pos = perimeter_point(s);
    pos.z = z0 + zamp * std::sin(4.0 * kPi * t);
    traj.poses.emplace_back(
        pos, pan_amp * std::sin(2.0 * kPi * t + pan_phase));
  }
  fill_controls(traj);
  return traj;
}

Trajectory make_trajectory(TrajectoryKind kind, const map::Scene& scene,
                           int steps, core::Rng& rng) {
  switch (kind) {
    case TrajectoryKind::kEllipsePan:
      return make_panning_loop_trajectory(scene, steps, rng);
    case TrajectoryKind::kCorridorSweep:
      return make_corridor_trajectory(scene, steps, rng);
    case TrajectoryKind::kRoundedSquare:
      return make_square_trajectory(scene, steps, rng);
    case TrajectoryKind::kEllipse:
      break;
  }
  return make_loop_trajectory(scene, steps, rng);
}

LocalizationScenario::LocalizationScenario(const ScenarioConfig& config)
    : LocalizationScenario(checked(config), core::Rng(config.seed + 1)) {}

LocalizationScenario::LocalizationScenario(const ScenarioConfig& config,
                                           core::Rng map_rng)
    : config_(config),
      scene_([&] {
        core::Rng rng(config.seed);
        return build_scene(config, rng);
      }()),
      mapping_(scene_.interior_min() - core::Vec3{0.3, 0.3, 0.3},
               scene_.interior_max() + core::Vec3{0.3, 0.3, 0.3}, 0.1, 0.9),
      map_cloud_(scene_.sample_point_cloud(config.map_cloud_points,
                                           config.map_cloud_noise_m,
                                           map_rng)),
      // Members initialize in declaration order: the GMM's stream is
      // split first, then the HMGM's.
      gmm_rng_(map_rng.split()),
      hmgm_(fit_hmgm(map_cloud_, config.mixture_components, mapping_,
                     map_rng.split())) {
  core::Rng rng(config.seed + 2);
  trajectory_ = make_trajectory(config_.trajectory, scene_,
                                config.trajectory_steps, rng);
}

void LocalizationScenario::render_scan_into(std::size_t step,
                                            vision::DepthScan& out) const {
  CIMNAV_REQUIRE(step < trajectory_.controls.size(), "step out of range");
  core::Rng rng = core::Rng::stream(config_.seed + 4, step);
  const auto intr = vision::CameraIntrinsics::kinect_like(64, 48);
  vision::DepthRenderOptions opt;
  opt.pixel_stride = 2;
  opt.noise_sigma_m = config_.scan_noise_m;
  opt.mount_pitch_rad = config_.camera_pitch_rad;
  const auto raycast = [this](const core::Vec3& o, const core::Vec3& d) {
    return scene_.raycast(o, d);
  };
  // Full-resolution render lands in a warm per-thread scratch scan; only
  // the subsampled result is written to the caller's slot.
  thread_local vision::DepthScan full;
  vision::render_depth_scan_into(intr, trajectory_.poses[step + 1], raycast,
                                 opt, &rng, full);
  vision::subsample_scan_into(
      full, static_cast<std::size_t>(config_.scan_pixels), rng, out);
}

std::unique_ptr<MeasurementModel> LocalizationScenario::make_gmm_backend()
    const {
  core::Rng rng = gmm_rng_;  // a copy: every call fits the same GMM
  return std::make_unique<GmmLikelihood>(
      prob::Gmm::fit(map_cloud_, config_.mixture_components, rng),
      config_.likelihood_beta);
}

std::unique_ptr<MeasurementModel> LocalizationScenario::make_hmgm_backend()
    const {
  return std::make_unique<HmgmLikelihood>(hmgm_,
                                          config_.likelihood_beta);
}

std::unique_ptr<MeasurementModel> LocalizationScenario::make_cim_backend()
    const {
  return make_cim_backend(config_.cim_dac_bits, config_.cim_adc_bits);
}

std::unique_ptr<MeasurementModel> LocalizationScenario::make_cim_backend(
    int dac_bits, int adc_bits) const {
  circuit::LikelihoodArrayConfig cfg;
  cfg.total_columns = config_.cim_columns;
  cfg.dac_bits = dac_bits;
  cfg.adc_bits = adc_bits;
  core::Rng rng(config_.seed + 3);
  return std::make_unique<CimHmgmLikelihood>(hmgm_, mapping_, cfg, rng,
                                             config_.likelihood_beta);
}

BackendRun LocalizationScenario::run(const MeasurementModel& model,
                                     std::uint64_t run_seed) const {
  core::Rng rng(run_seed);
  ParticleFilter pf(config_.filter);
  const core::Pose& start = trajectory_.poses.front();
  if (config_.global_init) {
    pf.init_uniform(scene_.interior_min(), scene_.interior_max(), rng);
  } else {
    // Tracking mode: start belief displaced from the truth so the plots
    // show convergence over the first few updates (paper Fig. 2f-h).
    core::Pose noisy_start{start.position + core::Vec3{rng.normal(0.0, 0.4),
                                                       rng.normal(0.0, 0.4),
                                                       rng.normal(0.0, 0.2)},
                           start.yaw + rng.normal(0.0, 0.25)};
    pf.init_gaussian(noisy_start, {0.5, 0.5, 0.25}, 0.3, rng);
  }

  BackendRun run;
  run.backend = model.name();
  std::vector<double> tail_errors;
  vision::DepthScan scan;
  for (std::size_t i = 0; i < trajectory_.controls.size(); ++i) {
    pf.predict(trajectory_.controls[i], rng);
    render_scan_into(i, scan);
    pf.update(scan, model, rng, config_.pool);
    const PoseEstimate est = pf.estimate();
    const core::Pose& truth = trajectory_.poses[i + 1];

    StepRecord rec;
    rec.step = static_cast<int>(i) + 1;
    rec.position_error_m = est.pose.position_error(truth);
    rec.yaw_error_rad = est.pose.yaw_error(truth);
    rec.ess_fraction =
        pf.last_update_ess() / static_cast<double>(pf.size());
    rec.position_spread_m =
        (est.position_stddev.x + est.position_stddev.y +
         est.position_stddev.z) /
        3.0;
    run.steps.push_back(rec);
    if (i >= trajectory_.controls.size() / 2)
      tail_errors.push_back(rec.position_error_m);
  }
  run.final_error_m = run.steps.back().position_error_m;
  run.mean_error_after_converge_m = core::mean(tail_errors);
  return run;
}

}  // namespace cimnav::filter
