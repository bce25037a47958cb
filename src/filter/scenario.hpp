// End-to-end localization scenario shared by the Fig. 2(e-h) bench, the
// closed loop and the drone_localization example: procedural scene, map
// fitting, trajectory synthesis, per-step keyed depth scans (the one scan
// path of run() and the closed loop's stage A), and particle-filter runs
// per likelihood backend, reporting position/yaw error per step.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "core/vec.hpp"
#include "filter/measurement.hpp"
#include "filter/particle_filter.hpp"
#include "map/map_model.hpp"
#include "map/scene.hpp"
#include "prob/hmg.hpp"
#include "vision/depth.hpp"

namespace cimnav::filter {

/// Which synthetic flight the scenario pairs with its scene. Each kind
/// keeps per-step deltas small enough for the VO regressor's training
/// envelope, so the same trajectories serve open- and closed-loop runs.
enum class TrajectoryKind {
  /// Smooth ellipse in the interior, heading tangent (the original
  /// hardcoded pairing). The tangent heading sweeps the full circle —
  /// outside the VO regressor's training distribution — so this kind
  /// suits ground-truth-control (open-loop-only) studies like the
  /// Fig. 2(e-h) bench.
  kEllipse,
  /// The same ellipse, but the drone strafes: heading pans sinusoidally
  /// (+-0.5 rad) instead of following the tangent, staying inside the VO
  /// training distribution. The closed-loop scenarios use this.
  kEllipsePan,
  /// One-way sweep along the long (x) axis with gentle lateral sway —
  /// the corridor flight that crosses the feature-dropout mid-span.
  kCorridorSweep,
  /// Rounded square traversed at constant speed with a panning heading;
  /// the final pose coincides with the start pose (loop closure).
  kRoundedSquare,
};

/// Scenario parameters (defaults sized to run in seconds).
struct ScenarioConfig {
  ScenarioConfig() { scene.room_size = {4.0, 3.2, 2.5}; }

  map::SceneConfig scene;
  TrajectoryKind trajectory = TrajectoryKind::kEllipse;
  int map_cloud_points = 5000;       ///< cloud size for mixture fitting
  double map_cloud_noise_m = 0.01;
  int mixture_components = 80;       ///< per map model
  int trajectory_steps = 20;
  int scan_pixels = 80;              ///< likelihood decimation per scan (>= 1)
  double scan_noise_m = 0.02;        ///< depth noise stddev (finite, >= 0)
  ParticleFilterConfig filter;
  double likelihood_beta = 0.5;      ///< tempering for pixel correlation
  double camera_pitch_rad = 0.35;    ///< fixed downward mount tilt (~20 deg)
  int cim_dac_bits = 6;
  int cim_adc_bits = 6;
  int cim_columns = 500;
  std::uint64_t seed = 42;
  /// Worker pool for the measurement updates (nullptr = serial); results
  /// are bit-identical at any thread count.
  core::ThreadPool* pool = nullptr;
  /// Global-localization (kidnapped-drone) workload: LocalizationScenario::run
  /// and vo::run_odometry_loop initialize the cloud uniformly over the
  /// scene interior with full heading uncertainty instead of a tight
  /// Gaussian around the start pose. Pair with a larger particle_count
  /// and an ESS tempering floor — the first updates are exactly the
  /// degenerate transient tempering exists for.
  bool global_init = false;
};

/// A synthesized flight: ground-truth poses plus body-frame controls.
struct Trajectory {
  std::vector<core::Pose> poses;     ///< length = steps + 1
  std::vector<Control> controls;     ///< length = steps
};

/// Per-step filter tracking record.
struct StepRecord {
  int step = 0;
  double position_error_m = 0.0;
  double yaw_error_rad = 0.0;
  double ess_fraction = 0.0;
  double position_spread_m = 0.0;    ///< mean axis stddev (belief spread)
};

/// One backend's full run.
struct BackendRun {
  std::string backend;
  std::vector<StepRecord> steps;
  double final_error_m = 0.0;
  double mean_error_after_converge_m = 0.0;  ///< mean over last half
};

/// Fully-constructed scenario with lazily-run backends.
class LocalizationScenario {
 public:
  /// Builds the scene, map fits and trajectory. Throws
  /// std::invalid_argument for scan_pixels < 1, a non-finite or negative
  /// scan_noise_m, or a non-finite camera_pitch_rad.
  explicit LocalizationScenario(const ScenarioConfig& config);

  /// Runs the filter with the given measurement model; deterministic given
  /// `run_seed`. Uses a Gaussian init around a perturbed start pose
  /// (tracking mode) or, when config().global_init, a uniform init. Each
  /// step's scan is render_scan_into(step).
  BackendRun run(const MeasurementModel& model, std::uint64_t run_seed) const;

  /// Backends constructed from this scenario's maps. The HMGM (and so
  /// the CIM array's programming) is fitted at construction. The digital
  /// GMM baseline, which CIM flights never read, is fitted by each
  /// make_gmm_backend call from the stored map cloud and a copy of its
  /// rng stream, so every call returns the same model.
  std::unique_ptr<MeasurementModel> make_gmm_backend() const;
  std::unique_ptr<MeasurementModel> make_hmgm_backend() const;
  std::unique_ptr<MeasurementModel> make_cim_backend(int dac_bits,
                                                     int adc_bits) const;
  std::unique_ptr<MeasurementModel> make_cim_backend() const;

  const map::Scene& scene() const { return scene_; }
  const Trajectory& trajectory() const { return trajectory_; }
  /// The hardware-constrained HMGM map the CIM array is programmed from.
  const prob::Hmgm& hmgm() const { return hmgm_; }
  const ScenarioConfig& config() const { return config_; }

  /// Renders the depth scan observed after control `step` (at pose
  /// step+1) into `out`. Pure function of the step index: sensor noise
  /// comes from a stream keyed on (seed, step), so calls are thread-safe
  /// and order-independent — the contract the closed loop's stage A needs
  /// to render a window's scans in parallel. `out` keeps its pixel
  /// capacity across calls and the full-resolution render goes to a
  /// thread-local scratch scan, so a warm slot renders without touching
  /// the heap.
  void render_scan_into(std::size_t step, vision::DepthScan& out) const;

 private:
  // `map_rng` is the stream the map cloud is sampled from and the two
  // mixture fits are split from.
  LocalizationScenario(const ScenarioConfig& config, core::Rng map_rng);

  ScenarioConfig config_;
  map::Scene scene_;
  map::WorldToVoltage mapping_;
  std::vector<core::Vec3> map_cloud_;
  core::Rng gmm_rng_;  ///< split before the HMGM's stream
  prob::Hmgm hmgm_;
  Trajectory trajectory_;
};

/// Synthesizes a smooth loop trajectory inside the scene interior.
Trajectory make_loop_trajectory(const map::Scene& scene, int steps,
                                core::Rng& rng);

/// The ellipse of make_loop_trajectory flown as a strafe: heading pans
/// +-0.5 rad around the room's +x axis instead of following the tangent
/// (TrajectoryKind::kEllipsePan).
Trajectory make_panning_loop_trajectory(const map::Scene& scene, int steps,
                                        core::Rng& rng);

/// One-way sweep along the x axis with sinusoidal lateral sway and a
/// mildly oscillating tangent heading (TrajectoryKind::kCorridorSweep).
Trajectory make_corridor_trajectory(const map::Scene& scene, int steps,
                                    core::Rng& rng);

/// Constant-speed rounded square (straight edges + quarter-circle
/// corners) with a panning heading; the last pose equals the first
/// (TrajectoryKind::kRoundedSquare).
Trajectory make_square_trajectory(const map::Scene& scene, int steps,
                                  core::Rng& rng);

/// Builds the trajectory a ScenarioConfig asks for (dispatch on
/// config.trajectory — used by the LocalizationScenario constructor).
Trajectory make_trajectory(TrajectoryKind kind, const map::Scene& scene,
                           int steps, core::Rng& rng);

// ---------------------------------------------------------------------
// Named-scenario registry (a core::NameRegistry): each entry pairs a
// scene layout, a trajectory kind and filter sizing under a stable string
// name, so examples and benches select whole workloads by string.
// Built-ins (registered on first use):
//   "indoor_loop"         cluttered room + panning ellipse
//   "corridor_dropout"    bare-mid-span corridor + one-way sweep
//   "loop_closure_square" cluttered room + constant-speed rounded square
//   "warehouse_symmetry"  mirrored-rack warehouse + panning ellipse
// Factories return pool-free configs (callers inject their ThreadPool).

/// Builds a ready-to-run config; throws std::invalid_argument for
/// unknown names.
ScenarioConfig make_scenario_config(std::string_view name);

/// Registered names in registration order (built-ins first).
std::vector<std::string> scenario_names();

/// One-line description of a registered scenario (throws on unknown).
/// By value: a reference into the registry would dangle across a later
/// register_scenario call.
std::string scenario_description(std::string_view name);

/// Extension hook: registers (or, returning false, replaces) a named
/// scenario. The factory must be pure — same config every call.
bool register_scenario(std::string name, std::string description,
                       std::function<ScenarioConfig()> factory);

}  // namespace cimnav::filter
