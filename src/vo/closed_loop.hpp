// Closed-loop uncertainty-aware odometry (the paper's full autonomy
// loop): the MC-Dropout VO posterior *drives* the particle filter instead
// of being reported next to it.
//
// run_odometry_loop drives one vo::OdometrySession window by window; each
// window of ClosedLoopConfig::window frames runs three stages in order:
//
//   stage A   render the depth scan and VO feature of every frame in the
//             window (pure functions of f: keyed rng streams), fanned
//             over the pool;
//   stage B   MC-Dropout VO on the CIM macros, iterations of the whole
//             window batched through one macro dispatch per layer;
//   stage C   consume each frame's posterior IN FRAME ORDER, before the
//             measurement update:
//               closed loop:  control    = posterior mean (dx,dy,dz,dyaw)
//                             pred noise = base process noise inflated by
//                                          the per-axis predictive stddev
//                                          (filter::inflate_motion_noise)
//               open loop:    control    = ground-truth odometry
//                             pred noise = base process noise
//             then an autonomy::UpdatePolicy decides what the
//             measurement stage does — full ParticleFilter::update,
//             decimated update, or skip (predict-only) — from the VO
//             sigma, the filter's ESS and a step budget; every frame's
//             energy (stage-B macro activity + the likelihood
//             evaluations the policy actually ran) lands in the step's
//             energy ledger.
//
// The stages do not overlap. Stage C (the likelihood reads) dominates the
// frame and parallelizes on its own: running alone, the filter update's
// parallel_for fans across the whole pool.
//
// Because the posterior is consumed only in stage C (never fed back into
// stages A/B — scans and features depend on the scripted trajectory, not
// on the filter state), runs are bit-identical at any thread count and
// any window size to the serial per-frame loop. Policies make no rng
// draws, so the "always" policy is additionally bit-identical to the
// pre-policy (hardcoded predict -> update) closed loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autonomy/update_policy.hpp"
#include "bnn/mc_dropout.hpp"
#include "core/thread_pool.hpp"
#include "filter/kld.hpp"
#include "filter/measurement.hpp"
#include "filter/motion.hpp"
#include "filter/scenario.hpp"
#include "nn/cim_mlp.hpp"
#include "vo/pipeline.hpp"

namespace cimnav::vo {

/// How the prediction step is driven.
enum class OdometryMode {
  kOpenLoop,    ///< ground-truth controls + static process noise
  kClosedLoop,  ///< VO posterior mean + variance-inflated process noise
};

/// Posterior -> control adapter: the VO output layout is
/// (dx, dy, dz, dyaw) in the body frame, so the posterior mean IS the
/// odometry increment.
filter::Control posterior_control(const bnn::McPrediction& pred);

/// Posterior -> process-noise adapter: per-axis predictive stddevs
/// inflate the base noise (see filter::inflate_motion_noise).
filter::MotionNoise posterior_noise(const bnn::McPrediction& pred,
                                    const filter::MotionNoise& base,
                                    const filter::NoiseInflation& inflation);

/// Configuration of one odometry run over a LocalizationScenario.
struct ClosedLoopConfig {
  OdometryMode mode = OdometryMode::kClosedLoop;
  /// Frames per stage-B batch (>= 1; 1 degenerates to frame-at-a-time).
  int window = 4;
  /// Worker pool shared by all three stages, including the filter update
  /// (nullptr = serial; results are bit-identical either way).
  core::ThreadPool* pool = nullptr;
  /// MC-Dropout options for the VO pass (mc.pool is ignored — the loop's
  /// pool drives every stage).
  bnn::McOptions mc;
  /// Closed-loop noise inflation (ignored open-loop).
  filter::NoiseInflation inflation;
  /// Wake-up policy driving the measurement stage, by registry name
  /// (autonomy::make_update_policy; built-ins "always", "sigma_gate",
  /// "decimate"). "always" reproduces the pre-policy loop bit for bit.
  std::string policy = "always";
  /// Knobs of the built-in policies (thresholds, decimation fraction,
  /// step budget).
  autonomy::PolicyConfig policy_cfg;
  /// Override of ParticleFilterConfig::tempering_ess_floor for this run
  /// (< 0 keeps the scenario's filter config untouched — the default, so
  /// existing runs stay bit-identical).
  double tempering_ess_floor = -1.0;
  /// Tracking-init displacement scale. Kept tight (takeoff from an
  /// approximately known pose): a wide init cloud collapses the first
  /// update's ESS to a handful of particles and the filter locks onto a
  /// wrong likelihood mode before the odometry can stabilize it.
  double init_sigma_m = 0.15;
  double init_sigma_yaw = 0.1;
  std::uint64_t run_seed = 31;      ///< filter init / motion / update draws
  std::uint64_t feature_seed = 55;  ///< stage-A VO feature noise streams
  std::uint64_t mask_seed = 17;     ///< dropout mask source
  std::uint64_t analog_seed = 101;  ///< macro analog-noise roots
  /// KLD-adaptive cloud sizing (Fox's bound, filter/kld.hpp): after each
  /// frame whose measurement update actually ran, shrink the cloud to
  /// the KLD-required particle count when the belief's occupied-bin
  /// support says fewer suffice — a kidnapped-drone run starts with its
  /// big global cloud and tracks with a fraction of it once converged.
  /// Shrink-only (never grows past the initial count), drawing the
  /// resample from run_seed's stream. Off by default: runs stay
  /// bit-identical to the fixed-cloud loop.
  bool kld_adapt = false;
  filter::KldConfig kld;
};

/// Per-frame record of a run, including the frame's energy ledger.
struct ClosedLoopStep {
  int step = 0;                    ///< 1-based, matches StepRecord::step
  double position_error_m = 0.0;   ///< filter estimate vs ground truth
  double yaw_error_rad = 0.0;
  double ess_fraction = 0.0;       ///< pre-resample ESS / N
  double position_spread_m = 0.0;  ///< mean axis stddev of the cloud
  double vo_delta_error_m = 0.0;   ///< VO mean vs true body-frame delta
  double vo_sigma = 0.0;           ///< sqrt(scalar predictive variance)
  /// What the wake-up policy chose for this frame.
  autonomy::UpdateAction update_action = autonomy::UpdateAction::kFull;
  /// Tempering beta the update applied (1 = no annealing / skipped).
  double update_beta = 1.0;
  /// Elementary likelihood evaluations this frame's measurement stage
  /// spent (measured through the MeasurementModel counter; 0 on skip).
  std::uint64_t likelihood_evals = 0;
  /// Energy ledger [J]: the measurement stage (likelihood_evals priced
  /// per evaluation), the stage-B VO pass (per-frame MacroStats delta
  /// priced through energy::macro_stats_energy_j), and their sum.
  double update_energy_j = 0.0;
  double vo_energy_j = 0.0;
  double energy_j = 0.0;
  /// Cloud size after this frame (constant unless kld_adapt shrank it) —
  /// the per-frame particle cost the fleet bench reports per session.
  int particle_count = 0;
};

/// One full flight through the scenario in one mode.
struct ClosedLoopRun {
  std::string mode_label;          ///< "open-loop" / "closed-loop"
  std::string policy_label;        ///< wake-up policy registry name
  std::vector<ClosedLoopStep> steps;
  double rmse_m = 0.0;             ///< RMS position error over all steps
  double final_error_m = 0.0;
  double mean_spread_m = 0.0;      ///< mean particle-cloud spread
  double mean_vo_sigma = 0.0;      ///< mean reported VO uncertainty
  double mean_vo_delta_error_m = 0.0;
  /// Run-level energy ledger: sums of the per-step entries.
  double vo_energy_j = 0.0;
  double update_energy_j = 0.0;
  double total_energy_j = 0.0;
  std::uint64_t likelihood_evals = 0;
  /// Frames per action — what the policy actually did.
  int full_updates = 0;
  int decimated_updates = 0;
  int skipped_updates = 0;
  /// Particle-cost ledger: mean per-frame cloud size and the final size
  /// (equal to the configured count unless kld_adapt shrank the cloud).
  double mean_particles = 0.0;
  int final_particles = 0;
};

/// Rejects a config no run can execute, with the reason:
/// window < 1, mc.iterations < 1, mc.dropout_p outside [0, 1),
/// mc.reuse_refresh_interval < 0, a policy name missing from the
/// autonomy registry, a policy_cfg autonomy::validate rejects, a
/// tempering_ess_floor that is neither negative nor in [0, 1) (NaN
/// included), a negative init sigma, or — with kld_adapt — a kld config
/// filter::validate rejects. Throws std::invalid_argument;
/// allocation-free when the config is valid. run_odometry_loop and fleet::FleetEngine::
/// try_submit both call it, so a bad spec fails at the API boundary
/// instead of mid-flight.
void validate(const ClosedLoopConfig& config);

/// Flies the scenario's whole trajectory through the A -> B -> C loop
/// and returns the per-step tracking record; `config` must pass
/// validate(). `scenario` supplies scene, trajectory and scans
/// (render_scan_into); `vo`/`net` supply the frame features and the
/// CIM-executed regressor; `model` is the measurement backend (typically
/// scenario.make_cim_backend()). When the scenario asks for global init
/// (ScenarioConfig::global_init — the kidnapped-drone workloads), the
/// cloud starts uniform over the scene interior instead of a tight
/// Gaussian at the displaced start pose. Deterministic given the config
/// seeds: bit-identical at any pool size and window (tested at pools
/// 1/2/8, windows 1/3/16/64, dense and compute-reuse VO).
ClosedLoopRun run_odometry_loop(const filter::LocalizationScenario& scenario,
                                const VoPipeline& vo, const nn::CimMlp& net,
                                const filter::MeasurementModel& model,
                                const ClosedLoopConfig& config);

}  // namespace cimnav::vo
