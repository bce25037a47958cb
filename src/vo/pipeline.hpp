// End-to-end Bayesian visual-odometry pipeline (paper Sec. III-D).
//
// Builds the synthetic VO task (landmark field + trajectories), trains the
// dropout MLP to regress body-frame pose deltas from consecutive frame
// observations, and evaluates every inference condition the paper's
// Fig. 3(c-f) compares:
//
//   float-det    — full-precision deterministic forward;
//   cim-det-Nb   — CIM-executed deterministic (analog noise + ADC);
//   cim-mc-Nb    — CIM-executed MC-Dropout (mean prediction + variance).
//
// Each evaluation integrates predicted deltas into a trajectory from the
// known start pose and records per-frame delta errors and (for MC runs)
// predictive variances, feeding the error-vs-uncertainty analysis.
//
// One feature layout serves training, evaluation and the closed loop's
// stage A: the observation of frame a, then the gained, 0.5-centered
// difference to the observation of frame b. Training and test pairs draw
// b's observation noise before a's; frame_feature_into draws a's first.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bnn/mc_dropout.hpp"
#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/vec.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"
#include "vo/observation.hpp"
#include "vo/trajectory.hpp"

namespace cimnav::vo {

struct VoPipelineConfig {
  int landmark_count = 24;
  std::vector<int> hidden_sizes{128, 64};
  /// Hidden-site MC-Dropout probability. Dropout never touches the raw
  /// features: they are 0.5-centered, so zeroing them would inject large
  /// off-manifold noise. Hidden ReLU activations are the dropout sites
  /// (and the first one is the compute-reuse locus — see
  /// CimMlp::forward_reuse_window).
  double dropout_p = 0.2;
  /// Training pairs are sampled densely over the pose-delta envelope
  /// (uniform pose, random small delta) so the regressor generalizes to
  /// any smooth trajectory through the workspace.
  int train_samples = 4000;
  double train_delta_pos_max = 0.15;  ///< |delta| envelope per axis [m]
  double train_delta_yaw_max = 0.12;  ///< [rad]
  /// |yaw| envelope of training poses [rad]. The historical default (1.0)
  /// matches the Lissajous test trajectories; closed-loop scenario flights
  /// whose heading sweeps the full circle (tangent ellipse, rotating
  /// square) must train with the full range (pi), or over half of each
  /// flight is out of the training distribution.
  double train_yaw_range = 1.0;
  int test_steps = 120;
  nn::TrainOptions train;
  std::uint64_t seed = 7;
  /// Worker pool for the CIM MC-Dropout evaluations (nullptr = serial),
  /// mirroring filter::ScenarioConfig::pool: run_cim_mc batches every
  /// test frame's T iterations into one window and fans them out over the
  /// pool. Results are bit-identical at any thread count (noise streams
  /// are keyed on frame and iteration indices).
  core::ThreadPool* pool = nullptr;

  VoPipelineConfig() {
    train.epochs = 120;
    train.learning_rate = 1e-3;
  }
};

/// One evaluated inference condition.
struct VoRun {
  std::string label;                     ///< e.g. "cim-mc-6b+reuse"
  std::vector<core::Pose> estimated;     ///< integrated trajectory
  std::vector<double> frame_delta_error; ///< per-frame delta L2 error [m]
  std::vector<double> frame_variance;    ///< MC predictive variance (or 0)
  core::Vec3 rmse_axes;                  ///< trajectory RMSE per axis
  double ate_rmse = 0.0;                 ///< absolute trajectory error RMSE
  double mean_delta_error = 0.0;
};

/// Owns the synthetic VO task end to end: builds the landmark field,
/// trains the dropout regressor, and evaluates every inference condition
/// on the shared held-out trajectory. Construction is deterministic given
/// config().seed; all run_* evaluators are const and reusable.
class VoPipeline {
 public:
  /// Builds landmarks, synthesizes train/test data, trains the network.
  explicit VoPipeline(const VoPipelineConfig& config);

  const VoPipelineConfig& config() const { return config_; }
  /// The trained float reference network (weights shared by every CIM
  /// snapshot).
  const nn::Mlp& network() const { return *net_; }
  /// Ground-truth poses of the held-out evaluation trajectory.
  const std::vector<core::Pose>& test_trajectory() const {
    return test_poses_;
  }
  /// Final-epoch training MSE of the pose-delta regressor.
  double train_mse() const { return train_mse_; }
  /// Held-out MSE on the test trajectory's frame pairs.
  double test_mse() const { return test_mse_; }

  /// Full-precision deterministic reference.
  VoRun run_float() const;

  /// CIM-executed deterministic single pass.
  VoRun run_cim_deterministic(const cimsram::CimMacroConfig& macro) const;

  /// CIM-executed MC-Dropout; `workload_out` (optional) accumulates macro
  /// activity across the whole trajectory. Every test frame goes through
  /// one bnn::mc_predict_cim_window (all frames' iterations batched per
  /// layer over options.pool, else config().pool); masks and noise roots
  /// are drawn in frame order, so every prediction is bit-identical to a
  /// frame-at-a-time mc_predict_cim loop at any thread count.
  VoRun run_cim_mc(const cimsram::CimMacroConfig& macro,
                   const bnn::McOptions& options, bnn::MaskSource& masks,
                   bnn::McWorkload* workload_out = nullptr) const;

  /// Builds a CIM snapshot of the trained network (shared by benches).
  std::unique_ptr<nn::CimMlp> make_cim_network(
      const cimsram::CimMacroConfig& macro) const;

  /// Test-set feature/target pairs (calibration).
  const std::vector<nn::Vector>& test_inputs() const { return test_inputs_; }
  const std::vector<nn::Vector>& test_targets() const {
    return test_targets_;
  }

  /// The synthetic landmark field the regressor was trained against.
  const ObservationModel& observations() const { return observations_; }

  /// Builds the regressor input for one frame transition a -> b into
  /// `out` (capacity kept across calls; observation scratch is
  /// per-thread): observes `a`, then `b`, from `rng`, and lays them out
  /// as in training. Key `rng` on the frame index when generating frames
  /// from a loop stage (stage A must be a pure function of the frame
  /// index — see OdometrySession::make_input).
  void frame_feature_into(const core::Pose& a, const core::Pose& b,
                          core::Rng& rng, nn::Vector& out) const;

 private:
  VoRun evaluate(const std::string& label,
                 const std::function<nn::Vector(const nn::Vector&, double*)>&
                     predictor) const;

  VoPipelineConfig config_;
  ObservationModel observations_;
  std::unique_ptr<nn::Mlp> net_;
  std::vector<core::Pose> test_poses_;
  std::vector<nn::Vector> train_inputs_, train_targets_;
  std::vector<nn::Vector> test_inputs_, test_targets_;
  double train_mse_ = 0.0;
  double test_mse_ = 0.0;
};

}  // namespace cimnav::vo
