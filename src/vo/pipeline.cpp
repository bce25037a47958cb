#include "vo/pipeline.hpp"

#include <cmath>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace cimnav::vo {
namespace {

/// Network input: frame-t observation (pose context) concatenated with
/// the *centered difference* to frame t+1. The difference carries the
/// motion signal; re-centering it at 0.5 with a gain keeps it inside the
/// unsigned CIM input range while making the feature's deviation
/// dominated by signal rather than DC — without this, hidden-site dropout
/// noise (proportional to the large DC activations) drowns the
/// centimeter-scale deltas and training collapses to the mean.
constexpr double kDiffGain = 5.0;

void make_feature_into(const nn::Vector& a, const nn::Vector& b,
                       nn::Vector& out) {
  out.clear();
  out.reserve(2 * a.size());
  out.insert(out.end(), a.begin(), a.end());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.push_back(core::clamp(0.5 + kDiffGain * (b[i] - a[i]), 0.0, 1.0));
}

nn::Vector delta_to_target(const core::Pose& delta) {
  return {delta.position.x, delta.position.y, delta.position.z, delta.yaw};
}

core::Pose target_to_delta(const nn::Vector& t) {
  return core::Pose{{t[0], t[1], t[2]}, t[3]};
}

}  // namespace

VoPipeline::VoPipeline(const VoPipelineConfig& config)
    : config_(config),
      observations_([&] {
        core::Rng rng(config.seed);
        return ObservationModel::random(config.landmark_count,
                                        {-0.5, -0.5, 0.0}, {4.5, 3.5, 2.5},
                                        rng);
      }()) {
  CIMNAV_REQUIRE(config.train_samples >= 1, "need training data");
  core::Rng rng(config_.seed + 1);

  // Network: concat(obs_t, obs_t+1) -> (dx, dy, dz, dyaw).
  nn::MlpConfig net_cfg;
  net_cfg.layer_sizes.push_back(2 * observations_.feature_size());
  for (int h : config_.hidden_sizes) net_cfg.layer_sizes.push_back(h);
  net_cfg.layer_sizes.push_back(4);
  net_cfg.dropout_p = config_.dropout_p;
  net_ = std::make_unique<nn::Mlp>(net_cfg, rng);

  // Training and test pairs observe the later pose first: the order GCC
  // evaluated the two observation arguments these loops once passed to
  // one call (C++ leaves it unspecified), to which the weights are pinned.
  nn::Vector oa, ob;

  // Training pairs: dense random coverage of the pose-delta envelope.
  {
    const VoTrajectoryConfig box;  // reuse the default workspace bounds
    for (int k = 0; k < config_.train_samples; ++k) {
      const core::Pose pose{{rng.uniform(box.box_min.x, box.box_max.x),
                             rng.uniform(box.box_min.y, box.box_max.y),
                             rng.uniform(box.box_min.z, box.box_max.z)},
                            rng.uniform(-config_.train_yaw_range,
                                        config_.train_yaw_range)};
      const double dm = config_.train_delta_pos_max;
      const core::Pose delta{{rng.uniform(-dm, dm), rng.uniform(-dm, dm),
                              rng.uniform(-dm, dm)},
                             rng.uniform(-config_.train_delta_yaw_max,
                                         config_.train_delta_yaw_max)};
      const core::Pose next = pose.compose(delta);
      observations_.observe_into(next, rng, ob);
      observations_.observe_into(pose, rng, oa);
      make_feature_into(oa, ob, train_inputs_.emplace_back());
      train_targets_.push_back(delta_to_target(delta));
    }
  }

  // Held-out test trajectory.
  {
    VoTrajectoryConfig tc;
    tc.steps = config_.test_steps;
    tc.phase = 2.45;
    tc.freq_x = 1.3;
    tc.freq_y = 1.7;
    tc.freq_z = 2.3;
    test_poses_ = make_vo_trajectory(tc);
    for (std::size_t i = 0; i + 1 < test_poses_.size(); ++i) {
      observations_.observe_into(test_poses_[i + 1], rng, ob);
      observations_.observe_into(test_poses_[i], rng, oa);
      make_feature_into(oa, ob, test_inputs_.emplace_back());
      test_targets_.push_back(
          delta_to_target(relative_delta(test_poses_[i], test_poses_[i + 1])));
    }
  }

  // Train.
  for (int e = 0; e < config_.train.epochs; ++e)
    train_mse_ = net_->train_epoch(train_inputs_, train_targets_,
                                   config_.train, rng);
  test_mse_ = net_->evaluate_mse(test_inputs_, test_targets_);
}

VoRun VoPipeline::evaluate(
    const std::string& label,
    const std::function<nn::Vector(const nn::Vector&, double*)>& predictor)
    const {
  VoRun run;
  run.label = label;
  run.estimated.reserve(test_poses_.size());
  run.estimated.push_back(test_poses_.front());

  std::vector<double> err_x, err_y, err_z, ate2;
  for (std::size_t i = 0; i < test_inputs_.size(); ++i) {
    double variance = 0.0;
    const nn::Vector pred = predictor(test_inputs_[i], &variance);
    const core::Pose delta = target_to_delta(pred);
    run.estimated.push_back(run.estimated.back().compose(delta));

    const nn::Vector& truth = test_targets_[i];
    const double de = std::sqrt(
        (pred[0] - truth[0]) * (pred[0] - truth[0]) +
        (pred[1] - truth[1]) * (pred[1] - truth[1]) +
        (pred[2] - truth[2]) * (pred[2] - truth[2]));
    run.frame_delta_error.push_back(de);
    run.frame_variance.push_back(variance);

    const core::Pose& gt = test_poses_[i + 1];
    const core::Vec3 e = run.estimated.back().position - gt.position;
    err_x.push_back(e.x);
    err_y.push_back(e.y);
    err_z.push_back(e.z);
    ate2.push_back(e.squared_norm());
  }
  run.rmse_axes = {core::rms(err_x), core::rms(err_y), core::rms(err_z)};
  run.ate_rmse = std::sqrt(core::mean(ate2));
  run.mean_delta_error = core::mean(run.frame_delta_error);
  return run;
}

VoRun VoPipeline::run_float() const {
  return evaluate("float-det", [this](const nn::Vector& x, double*) {
    return net_->forward(x);
  });
}

std::unique_ptr<nn::CimMlp> VoPipeline::make_cim_network(
    const cimsram::CimMacroConfig& macro) const {
  core::Rng rng(config_.seed + 99);
  // A handful of calibration inputs suffices for activation ranges.
  std::vector<nn::Vector> calib(
      train_inputs_.begin(),
      train_inputs_.begin() + std::min<std::size_t>(64, train_inputs_.size()));
  return std::make_unique<nn::CimMlp>(*net_, macro, calib, rng);
}

VoRun VoPipeline::run_cim_deterministic(
    const cimsram::CimMacroConfig& macro) const {
  // shared_ptr: std::function requires copyable callables.
  std::shared_ptr<nn::CimMlp> cim = make_cim_network(macro);
  auto analog_rng = std::make_shared<core::Rng>(config_.seed + 123);
  return evaluate(
      "cim-det-" + std::to_string(macro.weight_bits) + "b",
      [cim, analog_rng](const nn::Vector& x, double*) {
        return cim->forward_deterministic(x, *analog_rng);
      });
}

VoRun VoPipeline::run_cim_mc(const cimsram::CimMacroConfig& macro,
                             const bnn::McOptions& options,
                             bnn::MaskSource& masks,
                             bnn::McWorkload* workload_out) const {
  const std::unique_ptr<nn::CimMlp> cim = make_cim_network(macro);
  core::Rng analog_rng(config_.seed + 321);
  std::string label = "cim-mc-" + std::to_string(macro.weight_bits) + "b";
  if (options.compute_reuse) label += "+reuse";
  if (options.order_samples) label += "+order";
  // One window over every test frame, on the pipeline's pool unless the
  // caller supplied one; the trajectory bookkeeping then replays the
  // predictions, in frame order, through the same evaluate() path as
  // every other condition.
  bnn::McOptions opt = options;
  if (opt.pool == nullptr) opt.pool = config_.pool;
  std::vector<const nn::Vector*> xs;
  xs.reserve(test_inputs_.size());
  for (const nn::Vector& x : test_inputs_) xs.push_back(&x);
  const std::vector<bnn::McPrediction> preds = bnn::mc_predict_cim_window(
      *cim, xs, opt, masks, analog_rng, workload_out);
  std::size_t cursor = 0;
  return evaluate(label, [&preds, &cursor](const nn::Vector&,
                                           double* variance) {
    const bnn::McPrediction& p = preds[cursor++];
    if (variance != nullptr) *variance = p.scalar_variance();
    return p.mean;
  });
}

void VoPipeline::frame_feature_into(const core::Pose& a, const core::Pose& b,
                                    core::Rng& rng, nn::Vector& out) const {
  // Warm per-thread observation scratch: stage A of the fleet engine
  // calls this from pool workers, once per (session, frame) item.
  thread_local nn::Vector oa, ob;
  observations_.observe_into(a, rng, oa);
  observations_.observe_into(b, rng, ob);
  make_feature_into(oa, ob, out);
}

}  // namespace cimnav::vo
