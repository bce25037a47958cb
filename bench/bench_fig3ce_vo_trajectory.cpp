// Reproduces paper Fig. 3(c-e): visual-odometry trajectories in the X-Y,
// Y-Z and X-Z planes — ground truth vs MC-Dropout CIM inference vs
// deterministic configurations at several precisions.
//
// Prints the trajectory series (down-sampled) and the per-axis RMSE/ATE
// table. The paper's claim: "even with very low precision, probabilistic
// inference can accurately track the ground truth" — i.e. cim-mc at N bits
// beats cim-det at N bits and approaches the float reference.
#include <cstdio>
#include <iostream>

#include "bnn/mask_source.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "vo/pipeline.hpp"

int main() {
  using namespace cimnav;
  std::printf("=== Fig. 3(c-e): uncertainty-expressive VO trajectories ===\n\n");

  // MC conditions batch every test frame's iterations into one window
  // over the pool — bit-identical to the per-frame path (see
  // VoPipeline::run_cim_mc), so the reproduced figures do not depend on
  // the batching.
  core::ThreadPool pool;
  vo::VoPipelineConfig cfg;
  cfg.pool = &pool;
  const vo::VoPipeline pipe(cfg);
  std::printf("trained VO regressor: train MSE %.5f, test MSE %.5f\n\n",
              pipe.train_mse(), pipe.test_mse());

  // Evaluate the paper's inference conditions.
  std::vector<vo::VoRun> runs;
  runs.push_back(pipe.run_float());
  for (int bits : {8, 6, 4}) {
    cimsram::CimMacroConfig mc;
    mc.input_bits = bits;
    mc.weight_bits = bits;
    mc.adc_bits = bits;
    runs.push_back(pipe.run_cim_deterministic(mc));
    bnn::SoftwareMaskSource masks(core::Rng{17});
    bnn::McOptions opt;
    opt.iterations = 30;
    opt.dropout_p = cfg.dropout_p;
    runs.push_back(pipe.run_cim_mc(mc, opt, masks));
  }

  core::Table summary({"condition", "delta err [m]", "RMSE x [m]",
                       "RMSE y [m]", "RMSE z [m]", "ATE RMSE [m]"});
  summary.set_precision(3);
  for (const auto& r : runs)
    summary.add_row({r.label, r.mean_delta_error, r.rmse_axes.x,
                     r.rmse_axes.y, r.rmse_axes.z, r.ate_rmse});
  summary.print(std::cout);

  // Trajectory series for the plot panels: truth, float, cim-det-6b,
  // cim-mc-6b (indices 0, 3, 4 in `runs`).
  const auto& truth = pipe.test_trajectory();
  const auto& flt = runs[0];
  const auto& det6 = runs[3];
  const auto& mc6 = runs[4];
  std::printf("\nTrajectory series (every 6th frame), X-Y / Y-Z / X-Z:\n");
  core::Table traj({"frame", "gt x", "gt y", "gt z", "float x", "float y",
                    "float z", "cim-det6 x", "cim-det6 y", "cim-det6 z",
                    "cim-mc6 x", "cim-mc6 y", "cim-mc6 z"});
  traj.set_precision(2);
  for (std::size_t i = 0; i < truth.size(); i += 6) {
    traj.add_row({static_cast<double>(i), truth[i].position.x,
                  truth[i].position.y, truth[i].position.z,
                  flt.estimated[i].position.x, flt.estimated[i].position.y,
                  flt.estimated[i].position.z, det6.estimated[i].position.x,
                  det6.estimated[i].position.y, det6.estimated[i].position.z,
                  mc6.estimated[i].position.x, mc6.estimated[i].position.y,
                  mc6.estimated[i].position.z});
  }
  traj.print(std::cout);

  std::printf("\nMC iteration-count ablation (6-bit CIM):\n");
  core::Table iters({"iterations T", "delta err [m]", "ATE RMSE [m]"});
  iters.set_precision(3);
  for (int t : {5, 15, 30, 60}) {
    cimsram::CimMacroConfig mc;
    mc.input_bits = 6;
    mc.weight_bits = 6;
    mc.adc_bits = 6;
    bnn::SoftwareMaskSource masks(core::Rng{23});
    bnn::McOptions opt;
    opt.iterations = t;
    opt.dropout_p = cfg.dropout_p;
    const auto r = pipe.run_cim_mc(mc, opt, masks);
    iters.add_row({static_cast<double>(t), r.mean_delta_error, r.ate_rmse});
  }
  iters.print(std::cout);
  std::printf("\n");
  return 0;
}
