// Uncertainty-expressive visual odometry demo (the paper's Sec. III
// system): a dropout MLP regresses pose deltas; MC-Dropout on the
// simulated SRAM CIM macro yields both the trajectory and per-frame
// confidence.
//
//   $ ./uncertainty_vo
#include <cstdio>
#include <iostream>

#include "bnn/mask_source.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "vo/pipeline.hpp"

int main() {
  using namespace cimnav;
  std::printf("cimnav uncertainty-aware VO on the SRAM CIM macro\n\n");

  // MC iterations of each frame fan out over the pool; results are
  // bit-identical to a serial run (noise keyed on iteration indices).
  core::ThreadPool pool;
  vo::VoPipelineConfig cfg;
  cfg.pool = &pool;
  cfg.train_samples = 4000;
  cfg.train.epochs = 120;
  cfg.test_steps = 120;
  const vo::VoPipeline pipe(cfg);
  std::printf("trained %d-landmark VO regressor: test MSE %.5f\n\n",
              cfg.landmark_count, pipe.test_mse());

  // MC-Dropout inference on the 6-bit CIM macro, dropout bits from the
  // SRAM-embedded RNG.
  cimsram::CimMacroConfig mc;
  mc.input_bits = 6;
  mc.weight_bits = 6;
  mc.adc_bits = 6;
  bnn::SramMaskSource masks(cimsram::SramRngParams{}, core::Rng{11},
                            core::Rng{13});
  std::printf("SRAM RNG raw bias before calibration: %.3f\n",
              masks.initial_bias());
  bnn::McOptions opt;
  opt.iterations = 30;
  opt.dropout_p = cfg.dropout_p;
  opt.compute_reuse = true;
  opt.order_samples = true;
  bnn::McWorkload workload;
  const auto mc_run = pipe.run_cim_mc(mc, opt, masks, &workload);
  const auto det_run = pipe.run_cim_deterministic(mc);

  std::printf("\n6-bit CIM, 30 MC iterations with reuse + ordering:\n");
  std::printf("  deterministic single pass : delta err %.4f m, ATE %.3f m\n",
              det_run.mean_delta_error, det_run.ate_rmse);
  std::printf("  MC-Dropout mean           : delta err %.4f m, ATE %.3f m\n",
              mc_run.mean_delta_error, mc_run.ate_rmse);
  std::printf("  error-variance Spearman   : %.3f\n",
              core::spearman_correlation(mc_run.frame_delta_error,
                                         mc_run.frame_variance));
  std::printf("  macro word-line pulses    : %llu (reuse active)\n",
              static_cast<unsigned long long>(workload.macro.wordline_pulses));
  std::printf("  dropout bits drawn        : %llu\n",
              static_cast<unsigned long long>(workload.mask_bits_drawn));

  const auto& err = mc_run.frame_delta_error;
  std::printf("\nper-frame sample (every 10th):\n");
  core::Table table({"frame", "delta err [m]", "MC variance"});
  table.set_precision(5);
  for (std::size_t i = 0; i < err.size(); i += 10) {
    table.add_row({static_cast<double>(i), err[i], mc_run.frame_variance[i]});
  }
  table.print(std::cout);
  return 0;
}
