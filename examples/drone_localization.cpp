// Drone localization demo (the paper's Sec. II system) with the full
// closed autonomy loop: an insect-scale drone flies a named scenario
// through vo::run_odometry_loop: per window of frames, scan rendering
// (stage A), the MC-Dropout visual-odometry pass on the simulated
// 8T-SRAM CIM macros (stage B), then the particle-filter step (stage C),
// each stage fanned over one worker pool in turn. Two modes run over
// identical frames:
//
//   open loop    ground-truth controls drive ParticleFilter::predict
//                (the reproduction's pre-closed-loop behavior: VO
//                uncertainty is reported but not acted on);
//   closed loop  the VO posterior drives it — mean as the odometry
//                increment, per-axis predictive stddev inflating the
//                process noise — making the uncertainty actionable.
//
// Stage C's measurement step is driven by a wake-up policy
// (autonomy::UpdatePolicy): "always" runs the full CIM likelihood
// update every frame, "sigma_gate" skips quiet frames, "decimate" runs
// them on a particle subset. The per-frame energy ledger prices what
// the policy actually spent; with a gated policy the demo also runs the
// "always" baseline and reports the measured savings.
//
// The closed-loop run is then repeated serially (window 1, no pool) to
// demonstrate the determinism contract: bit-identical results at any
// thread count and window size.
//
//   $ ./example_drone_localization [scenario] [--policy NAME]
//
// Scenario names come from the filter:: registry (indoor_loop,
// corridor_dropout, loop_closure_square, warehouse_symmetry,
// kidnapped_drone), policy names from the autonomy:: registry.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "autonomy/update_policy.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "filter/scenario.hpp"
#include "vo/closed_loop.hpp"
#include "vo/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace cimnav;

  std::string scenario_name = "indoor_loop";
  std::string policy_name = "always";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--policy" && i + 1 < argc) {
      policy_name = argv[++i];
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy_name = arg.substr(std::strlen("--policy="));
    } else {
      scenario_name = arg;
    }
  }

  filter::ScenarioConfig cfg;
  try {
    cfg = filter::make_scenario_config(scenario_name);
  } catch (const std::invalid_argument& e) {
    std::printf("%s\n\nregistered scenarios:\n", e.what());
    for (const auto& name : filter::scenario_names())
      std::printf("  %-22s %s\n", name.c_str(),
                  filter::scenario_description(name).c_str());
    return 1;
  }
  try {
    (void)autonomy::make_update_policy(policy_name);
  } catch (const std::invalid_argument& e) {
    std::printf("%s\n\nregistered policies:\n", e.what());
    for (const auto& name : autonomy::policy_names())
      std::printf("  %-12s %s\n", name.c_str(),
                  autonomy::policy_description(name).c_str());
    return 1;
  }

  std::printf(
      "cimnav drone localization: closed-loop uncertainty-aware odometry\n"
      "scenario '%s' (%s)\npolicy   '%s' (%s)\n\n",
      scenario_name.c_str(),
      filter::scenario_description(scenario_name).c_str(),
      policy_name.c_str(),
      autonomy::policy_description(policy_name).c_str());

  core::ThreadPool pool;
  cfg.pool = &pool;
  const filter::LocalizationScenario scenario(cfg);

  // VO regressor trained on the synthetic landmark task, snapshotted onto
  // 6-bit CIM macros; one network serves every scenario.
  vo::VoPipelineConfig vo_cfg;
  vo_cfg.test_steps = 40;  // default capacity/training, shorter test path
  vo_cfg.pool = &pool;
  const vo::VoPipeline vo(vo_cfg);
  cimsram::CimMacroConfig macro;
  macro.input_bits = 6;
  macro.weight_bits = 6;
  macro.adc_bits = 6;
  const auto cim = vo.make_cim_network(macro);
  const auto cim_model = scenario.make_cim_backend();

  const int frames =
      static_cast<int>(scenario.trajectory().controls.size());
  std::printf("scene: %.1f x %.1f x %.1f m, %zu boxes; flight: %d frames, "
              "%d particles%s\n",
              cfg.scene.room_size.x, cfg.scene.room_size.y,
              cfg.scene.room_size.z, scenario.scene().boxes().size(), frames,
              cfg.filter.particle_count,
              cfg.global_init ? " (global init: kidnapped drone)" : "");
  std::printf("VO regressor: train MSE %.5f, test MSE %.5f, 6-bit CIM "
              "macros, T=20 MC iterations\n\n",
              vo.train_mse(), vo.test_mse());

  vo::ClosedLoopConfig loop_cfg;
  loop_cfg.window = 4;
  loop_cfg.pool = &pool;
  loop_cfg.mc.iterations = 20;
  loop_cfg.mc.dropout_p = vo_cfg.dropout_p;
  loop_cfg.inflation.gain = 1.0;
  loop_cfg.policy = policy_name;

  loop_cfg.mode = vo::OdometryMode::kOpenLoop;
  const auto open_run =
      vo::run_odometry_loop(scenario, vo, *cim, *cim_model, loop_cfg);
  loop_cfg.mode = vo::OdometryMode::kClosedLoop;
  const auto closed_run =
      vo::run_odometry_loop(scenario, vo, *cim, *cim_model, loop_cfg);

  core::Table table({"frame", "pf err [m]", "spread [m]", "ESS frac",
                     "vo sigma", "action", "E [uJ]", ""});
  table.set_precision(3);
  const double sigma_mean = closed_run.mean_vo_sigma;
  for (int f = 0; f < frames; f += 4) {
    const auto& r = closed_run.steps[static_cast<std::size_t>(f)];
    table.add_row({static_cast<double>(r.step), r.position_error_m,
                   r.position_spread_m, r.ess_fraction, r.vo_sigma,
                   std::string(autonomy::update_action_label(r.update_action)),
                   r.energy_j * 1e6,
                   std::string(r.vo_sigma > 1.5 * sigma_mean
                                   ? "high uncertainty"
                                   : "")});
  }
  std::printf("closed-loop flight (VO posterior drives the filter; the "
              "policy drives the array):\n");
  table.print(std::cout);

  std::printf("\n%-12s  rmse %.3f m  final %.3f m  mean spread %.3f m\n",
              open_run.mode_label.c_str(), open_run.rmse_m,
              open_run.final_error_m, open_run.mean_spread_m);
  std::printf("%-12s  rmse %.3f m  final %.3f m  mean spread %.3f m\n",
              closed_run.mode_label.c_str(), closed_run.rmse_m,
              closed_run.final_error_m, closed_run.mean_spread_m);
  std::printf("energy ledger: VO %.2f uJ + likelihood %.2f uJ = %.2f uJ "
              "(%llu likelihood evals; %d full / %d decimated / %d "
              "skipped)\n",
              closed_run.vo_energy_j * 1e6, closed_run.update_energy_j * 1e6,
              closed_run.total_energy_j * 1e6,
              static_cast<unsigned long long>(closed_run.likelihood_evals),
              closed_run.full_updates, closed_run.decimated_updates,
              closed_run.skipped_updates);

  if (policy_name != "always") {
    vo::ClosedLoopConfig base_cfg = loop_cfg;
    base_cfg.policy = "always";
    const auto base_run =
        vo::run_odometry_loop(scenario, vo, *cim, *cim_model, base_cfg);
    std::printf("vs always: likelihood energy %.2f -> %.2f uJ (%.0f%% "
                "saved, measured), rmse %.3f -> %.3f m (%.2fx)\n",
                base_run.update_energy_j * 1e6,
                closed_run.update_energy_j * 1e6,
                100.0 * (1.0 - closed_run.update_energy_j /
                                   base_run.update_energy_j),
                base_run.rmse_m, closed_run.rmse_m,
                closed_run.rmse_m / base_run.rmse_m);
  }

  // Determinism contract: the pooled, windowed closed-loop run must be
  // bit-identical to the serial per-frame loop (policy decisions
  // included — they are pure functions of the frame-ordered signals).
  vo::ClosedLoopConfig serial_cfg = loop_cfg;
  serial_cfg.window = 1;
  serial_cfg.pool = nullptr;
  const auto serial_run =
      vo::run_odometry_loop(scenario, vo, *cim, *cim_model, serial_cfg);
  bool identical = serial_run.steps.size() == closed_run.steps.size();
  for (std::size_t i = 0; identical && i < closed_run.steps.size(); ++i) {
    identical =
        closed_run.steps[i].position_error_m ==
            serial_run.steps[i].position_error_m &&
        closed_run.steps[i].vo_sigma == serial_run.steps[i].vo_sigma &&
        closed_run.steps[i].update_action ==
            serial_run.steps[i].update_action &&
        closed_run.steps[i].likelihood_evals ==
            serial_run.steps[i].likelihood_evals;
  }
  std::printf("\npooled closed loop bit-identical to the serial "
              "per-frame loop: %s\n",
              identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 2;
}
