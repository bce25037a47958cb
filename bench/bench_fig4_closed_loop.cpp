// Closed-loop vs open-loop odometry across the named scenario suite (the
// paper's full autonomy loop, Sec. II + III-D: MC-Dropout VO uncertainty
// made *actionable* through the particle filter's prediction step).
//
// For every registered localization scenario, the same frames run twice:
//
//   open loop    ground-truth controls + static process noise;
//   closed loop  VO posterior mean as the control, per-axis predictive
//                stddev inflating the process noise.
//
// Reports trajectory RMSE, final error and particle-cloud spread per
// mode (averaged over run seeds), plus a bit-identity probe that re-runs
// one closed-loop scenario at thread pools 1/2/8 and windows 1/4 — the
// determinism contract of vo::run_odometry_loop.
// Emits BENCH_closed_loop.json (summary metrics tracked by
// scripts/bench_diff.py against bench/baselines/).
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "filter/scenario.hpp"
#include "vo/closed_loop.hpp"
#include "vo/pipeline.hpp"

namespace {

using namespace cimnav;

struct ModeStats {
  double rmse = 0.0;
  double final_error = 0.0;
  double spread = 0.0;
  double vo_sigma = 0.0;
};

bool same_steps(const vo::ClosedLoopRun& a, const vo::ClosedLoopRun& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].position_error_m != b.steps[i].position_error_m ||
        a.steps[i].position_spread_m != b.steps[i].position_spread_m ||
        a.steps[i].vo_sigma != b.steps[i].vo_sigma)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  std::printf("=== Fig. 4 (this repo): closed-loop vs open-loop odometry "
              "across the scenario suite ===\n\n");

  core::ThreadPool pool;
  bench::Suite suite("closed_loop");

  // One VO regressor serves every scenario (default capacity — the same
  // fidelity class as bench_fig3ce — on 6-bit CIM macros).
  vo::VoPipelineConfig vo_cfg;
  vo_cfg.test_steps = 40;
  vo_cfg.pool = &pool;
  const vo::VoPipeline vo(vo_cfg);
  cimsram::CimMacroConfig macro;
  macro.input_bits = 6;
  macro.weight_bits = 6;
  macro.adc_bits = 6;
  const auto cim = vo.make_cim_network(macro);

  const std::vector<std::uint64_t> run_seeds{31, 131};
  const auto names = filter::scenario_names();

  core::Table table({"scenario", "mode", "rmse [m]", "final [m]",
                     "spread [m]", "vo sigma"});
  table.set_precision(3);

  double ratio_sum = 0.0, spread_ratio_sum = 0.0;
  int suite_size = 0;
  // The corridor scenario + backend are kept alive for the determinism
  // probe below (map fitting is the expensive part of construction).
  std::unique_ptr<filter::LocalizationScenario> probe_scenario;
  std::unique_ptr<filter::MeasurementModel> probe_model;
  for (const auto& name : names) {
    filter::ScenarioConfig cfg = filter::make_scenario_config(name);
    // Global-init (kidnapped-drone) workloads are a relocalization
    // study, not an open-vs-closed tracking comparison; they run in
    // bench_fig5_wakeup instead.
    if (cfg.global_init) continue;
    ++suite_size;
    cfg.pool = &pool;
    auto scenario_ptr = std::make_unique<filter::LocalizationScenario>(cfg);
    const filter::LocalizationScenario& scenario = *scenario_ptr;
    auto model = scenario.make_cim_backend();

    ModeStats stats[2];  // [open, closed]
    for (int mode = 0; mode < 2; ++mode) {
      for (auto seed : run_seeds) {
        vo::ClosedLoopConfig loop_cfg;
        loop_cfg.mode = mode == 0 ? vo::OdometryMode::kOpenLoop
                                  : vo::OdometryMode::kClosedLoop;
        loop_cfg.window = 4;
        loop_cfg.pool = &pool;
        loop_cfg.mc.iterations = 16;
        loop_cfg.mc.dropout_p = vo_cfg.dropout_p;
        loop_cfg.run_seed = seed;
        const auto run =
            vo::run_odometry_loop(scenario, vo, *cim, *model, loop_cfg);
        const double w = 1.0 / static_cast<double>(run_seeds.size());
        stats[mode].rmse += w * run.rmse_m;
        stats[mode].final_error += w * run.final_error_m;
        stats[mode].spread += w * run.mean_spread_m;
        stats[mode].vo_sigma += w * run.mean_vo_sigma;
      }
      table.add_row({name, mode == 0 ? "open-loop" : "closed-loop",
                     stats[mode].rmse, stats[mode].final_error,
                     stats[mode].spread, stats[mode].vo_sigma});
    }

    const double rmse_ratio = stats[1].rmse / stats[0].rmse;
    const double spread_ratio = stats[1].spread / stats[0].spread;
    ratio_sum += rmse_ratio;
    spread_ratio_sum += spread_ratio;
    suite.add_summary("open_rmse_" + name, stats[0].rmse);
    suite.add_summary("closed_rmse_" + name, stats[1].rmse);
    suite.add_summary("closed_over_open_rmse_" + name, rmse_ratio);
    suite.add_summary("closed_spread_over_open_" + name, spread_ratio);
    if (name == "corridor_dropout") {
      probe_scenario = std::move(scenario_ptr);
      probe_model = std::move(model);
    }
  }
  table.print(std::cout);

  // Determinism probe: the cheapest scenario, closed loop, pools 1/2/8
  // and windows 1/4 — every run must be bit-identical. Reuses the
  // corridor scenario built in the loop (ScenarioConfig::pool only
  // affects scenario.run(), which the probe never calls).
  bool identical = probe_scenario != nullptr;  // no probe -> fail the gate
  if (probe_scenario != nullptr) {
    const filter::LocalizationScenario& scenario = *probe_scenario;
    const auto& model = probe_model;
    vo::ClosedLoopConfig loop_cfg;
    loop_cfg.mode = vo::OdometryMode::kClosedLoop;
    loop_cfg.mc.iterations = 8;
    loop_cfg.mc.dropout_p = vo_cfg.dropout_p;
    loop_cfg.window = 1;
    loop_cfg.pool = nullptr;
    const auto ref = vo::run_odometry_loop(scenario, vo, *cim, *model,
                                           loop_cfg);
    core::ThreadPool p1(1), p2(2), p8(8);
    for (core::ThreadPool* p : {&p1, &p2, &p8}) {
      loop_cfg.pool = p;
      loop_cfg.window = 4;
      identical = identical &&
                  same_steps(ref, vo::run_odometry_loop(scenario, vo, *cim,
                                                        *model, loop_cfg));
    }
  }
  std::printf("\nclosed loop bit-identical at pools 1/2/8, windows 1/4: "
              "%s\n",
              identical ? "yes" : "NO (bug!)");

  const double n = static_cast<double>(suite_size);
  suite.add_summary("scenario_count", n);
  suite.add_summary("closed_over_open_rmse_mean", ratio_sum / n);
  suite.add_summary("closed_spread_inflation_mean", spread_ratio_sum / n);
  suite.add_summary("closed_loop_bit_identity", identical ? 1.0 : 0.0);
  suite.write_json();
  return identical ? 0 : 2;
}
