// Tests the benchmark's TimedModel decorator: it forwards both counter
// methods of the wrapped backend, and a closed-loop run through it is
// bitwise equal to the undecorated run, energy ledger included.
//
//   ctest --test-dir .bench_build/cmake   (or run test_timed_model directly)
#include <cstdio>
#include <memory>

#include "core/thread_pool.hpp"
#include "filter/scenario.hpp"
#include "timed_model.hpp"
#include "vo/closed_loop.hpp"
#include "vo/pipeline.hpp"
#include "workloads.hpp"

namespace {

using namespace cimnav;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

/// Backend with fixed, recognizable counters.
class FixedModel final : public filter::MeasurementModel {
 public:
  double log_likelihood(const core::Pose& pose, const vision::DepthScan&,
                        core::Rng&) const override {
    return -pose.position.x;
  }
  const char* name() const override { return "fixed"; }
  std::uint64_t evaluation_count() const override { return 123456789; }
  double evaluation_energy_j() const override { return 2.5e-12; }
};

void forwards_counters() {
  const FixedModel inner;
  const perfbench::TimedModel timed(inner);
  expect(timed.evaluation_count() == inner.evaluation_count(),
         "evaluation_count forwards");
  expect(timed.evaluation_energy_j() == inner.evaluation_energy_j(),
         "evaluation_energy_j forwards");
  core::Rng rng(1);
  const double ll = timed.log_likelihood(core::Pose{{3.0, 0.0, 0.0}, 0.0},
                                         vision::DepthScan{}, rng);
  expect(ll == -3.0, "log_likelihood forwards the backend's value");
}

void decorated_run_is_bitwise_equal() {
  vo::VoPipelineConfig vc;
  vc.hidden_sizes = {32, 16};
  vc.train_samples = 300;
  vc.train.epochs = 3;
  vc.test_steps = 10;
  const vo::VoPipeline vo(vc);
  cimsram::CimMacroConfig macro;
  macro.input_bits = 6;
  macro.weight_bits = 6;
  macro.adc_bits = 6;
  const auto net = vo.make_cim_network(macro);

  filter::ScenarioConfig sc = filter::make_scenario_config("corridor_dropout");
  sc.trajectory_steps = 8;
  sc.map_cloud_points = 600;
  sc.mixture_components = 10;
  sc.scan_pixels = 16;
  sc.filter.particle_count = 48;
  sc.cim_columns = 40;
  const filter::LocalizationScenario scenario(sc);
  const auto model = scenario.make_cim_backend();
  const perfbench::TimedModel timed(*model);

  core::ThreadPool pool(2);
  for (const char* policy : {"always", "sigma_gate"}) {
    vo::ClosedLoopConfig cfg;
    cfg.pool = &pool;
    cfg.mc.iterations = 6;
    cfg.policy = policy;
    const vo::ClosedLoopRun plain =
        vo::run_odometry_loop(scenario, vo, *net, *model, cfg);
    const std::uint64_t busy0 = timed.busy_ns();
    const vo::ClosedLoopRun decorated =
        vo::run_odometry_loop(scenario, vo, *net, timed, cfg);
    expect(perfbench::same_run(plain, decorated),
           "decorated run equals the undecorated run bit for bit");
    expect(plain.total_energy_j == decorated.total_energy_j &&
               plain.update_energy_j == decorated.update_energy_j &&
               plain.likelihood_evals == decorated.likelihood_evals,
           "energy ledger and likelihood evaluations are identical");
    expect(decorated.likelihood_evals > 0 && timed.busy_ns() > busy0,
           "the decorator timed the filter's likelihood calls");
  }
  expect(timed.evaluation_count() == model->evaluation_count(),
         "evaluation_count tracks the wrapped array");
}

}  // namespace

int main() {
  forwards_counters();
  decorated_run_is_bitwise_equal();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
