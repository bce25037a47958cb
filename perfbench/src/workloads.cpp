#include "workloads.hpp"

#include <stdexcept>

#include "core/rng.hpp"
#include "measure.hpp"

namespace perfbench {
namespace {

using namespace cimnav;

/// The VO regressor every workload flies. Training runs 8 epochs instead
/// of VoPipelineConfig's 120 so that three set-ups fit in one run; the
/// network shape, data and per-epoch work are the library defaults.
vo::VoPipelineConfig vo_config() {
  vo::VoPipelineConfig cfg;
  cfg.test_steps = 40;
  cfg.train.epochs = 8;
  return cfg;
}

cimsram::CimMacroConfig macro_config() {
  cimsram::CimMacroConfig m;
  m.input_bits = 6;
  m.weight_bits = 6;
  m.adc_bits = 6;
  return m;
}

filter::ScenarioConfig scenario_config(const TenantDef& t) {
  filter::ScenarioConfig cfg = filter::make_scenario_config(t.scenario);
  if (t.light_likelihood) {
    cfg.filter.particle_count = 64;
    cfg.scan_pixels = 24;
    cfg.cim_columns = 60;
    cfg.mixture_components = 20;
    cfg.map_cloud_points = 1200;
  }
  return cfg;
}

vo::ClosedLoopConfig loop_template(int iterations, const char* policy) {
  vo::ClosedLoopConfig c;
  c.window = kWindow;
  c.mc.iterations = iterations;
  c.mc.dropout_p = vo_config().dropout_p;
  c.policy = policy;
  return c;
}

std::vector<WorkloadDef> make_workloads() {
  std::vector<WorkloadDef> out;

  WorkloadDef solo;
  solo.name = "solo_corridor";
  solo.tenants.push_back({"corridor_dropout", false,
                          loop_template(16, "always"), {}});
  out.push_back(solo);

  WorkloadDef vo_heavy;
  vo_heavy.name = "fleet_vo_heavy";
  vo_heavy.clients = 8;
  vo::ClosedLoopConfig reuse = loop_template(30, "sigma_gate");
  reuse.mc.compute_reuse = true;
  reuse.mc.order_samples = true;
  vo_heavy.tenants.push_back({"corridor_dropout", true, reuse, {}});
  // Four ~40 ms flights between passes of ~0.3 s: many short passes, so
  // that each tick's fastest pass is found, and every checked session is
  // still flown several times.
  vo_heavy.check_sessions = 16;
  vo_heavy.check_flights_per_pass = 4;
  vo_heavy.warmup_sessions = 8;
  out.push_back(vo_heavy);

  WorkloadDef reloc;
  reloc.name = "fleet_relocalize";
  reloc.clients = 4;
  reloc.admission = "deadline";
  reloc.working_set = 2;
  vo::ClosedLoopConfig kidnapped = loop_template(16, "always");
  kidnapped.kld_adapt = true;
  fleet::QosSpec urgent;
  urgent.priority = 1;
  urgent.target_latency_ticks = 18;
  fleet::QosSpec tracking;
  tracking.target_latency_ticks = 30;
  reloc.tenants.push_back({"kidnapped_drone", false, kidnapped, urgent});
  reloc.tenants.push_back({"warehouse_symmetry", false,
                           loop_template(16, "always"), tracking});
  // One 48-frame session per client keeps a pass near 6 s, so that two
  // passes and a set-up fit one run; clients 0 and 2 fly the kidnapped
  // tenant, 1 and 3 the tracking one.
  reloc.sessions_per_client = 1;
  reloc.check_sessions = 2;
  reloc.check_flights_per_pass = 2;
  reloc.warmup_sessions = 2;
  out.push_back(reloc);
  return out;
}

const std::vector<WorkloadDef>& registry() {
  static const std::vector<WorkloadDef> defs = make_workloads();
  return defs;
}

}  // namespace

const WorkloadDef& workload(const std::string& name) {
  for (const WorkloadDef& w : registry())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadDef& w : registry()) names.push_back(w.name);
  return names;
}

Setup build_setup(const WorkloadDef& def) {
  Setup s;
  const Clock::time_point start = Clock::now();

  Clock::time_point t0 = Clock::now();
  s.vo = std::make_unique<vo::VoPipeline>(vo_config());
  s.vo_train_s = seconds_between(t0, Clock::now());

  for (const TenantDef& t : def.tenants) {
    const filter::ScenarioConfig cfg = scenario_config(t);
    t0 = Clock::now();
    auto scenario = std::make_unique<filter::LocalizationScenario>(cfg);
    s.scenario_build_s += seconds_between(t0, Clock::now());
    Tenant tenant;
    tenant.def = &t;
    tenant.scenario = std::move(scenario);
    s.tenants.push_back(std::move(tenant));
  }

  t0 = Clock::now();
  s.net = s.vo->make_cim_network(macro_config());
  for (Tenant& t : s.tenants) t.model = t.scenario->make_cim_backend();
  s.cim_program_s = seconds_between(t0, Clock::now());

  s.total_s = seconds_between(start, Clock::now());
  for (Tenant& t : s.tenants) {
    const auto* cim =
        dynamic_cast<const filter::CimHmgmLikelihood*>(t.model.get());
    t.likelihood_columns = cim != nullptr ? cim->array().column_count() : 0;
  }
  return s;
}

vo::ClosedLoopConfig session_config(const TenantDef& tenant,
                                    std::uint64_t seed, std::uint64_t key,
                                    core::ThreadPool* pool) {
  vo::ClosedLoopConfig c = tenant.loop;
  c.pool = pool;
  core::Rng r = core::Rng::stream(seed, key);
  c.run_seed = r();
  c.feature_seed = r();
  c.mask_seed = r();
  c.analog_seed = r();
  return c;
}

bool same_run(const vo::ClosedLoopRun& a, const vo::ClosedLoopRun& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const vo::ClosedLoopStep& x = a.steps[i];
    const vo::ClosedLoopStep& y = b.steps[i];
    if (x.step != y.step || x.position_error_m != y.position_error_m ||
        x.yaw_error_rad != y.yaw_error_rad ||
        x.ess_fraction != y.ess_fraction ||
        x.position_spread_m != y.position_spread_m ||
        x.vo_delta_error_m != y.vo_delta_error_m ||
        x.vo_sigma != y.vo_sigma || x.update_action != y.update_action ||
        x.update_beta != y.update_beta ||
        x.likelihood_evals != y.likelihood_evals ||
        x.update_energy_j != y.update_energy_j ||
        x.vo_energy_j != y.vo_energy_j || x.energy_j != y.energy_j ||
        x.particle_count != y.particle_count)
      return false;
  }
  return a.rmse_m == b.rmse_m && a.final_error_m == b.final_error_m &&
         a.vo_energy_j == b.vo_energy_j &&
         a.update_energy_j == b.update_energy_j &&
         a.total_energy_j == b.total_energy_j &&
         a.likelihood_evals == b.likelihood_evals &&
         a.full_updates == b.full_updates &&
         a.decimated_updates == b.decimated_updates &&
         a.skipped_updates == b.skipped_updates &&
         a.mean_particles == b.mean_particles &&
         a.final_particles == b.final_particles;
}

}  // namespace perfbench
