// Multi-tenant fleet engine: cross-session MC batching measured end to
// end (the edge-server deployment story — one CIM macro bank multiplexed
// across a fleet of drones instead of one).
//
// Three claims, each gated on a *portable* quantity (deterministic
// counts and within-run ratios; raw multicore speedups are meaningless
// across heterogeneous CI hosts, some of which have one core):
//
//   batching    8 sessions sharing one network collapse into ONE pooled
//               macro dispatch per layer per tick — the deterministic
//               dispatch-count ratio (serial-equivalent / pooled layer
//               dispatches) must stay >= 4x at 8 sessions;
//   exactness   every fleet session is bit-identical to its serial
//               vo::run_odometry_loop — the fleet_bit_identity flag;
//   overhead    the scheduler itself is cheap: single-threaded fleet
//               wall time over the same 8 runs serial, as a within-run
//               ratio of medians over three alternating rounds (~1.0;
//               the batched dispatch amortizes per-frame bookkeeping,
//               the scheduler adds queue + grouping work);
//
// plus the KLD-adaptive particle-cost ledger: a kidnapped-drone session
// (900-particle global-init cloud) run with ClosedLoopConfig::kld_adapt
// sheds particles after convergence — the fleet reports the per-frame
// particle cost per session, and the savings fraction is tracked.
//
// The steady-state allocation probe re-runs admit -> run -> retire
// cycles on a warmed engine with a counting operator new (this binary's
// TU replaces it program-wide) and requires zero allocations.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "filter/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "vo/closed_loop.hpp"
#include "vo/pipeline.hpp"

// ------------------------------------------------------------- heap spy
namespace {

std::atomic<bool> g_count_heap{false};
std::atomic<std::uint64_t> g_heap_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_heap.load(std::memory_order_relaxed))
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Nothrow variants as well — libstdc++ temporary buffers allocate via
// nothrow new, and mixing the default one with this TU's free()-based
// delete is an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_heap.load(std::memory_order_relaxed))
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace cimnav;

bool same_runs(const vo::ClosedLoopRun& a, const vo::ClosedLoopRun& b) {
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].position_error_m != b.steps[i].position_error_m ||
        a.steps[i].position_spread_m != b.steps[i].position_spread_m ||
        a.steps[i].vo_sigma != b.steps[i].vo_sigma ||
        a.steps[i].likelihood_evals != b.steps[i].likelihood_evals ||
        a.steps[i].update_energy_j != b.steps[i].update_energy_j ||
        a.steps[i].vo_energy_j != b.steps[i].vo_energy_j ||
        a.steps[i].particle_count != b.steps[i].particle_count)
      return false;
  }
  return a.rmse_m == b.rmse_m && a.total_energy_j == b.total_energy_j;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::printf("=== Fleet engine: cross-session MC batching over shared "
              "macros ===\n\n");

  bench::Suite suite("fleet");

  vo::VoPipelineConfig vo_cfg;
  vo_cfg.test_steps = 40;
  const vo::VoPipeline vo(vo_cfg);
  cimsram::CimMacroConfig macro;
  macro.input_bits = 6;
  macro.weight_bits = 6;
  macro.adc_bits = 6;
  const auto cim = vo.make_cim_network(macro);

  filter::ScenarioConfig sc_cfg =
      filter::make_scenario_config("corridor_dropout");
  const filter::LocalizationScenario scenario(sc_cfg);
  const auto model = scenario.make_cim_backend();

  constexpr int kSessions = 8;
  constexpr int kWindow = 4;
  const auto spec_for = [](std::uint64_t seed) {
    vo::ClosedLoopConfig cfg;
    cfg.window = kWindow;
    cfg.mc.iterations = 16;
    cfg.run_seed = seed;
    return cfg;
  };

  // ---- serial reference: the same 8 sessions, one run_odometry_loop
  // each, single-threaded (within-run comparisons only).
  const auto run_serial = [&](std::vector<vo::ClosedLoopRun>& runs) {
    runs.clear();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSessions; ++i)
      runs.push_back(vo::run_odometry_loop(
          scenario, vo, *cim, *model,
          spec_for(31 + static_cast<std::uint64_t>(i))));
    return seconds_since(t0);
  };

  // ---- fleet: same sessions, one engine, single-threaded too — the
  // runtime ratio isolates scheduling + batching overhead, not cores.
  fleet::FleetConfig fcfg;
  fcfg.pool = nullptr;
  fcfg.window = kWindow;
  fcfg.max_sessions = kSessions;
  fcfg.queue_capacity = kSessions;
  std::unique_ptr<fleet::FleetEngine> engine;
  std::vector<fleet::SessionHandle> handles;
  const auto run_fleet = [&] {
    handles.clear();
    engine = std::make_unique<fleet::FleetEngine>(fcfg);
    const std::size_t workload =
        engine->add_workload(scenario, vo, *cim, *model);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSessions; ++i) {
      fleet::SessionSpec spec;
      spec.workload = workload;
      spec.loop = spec_for(31 + static_cast<std::uint64_t>(i));
      handles.push_back(engine->try_submit(spec));
    }
    engine->run_until_idle();
    return seconds_since(t0);
  };

  // Both sides run in three alternating rounds, and the tracked ratio
  // takes their medians. Every round's sessions must match that round's
  // serial runs.
  std::vector<vo::ClosedLoopRun> serial_runs;
  std::vector<double> serial_times, fleet_times;
  bool identical = true;
  for (int round = 0; round < 3; ++round) {
    serial_times.push_back(run_serial(serial_runs));
    fleet_times.push_back(run_fleet());
    for (int i = 0; i < kSessions; ++i)
      identical = identical &&
                  same_runs(serial_runs[static_cast<std::size_t>(i)],
                            handles[static_cast<std::size_t>(i)].wait());
  }
  const double serial_s = bench::median(serial_times);
  const double fleet_s = bench::median(fleet_times);

  core::Table table({"session", "rmse [m]", "energy [uJ]", "particles/frame"});
  table.set_precision(3);
  for (int i = 0; i < kSessions; ++i) {
    const auto& run = handles[static_cast<std::size_t>(i)].wait();
    table.add_row({"corridor_dropout/" + std::to_string(i), run.rmse_m,
                   run.total_energy_j * 1e6, run.mean_particles});
  }
  const fleet::FleetStats st = engine->stats();
  const double dispatch_ratio =
      st.pooled_layer_dispatches > 0
          ? static_cast<double>(st.serial_layer_dispatches) /
                static_cast<double>(st.pooled_layer_dispatches)
          : 0.0;
  const double overhead_ratio = serial_s > 0.0 ? fleet_s / serial_s : 0.0;

  std::printf("8 sessions, window %d, single-threaded:\n", kWindow);
  std::printf("  bit-identical to serial runs : %s\n",
              identical ? "yes" : "NO (bug!)");
  std::printf("  layer dispatches pooled      : %llu\n",
              static_cast<unsigned long long>(st.pooled_layer_dispatches));
  std::printf("  layer dispatches serial-eq   : %llu\n",
              static_cast<unsigned long long>(st.serial_layer_dispatches));
  std::printf("  dispatch ratio               : %.2fx (gate >= 4x)\n",
              dispatch_ratio);
  std::printf("  fleet / serial wall time     : %.3f (medians of 3 rounds)\n\n",
              overhead_ratio);

  suite.add_summary("fleet_bit_identity", identical ? 1.0 : 0.0);
  suite.add_summary("fleet_dispatch_ratio_8s", dispatch_ratio);
  suite.add_summary("fleet_dispatch_criterion_met",
                    dispatch_ratio >= 4.0 ? 1.0 : 0.0);
  suite.add_summary("fleet_over_serial_runtime_ratio", overhead_ratio);

  // ---- reuse tenants: the same 8 lock-step sessions with Sec. III-C
  // compute reuse on. Reuse refresh chains advance step-synchronously
  // through the chain-parallel engine, sharing the tick's pooled delta
  // dispatches with every other session — no frame-serial fallback —
  // so the dispatch-count ratio must hold the same >= 4x gate while
  // each session stays bit-identical to its standalone reuse run.
  {
    const auto rspec_for = [&](std::uint64_t seed) {
      vo::ClosedLoopConfig cfg = spec_for(seed);
      cfg.mc.compute_reuse = true;
      cfg.mc.order_samples = true;
      return cfg;
    };
    std::vector<vo::ClosedLoopRun> reuse_serial;
    for (int i = 0; i < kSessions; ++i)
      reuse_serial.push_back(vo::run_odometry_loop(
          scenario, vo, *cim, *model,
          rspec_for(31 + static_cast<std::uint64_t>(i))));

    fleet::FleetConfig rcfg;
    rcfg.pool = nullptr;
    rcfg.window = kWindow;
    rcfg.max_sessions = kSessions;
    rcfg.queue_capacity = kSessions;
    fleet::FleetEngine rengine(rcfg);
    const std::size_t rworkload =
        rengine.add_workload(scenario, vo, *cim, *model);
    std::vector<fleet::SessionHandle> rhandles;
    for (int i = 0; i < kSessions; ++i) {
      fleet::SessionSpec spec;
      spec.workload = rworkload;
      spec.loop = rspec_for(31 + static_cast<std::uint64_t>(i));
      rhandles.push_back(rengine.try_submit(spec));
    }
    rengine.run_until_idle();

    bool reuse_identical = true;
    for (int i = 0; i < kSessions; ++i)
      reuse_identical =
          reuse_identical &&
          same_runs(reuse_serial[static_cast<std::size_t>(i)],
                    rhandles[static_cast<std::size_t>(i)].wait());
    const fleet::FleetStats rst = rengine.stats();
    const double reuse_ratio =
        rst.pooled_layer_dispatches > 0
            ? static_cast<double>(rst.serial_layer_dispatches) /
                  static_cast<double>(rst.pooled_layer_dispatches)
            : 0.0;

    std::printf("8 reuse sessions, window %d, single-threaded:\n", kWindow);
    std::printf("  bit-identical to serial runs : %s\n",
                reuse_identical ? "yes" : "NO (bug!)");
    std::printf("  dispatch ratio               : %.2fx (gate >= 4x)\n\n",
                reuse_ratio);

    suite.add_summary("fleet_reuse_bit_identity", reuse_identical ? 1.0 : 0.0);
    suite.add_summary("fleet_reuse_dispatch_ratio_8s", reuse_ratio);
    suite.add_summary("fleet_reuse_dispatch_criterion_met",
                      reuse_ratio >= 4.0 ? 1.0 : 0.0);
  }

  // ---- KLD-adaptive particle cost: the kidnapped-drone 900-particle
  // global-init cloud sheds particles once the belief's support
  // collapses (Fox's bound, shrink-only). Per-session cost reported
  // through the fleet's particle-frames ledger.
  {
    filter::ScenarioConfig kcfg =
        filter::make_scenario_config("kidnapped_drone");
    const filter::LocalizationScenario kidnapped(kcfg);
    const auto kmodel = kidnapped.make_cim_backend();
    fleet::FleetConfig kf;
    kf.window = kWindow;
    fleet::FleetEngine kengine(kf);
    const std::size_t kw = kengine.add_workload(kidnapped, vo, *cim,
                                                *kmodel);
    fleet::SessionSpec spec;
    spec.workload = kw;
    spec.loop = spec_for(31);
    spec.loop.kld_adapt = true;
    fleet::SessionHandle fixed = kengine.try_submit(spec);
    spec.loop.kld_adapt = false;
    fleet::SessionHandle dense = kengine.try_submit(spec);
    kengine.run_until_idle();
    const auto& arun = fixed.wait();
    const auto& drun = dense.wait();
    const double configured = static_cast<double>(kcfg.filter.particle_count);
    const double savings = 1.0 - arun.mean_particles / configured;
    table.add_row({"kidnapped_drone/kld", arun.rmse_m,
                   arun.total_energy_j * 1e6, arun.mean_particles});
    table.add_row({"kidnapped_drone/fixed", drun.rmse_m,
                   drun.total_energy_j * 1e6, drun.mean_particles});
    std::printf("kidnapped_drone KLD-adaptive cloud: %d -> %d particles "
                "(mean %.0f/frame, %.0f%% saved; fixed-cloud rmse %.3f m, "
                "adaptive %.3f m)\n\n",
                kcfg.filter.particle_count, arun.final_particles,
                arun.mean_particles, savings * 100.0, drun.rmse_m,
                arun.rmse_m);
    suite.add_summary("fleet_kld_mean_particles", arun.mean_particles);
    suite.add_summary("fleet_kld_final_particles",
                      static_cast<double>(arun.final_particles));
    suite.add_summary("fleet_kld_particle_savings", savings);
    suite.add_summary("fleet_kld_rmse_ratio_vs_fixed",
                      drun.rmse_m > 0.0 ? arun.rmse_m / drun.rmse_m : 1.0);
  }
  table.print(std::cout);

  // ---- QoS admission sweep: six tenants contend for a two-seat
  // working set (a synthetic 3x overload), swept across every
  // registered admission policy. All gated quantities are
  // deterministic: deadline-hit fractions come from tick counting and
  // per-policy batching ratios from the dispatch ledger, and every
  // scheduled session must stay bit-identical to its standalone run —
  // QoS picks WHICH sessions batch, never what they compute.
  {
    filter::ScenarioConfig qcfg =
        filter::make_scenario_config("corridor_dropout");
    qcfg.trajectory_steps = 8;
    qcfg.map_cloud_points = 1200;
    qcfg.mixture_components = 20;
    qcfg.scan_pixels = 40;
    qcfg.filter.particle_count = 100;
    qcfg.cim_columns = 120;
    const filter::LocalizationScenario qscenario(qcfg);
    const auto qmodel = qscenario.make_cim_backend();

    constexpr int kTenants = 6;
    constexpr int kQosWindow = 2;
    // Alternating urgent/background tenants: tight deadlines ride the
    // high class. With 2 seats x window 2, a tenant needs 4 scheduled
    // ticks; fifo serves admission order (completions at ticks 4, 8,
    // 12), so the tight targets are only reachable by priority/EDF.
    const int priorities[kTenants] = {3, 1, 3, 1, 3, 1};
    const int targets[kTenants] = {6, 12, 6, 12, 6, 12};
    const auto qspec_for = [](int i) {
      vo::ClosedLoopConfig cfg;
      cfg.window = kQosWindow;
      cfg.mc.iterations = 5;
      cfg.run_seed = 61 + static_cast<std::uint64_t>(i);
      return cfg;
    };

    std::vector<vo::ClosedLoopRun> refs;
    for (int i = 0; i < kTenants; ++i)
      refs.push_back(vo::run_odometry_loop(qscenario, vo, *cim, *qmodel,
                                           qspec_for(i)));

    bool qos_identical = true;
    core::Table qtable({"policy", "at-target", "misses", "queue ticks",
                        "dispatch ratio"});
    qtable.set_precision(3);
    const std::vector<std::string> policies =
        fleet::admission_policy_names();
    for (const std::string& policy : policies) {
      fleet::FleetConfig qf;
      qf.pool = nullptr;
      qf.window = kQosWindow;
      qf.max_sessions = kTenants;
      qf.queue_capacity = kTenants;
      qf.admission = policy;
      qf.working_set = 2;
      fleet::FleetEngine qengine(qf);
      const std::size_t qw =
          qengine.add_workload(qscenario, vo, *cim, *qmodel);
      std::vector<fleet::SessionHandle> qhandles;
      for (int i = 0; i < kTenants; ++i) {
        fleet::SessionSpec spec;
        spec.workload = qw;
        spec.loop = qspec_for(i);
        spec.qos.priority = priorities[i];
        spec.qos.target_latency_ticks = targets[i];
        qhandles.push_back(qengine.try_submit(spec));
      }
      qengine.run_until_idle();
      for (int i = 0; i < kTenants; ++i)
        qos_identical =
            qos_identical &&
            same_runs(refs[static_cast<std::size_t>(i)],
                      qhandles[static_cast<std::size_t>(i)].wait());
      const fleet::QosReport report = qengine.qos_report();
      const fleet::FleetStats qst = qengine.stats();
      const double qratio =
          qst.pooled_layer_dispatches > 0
              ? static_cast<double>(qst.serial_layer_dispatches) /
                    static_cast<double>(qst.pooled_layer_dispatches)
              : 0.0;
      const double at_target =
          report.deadline_sessions > 0
              ? static_cast<double>(report.sessions_at_target_latency) /
                    static_cast<double>(report.deadline_sessions)
              : 1.0;
      qtable.add_row({policy, at_target,
                      static_cast<double>(report.deadline_misses),
                      static_cast<double>(report.queue_ticks), qratio});
      const std::string prefix = "fleet_qos_" + policy;
      suite.add_summary(prefix + "_at_target_fraction", at_target);
      suite.add_summary(prefix + "_dispatch_ratio", qratio);
    }
    std::printf("QoS sweep: %d tenants, 2-seat working set, window %d "
                "(deadline targets in scheduler ticks):\n",
                kTenants, kQosWindow);
    qtable.print(std::cout);
    std::printf("  bit-identical to standalone runs under every policy: "
                "%s\n\n",
                qos_identical ? "yes" : "NO (bug!)");
    suite.add_summary("fleet_qos_bit_identity", qos_identical ? 1.0 : 0.0);
    suite.add_summary("fleet_qos_policy_count",
                      static_cast<double>(policies.size()));
  }

  // ---- steady-state allocation probe: a small warmed engine (state
  // pool sized so warm-up cycles it fully) must run whole admit -> run
  // -> retire cycles without touching the heap.
  {
    filter::ScenarioConfig pcfg =
        filter::make_scenario_config("corridor_dropout");
    pcfg.trajectory_steps = 8;
    pcfg.map_cloud_points = 1200;
    pcfg.mixture_components = 20;
    pcfg.scan_pixels = 40;
    pcfg.filter.particle_count = 100;
    pcfg.cim_columns = 120;
    const filter::LocalizationScenario probe(pcfg);
    const auto pmodel = probe.make_cim_backend();
    fleet::FleetConfig pf;
    pf.window = kWindow;
    pf.max_sessions = 2;
    pf.queue_capacity = 2;
    fleet::FleetEngine pengine(pf);
    const std::size_t pw = pengine.add_workload(probe, vo, *cim, *pmodel);
    fleet::SessionSpec spec;
    spec.workload = pw;
    spec.loop = spec_for(31);
    spec.loop.mc.iterations = 5;
    const auto cycle = [&] {
      fleet::SessionHandle a = pengine.try_submit(spec);
      fleet::SessionHandle b = pengine.try_submit(spec);
      pengine.run_until_idle();
    };
    for (int i = 0; i < 3; ++i) cycle();
    g_heap_allocs.store(0, std::memory_order_relaxed);
    g_count_heap.store(true, std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) cycle();
    g_count_heap.store(false, std::memory_order_relaxed);
    const auto allocs = g_heap_allocs.load(std::memory_order_relaxed);
    std::printf("steady-state admit->run->retire heap allocations: %llu "
                "(gate: 0)\n",
                static_cast<unsigned long long>(allocs));
    suite.add_summary("fleet_zero_steady_state_alloc",
                      allocs == 0 ? 1.0 : 0.0);

    // Same probe with compute reuse on: the pooled reuse path keeps its
    // chain/delta scratch in per-thread pools sized on first use, so a
    // warmed engine must stay off the heap there too.
    spec.loop.mc.compute_reuse = true;
    spec.loop.mc.order_samples = true;
    for (int i = 0; i < 3; ++i) cycle();
    g_heap_allocs.store(0, std::memory_order_relaxed);
    g_count_heap.store(true, std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) cycle();
    g_count_heap.store(false, std::memory_order_relaxed);
    const auto reuse_allocs = g_heap_allocs.load(std::memory_order_relaxed);
    std::printf("steady-state reuse-path heap allocations: %llu "
                "(gate: 0)\n\n",
                static_cast<unsigned long long>(reuse_allocs));
    suite.add_summary("fleet_reuse_zero_steady_state_alloc",
                      reuse_allocs == 0 ? 1.0 : 0.0);
  }

  suite.write_json();
  return 0;
}
