// Fleet server demo: one long-running fleet::FleetEngine multiplexing a
// fleet of drone sessions over a single set of simulated 8T-SRAM CIM
// macro arrays — the edge-server deployment of the paper's system, where
// the expensive in-memory compute is a shared resource and each drone's
// odometry loop is a tenant.
//
// The engine runs its scheduler on a background thread (start()/stop());
// the "operator" thread here plays several drones phoning in: it submits
// sessions over the bounded MPSC queue in two waves across two named
// scenarios, polls the returned future-style handles, then prints each
// drone's track summary plus the engine's cross-session batching ledger.
//
// The drones carry mixed QoS classes (interactive / standard /
// background, cycling by drone index) and contend for a 2-seat working
// set, so the named admission policy — second argument, default
// "priority" — decides who batches each tick; the per-class dispatch
// ledger from FleetEngine::qos_report() is printed at the end.
//
// Every session is bit-identical to a standalone vo::run_odometry_loop
// with the same seed — the fleet changes *where* the work runs, never
// what it computes (QoS schedules sessions, not frames). The demo
// verifies that for one of the drones.
//
//   $ ./example_fleet_server [n_drones] [fifo|priority|deadline]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "filter/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "vo/closed_loop.hpp"
#include "vo/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace cimnav;

  int n_drones = 6;
  if (argc > 1) n_drones = std::max(1, std::atoi(argv[1]));
  const std::string admission = argc > 2 ? argv[2] : "priority";

  std::printf("=== Fleet server: %d drones over one CIM macro bank "
              "(admission: %s) ===\n\n",
              n_drones, admission.c_str());

  // Shared resources: one VO network, one worker pool, two scenario
  // workloads (map + measurement backend each). Sessions borrow these;
  // the engine owns only execution state.
  core::ThreadPool pool;
  vo::VoPipelineConfig vo_cfg;
  vo_cfg.test_steps = 24;
  vo_cfg.pool = &pool;
  const vo::VoPipeline vo(vo_cfg);
  cimsram::CimMacroConfig macro;
  macro.input_bits = 6;
  macro.weight_bits = 6;
  macro.adc_bits = 6;
  const auto cim = vo.make_cim_network(macro);

  const char* names[2] = {"indoor_loop", "corridor_dropout"};
  std::vector<filter::LocalizationScenario> scenarios;
  std::vector<std::unique_ptr<filter::MeasurementModel>> models;
  for (const char* name : names)
    scenarios.emplace_back(filter::make_scenario_config(name));
  for (const auto& s : scenarios) models.push_back(s.make_cim_backend());

  fleet::FleetConfig fcfg;
  fcfg.pool = &pool;
  fcfg.window = 4;
  fcfg.max_sessions = 4;  // at most 4 drones in flight; the rest queue
  fcfg.queue_capacity = 32;
  fcfg.admission = admission;  // throws here on an unknown policy name
  fcfg.working_set = 2;        // 2 batching seats for 4 live drones
  fleet::FleetEngine engine(fcfg);
  std::vector<std::size_t> workloads;
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    workloads.push_back(
        engine.add_workload(scenarios[i], vo, *cim, *models[i]));

  engine.start();  // scheduler thread takes over from here

  const auto spec_for = [&](int drone) {
    fleet::SessionSpec spec;
    spec.workload = workloads[static_cast<std::size_t>(drone) %
                              workloads.size()];
    spec.loop.window = 4;
    spec.loop.mc.iterations = 16;
    spec.loop.run_seed = 100 + static_cast<std::uint64_t>(drone);
    // Mixed service classes: interactive (2), standard (1), background
    // (0), cycling by drone. Interactive drones also carry a latency
    // target so deadline/EDF admission has something to order by.
    spec.qos.priority = 2 - drone % 3;
    if (spec.qos.priority == 2) spec.qos.target_latency_ticks = 16;
    return spec;
  };

  // Two waves of submissions with a gap, as if drones connect over time.
  std::vector<fleet::SessionHandle> handles;
  for (int d = 0; d < n_drones; ++d) {
    if (d == n_drones / 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fleet::SessionHandle h = engine.try_submit(spec_for(d));
    while (!h.valid()) {  // queue full: back off and retry
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      h = engine.try_submit(spec_for(d));
    }
    handles.push_back(std::move(h));
  }

  // Poll like a client would; wait() would do, but poll() shows the
  // non-blocking side of the handle API.
  std::size_t done = 0;
  while (done < handles.size()) {
    done = 0;
    for (const auto& h : handles) done += h.poll() ? 1u : 0u;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  engine.stop();

  core::Table table({"drone", "scenario", "frames", "rmse [m]",
                     "energy [uJ]"});
  table.set_precision(3);
  for (int d = 0; d < n_drones; ++d) {
    const auto& run = handles[static_cast<std::size_t>(d)].wait();
    table.add_row({"drone-" + std::to_string(d),
                   std::string(names[static_cast<std::size_t>(d) %
                                     workloads.size()]),
                   static_cast<double>(run.steps.size()), run.rmse_m,
                   run.total_energy_j * 1e6});
  }
  table.print(std::cout);

  const fleet::FleetStats st = engine.stats();
  const double ratio =
      st.pooled_layer_dispatches > 0
          ? static_cast<double>(st.serial_layer_dispatches) /
                static_cast<double>(st.pooled_layer_dispatches)
          : 0.0;
  // st.ticks is omitted: the background scheduler spins idle ticks while
  // the client polls, so it is wall-clock-dependent — everything printed
  // here is deterministic.
  std::printf("\nengine: %llu sessions, %llu frames; "
              "macro dispatches %llu pooled vs %llu serial-equivalent "
              "(%.2fx batching), %.2f uJ total\n",
              static_cast<unsigned long long>(st.sessions_completed),
              static_cast<unsigned long long>(st.completed_frames),
              static_cast<unsigned long long>(st.pooled_layer_dispatches),
              static_cast<unsigned long long>(st.serial_layer_dispatches),
              ratio, st.total_energy_j * 1e6);

  // Per-class QoS ledger. Sessions and frames per class are
  // deterministic; queue ages (and so deadline hits) depend on how the
  // operator's submission waves land against the background scheduler,
  // which is the point of the demo — a real server's QoS pressure is
  // wall-clock-shaped.
  const fleet::QosReport qr = engine.qos_report();
  std::printf("qos: policy %s, %llu/%llu deadline sessions at target, "
              "%llu starvation overrides\n",
              qr.admission.c_str(),
              static_cast<unsigned long long>(
                  qr.sessions_at_target_latency),
              static_cast<unsigned long long>(qr.deadline_sessions),
              static_cast<unsigned long long>(qr.starvation_overrides));
  for (const auto& cls : qr.classes)
    std::printf("  class %d: %llu sessions, %llu frames dispatched\n",
                cls.priority,
                static_cast<unsigned long long>(cls.sessions_completed),
                static_cast<unsigned long long>(cls.frames_dispatched));

  // Determinism spot-check: drone 0 re-run standalone, same seed.
  vo::ClosedLoopConfig solo = spec_for(0).loop;
  solo.pool = nullptr;
  const auto ref = vo::run_odometry_loop(scenarios[0], vo, *cim, *models[0],
                                         solo);
  const auto& fleet_run = handles[0].wait();
  const bool same = ref.rmse_m == fleet_run.rmse_m &&
                    ref.total_energy_j == fleet_run.total_energy_j;
  std::printf("drone-0 vs standalone run_odometry_loop: %s\n",
              same ? "bit-identical" : "MISMATCH");
  return same ? 0 : 1;
}
