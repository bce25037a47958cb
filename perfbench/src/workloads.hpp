// The benchmark's workloads and their set-up, built only through the
// program's public constructors.
//
//   solo_corridor     one corridor_dropout flight via vo::run_odometry_loop
//                     at pool 4 and pool 1;
//   fleet_vo_heavy    8 closed-loop clients on one fleet::FleetEngine,
//                     T=30 compute-reuse sessions with a light likelihood;
//   fleet_relocalize  4 clients, one session each, two on a kidnapped_drone
//                     and two on a warehouse_symmetry tenant, under
//                     deadline admission with a two-seat working set.
//
// Every session's run/feature/mask/analog seeds derive from the workload
// seed and the session's key, so the same seed gives the same sessions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "filter/measurement.hpp"
#include "filter/scenario.hpp"
#include "fleet/qos.hpp"
#include "nn/cim_mlp.hpp"
#include "vo/closed_loop.hpp"
#include "vo/pipeline.hpp"

namespace perfbench {

/// Frames a session advances per stage-B dispatch, in every workload.
constexpr int kWindow = 4;

/// One tenant: a scenario plus the session template flown on it.
struct TenantDef {
  std::string scenario;           ///< scenario registry name
  bool light_likelihood = false;  ///< shrink to the fleet_vo_heavy sizing
  cimnav::vo::ClosedLoopConfig loop;  ///< seeds and pool are filled per session
  cimnav::fleet::QosSpec qos;
};

struct WorkloadDef {
  std::string name;
  /// Closed-loop fleet clients; 0 = a solo flight through run_odometry_loop.
  int clients = 0;
  std::string admission = "fifo";
  std::size_t working_set = 0;
  std::vector<TenantDef> tenants;
  /// Sessions each fleet client flies in one pass of the fleet region.
  /// They form the fixed set behind the seed-exact rmse/energy metrics
  /// and the output checks; every pass flies the same set.
  int sessions_per_client = 2;
  /// Fixed-set sessions re-run standalone at pool 1 (output check and
  /// frame_ms_1t).
  int check_sessions = 1;
  /// Standalone pool-1 flights between two passes of the fleet region.
  int check_flights_per_pass = 1;
  /// Sessions the warm-up wave flies before timing starts.
  int warmup_sessions = 1;
};

/// The registered workloads; throws std::invalid_argument on unknown names.
const WorkloadDef& workload(const std::string& name);
std::vector<std::string> workload_names();

struct Tenant {
  const TenantDef* def = nullptr;
  std::unique_ptr<cimnav::filter::LocalizationScenario> scenario;
  std::unique_ptr<cimnav::filter::MeasurementModel> model;
  int likelihood_columns = 0;  ///< inverter-array columns per read
};

/// Everything a workload needs before its first frame, with the time each
/// public constructor took.
struct Setup {
  std::unique_ptr<cimnav::vo::VoPipeline> vo;
  std::unique_ptr<cimnav::nn::CimMlp> net;
  std::vector<Tenant> tenants;
  double vo_train_s = 0.0;        ///< VoPipeline construction (training)
  double scenario_build_s = 0.0;  ///< LocalizationScenario (map fit)
  double cim_program_s = 0.0;     ///< make_cim_network + make_cim_backend
  double total_s = 0.0;           ///< wall time of the whole set-up
};

Setup build_setup(const WorkloadDef& def);

/// The tenant's session template with seeds derived from (seed, key).
cimnav::vo::ClosedLoopConfig session_config(const TenantDef& tenant,
                                            std::uint64_t seed,
                                            std::uint64_t key,
                                            cimnav::core::ThreadPool* pool);

/// Bitwise equality of two runs: every per-frame record and the totals.
bool same_run(const cimnav::vo::ClosedLoopRun& a,
              const cimnav::vo::ClosedLoopRun& b);

}  // namespace perfbench
