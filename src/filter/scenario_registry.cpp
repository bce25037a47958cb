// Named-scenario registry (declared in scenario.hpp): string-selectable
// end-to-end localization workloads on the shared core::NameRegistry.
// Each built-in pairs a scene layout with a trajectory kind and filter
// sizing tuned so a full open- or closed-loop run finishes in seconds and
// per-step deltas stay inside the VO regressor's training envelope
// (|delta_pos| <~ 0.15 m, |delta_yaw| <~ 0.16 rad per step).
#include "filter/scenario.hpp"

#include <utility>

#include "core/error.hpp"
#include "core/name_registry.hpp"

namespace cimnav::filter {
namespace {

ScenarioConfig base_config() {
  ScenarioConfig cfg;
  cfg.scene.room_size = {2.6, 2.2, 1.8};
  cfg.map_cloud_points = 3000;
  cfg.mixture_components = 60;
  cfg.scan_pixels = 80;
  cfg.likelihood_beta = 0.25;
  cfg.filter.particle_count = 500;
  cfg.cim_columns = 500;
  return cfg;
}

ScenarioConfig indoor_loop() {
  ScenarioConfig cfg = base_config();
  cfg.trajectory = TrajectoryKind::kEllipsePan;
  cfg.trajectory_steps = 44;
  cfg.seed = 42;
  return cfg;
}

ScenarioConfig corridor_dropout() {
  ScenarioConfig cfg = base_config();
  cfg.scene.room_size = {3.4, 1.2, 1.8};
  cfg.scene.layout = map::SceneLayout::kCorridor;
  cfg.scene.furniture_count = 4;
  cfg.scene.clutter_count = 8;
  cfg.trajectory = TrajectoryKind::kCorridorSweep;
  cfg.trajectory_steps = 36;
  cfg.seed = 171;
  return cfg;
}

ScenarioConfig loop_closure_square() {
  ScenarioConfig cfg = base_config();
  cfg.scene.room_size = {3.0, 2.6, 1.8};
  cfg.trajectory = TrajectoryKind::kRoundedSquare;
  cfg.trajectory_steps = 56;
  cfg.seed = 272;
  return cfg;
}

ScenarioConfig warehouse_symmetry() {
  ScenarioConfig cfg = base_config();
  cfg.scene.room_size = {3.2, 2.8, 1.8};
  cfg.scene.layout = map::SceneLayout::kWarehouse;
  cfg.scene.furniture_count = 6;  // three mirrored rack pairs
  cfg.scene.clutter_count = 8;    // four mirrored clutter pairs
  cfg.trajectory = TrajectoryKind::kEllipsePan;
  cfg.trajectory_steps = 48;
  cfg.seed = 373;
  return cfg;
}

ScenarioConfig kidnapped_drone() {
  // The warehouse layout, but the filter starts with *no* pose prior:
  // uniform cloud over the interior, full heading uncertainty
  // (global_init). Uncertainty genuinely spikes here — the first updates
  // are ESS-degenerate by construction — so the scenario exercises both
  // the ESS-targeted tempering floor and the wake-up policies' ESS wake
  // rule. More particles than the tracking scenarios (the cloud must
  // cover the whole room) and a tempering floor on by default.
  ScenarioConfig cfg = base_config();
  cfg.scene.room_size = {3.2, 2.8, 1.8};
  cfg.scene.layout = map::SceneLayout::kWarehouse;
  cfg.scene.furniture_count = 6;
  cfg.scene.clutter_count = 8;
  cfg.trajectory = TrajectoryKind::kEllipsePan;
  cfg.trajectory_steps = 48;
  cfg.seed = 474;
  cfg.global_init = true;
  cfg.filter.particle_count = 900;
  cfg.filter.tempering_ess_floor = 0.10;
  return cfg;
}

using ScenarioRegistry = core::NameRegistry<std::function<ScenarioConfig()>>;

ScenarioRegistry& registry() {
  static ScenarioRegistry r("scenario");
  // Built-in registrations. scripts/check_docs.py greps add_scenario /
  // register_scenario calls with a string-literal first argument under
  // src/filter/ and requires every such name to appear in the docs.
  static const bool built_ins = [&] {
    const auto add_scenario = [&](const char* name, const char* description,
                                  std::function<ScenarioConfig()> factory) {
      r.add(name, description, std::move(factory));
    };
    add_scenario("indoor_loop",
                 "cluttered room, panning ellipse (the classic "
                 "tabletop-scene flight)",
                 indoor_loop);
    add_scenario("corridor_dropout",
                 "bare-mid-span corridor, one-way sweep through the "
                 "feature-dropout zone",
                 corridor_dropout);
    add_scenario("loop_closure_square",
                 "constant-speed rounded square returning exactly to "
                 "its start pose",
                 loop_closure_square);
    add_scenario("warehouse_symmetry",
                 "mirrored rack pairs: likelihood field ambiguous "
                 "under 180-degree rotation",
                 warehouse_symmetry);
    add_scenario("kidnapped_drone",
                 "warehouse with global init: no pose prior, the filter "
                 "must relocalize from scratch",
                 kidnapped_drone);
    return true;
  }();
  (void)built_ins;
  return r;
}

}  // namespace

ScenarioConfig make_scenario_config(std::string_view name) {
  // NameRegistry::lookup copies the factory out of the critical section;
  // invoking it here keeps re-entrant factories (a derived scenario
  // starting from make_scenario_config of a built-in) deadlock-free.
  return registry().lookup(name)();
}

std::vector<std::string> scenario_names() { return registry().names(); }

std::string scenario_description(std::string_view name) {
  return registry().description(name);
}

bool register_scenario(std::string name, std::string description,
                       std::function<ScenarioConfig()> factory) {
  CIMNAV_REQUIRE(!name.empty(), "scenario name must be non-empty");
  CIMNAV_REQUIRE(factory != nullptr, "scenario factory must be callable");
  return registry().add(std::move(name), std::move(description),
                        std::move(factory));
}

}  // namespace cimnav::filter
