// Error-path contracts, in two parameterized suites:
//
// RegistryContract — shared by the three name registries (filter
// scenarios, autonomy update policies, fleet admission policies), one
// probe per registry:
//
//   * looking up an unknown name throws std::invalid_argument whose
//     message names the offender AND lists every registered name;
//   * a duplicate register_* call is rejected as a new registration
//     (returns false; the mapping is replaced in place) — first
//     registrations return true.
//
// FleetErrorContract — session/completion error paths of the fleet
// engine, one probe per path: double-wait on a published run,
// poll-after-retire (+ handle reset/copy semantics), and queue-full
// admission (bounded rings reject, never block or buffer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "autonomy/update_policy.hpp"
#include "filter/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "vo/pipeline.hpp"

namespace cimnav {
namespace {

struct RegistryProbe {
  const char* label;
  std::vector<std::string> builtins;  ///< names the error must list
  std::function<void(const std::string&)> lookup;
  std::function<std::vector<std::string>()> names;
  /// Registers `name` (twice -> {true, false} expected).
  std::function<bool(const std::string&)> register_name;
};

RegistryProbe scenario_probe() {
  return {"scenario",
          {"indoor_loop", "corridor_dropout", "loop_closure_square",
           "warehouse_symmetry", "kidnapped_drone"},
          [](const std::string& n) { filter::make_scenario_config(n); },
          [] { return filter::scenario_names(); },
          [](const std::string& n) {
            return filter::register_scenario(
                n, "probe", [] { return filter::ScenarioConfig{}; });
          }};
}

RegistryProbe policy_probe() {
  return {"policy",
          {"always", "sigma_gate", "decimate"},
          [](const std::string& n) { autonomy::make_update_policy(n); },
          [] { return autonomy::policy_names(); },
          [](const std::string& n) {
            return autonomy::register_policy(
                n, "probe", [](const autonomy::PolicyConfig& cfg) {
                  return autonomy::make_update_policy("always", cfg);
                });
          }};
}

RegistryProbe admission_probe() {
  return {"admission",
          {"fifo", "priority", "deadline"},
          [](const std::string& n) { fleet::make_admission_policy(n); },
          [] { return fleet::admission_policy_names(); },
          [](const std::string& n) {
            return fleet::register_admission_policy(
                n, "probe",
                [] { return fleet::make_admission_policy("fifo"); });
          }};
}

class RegistryContract : public ::testing::TestWithParam<RegistryProbe> {};

TEST_P(RegistryContract, UnknownNameThrowsListingKnownNames) {
  const RegistryProbe& probe = GetParam();
  const std::string bogus = "no_such_" + std::string(probe.label);
  try {
    probe.lookup(bogus);
    FAIL() << probe.label << ": expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(bogus), std::string::npos)
        << probe.label << ": message must name the offender: " << msg;
    for (const auto& name : probe.builtins)
      EXPECT_NE(msg.find(name), std::string::npos)
          << probe.label << ": message must list '" << name << "': " << msg;
  }
}

TEST_P(RegistryContract, BuiltInsPresentAndLookupSucceeds) {
  const RegistryProbe& probe = GetParam();
  const auto names = probe.names();
  for (const auto& name : probe.builtins) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << probe.label << ": built-in '" << name << "' missing";
    EXPECT_NO_THROW(probe.lookup(name)) << probe.label << "/" << name;
  }
}

TEST_P(RegistryContract, DuplicateRegistrationRejected) {
  const RegistryProbe& probe = GetParam();
  const std::string name = "dup_probe_" + std::string(probe.label);
  EXPECT_TRUE(probe.register_name(name))
      << probe.label << ": first registration must be accepted";
  EXPECT_FALSE(probe.register_name(name))
      << probe.label << ": duplicate must be rejected (replace, not add)";
  // The duplicate must not have added a second entry.
  const auto names = probe.names();
  EXPECT_EQ(std::count(names.begin(), names.end(), name), 1)
      << probe.label;
}

INSTANTIATE_TEST_SUITE_P(AllRegistries, RegistryContract,
                         ::testing::Values(scenario_probe(), policy_probe(),
                                           admission_probe()),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

// ---------------------------------------------------------------------------
// Fleet session/completion error paths, in the same probe shape: one
// parameterized check per error path, sharing one tiny trained workload.
// ---------------------------------------------------------------------------

/// Borrowed workload stack for fleet probes; built once per suite (VO
/// training dominates, the scenario is shrunk to seconds-free sizes).
struct FleetWorkload {
  std::unique_ptr<filter::LocalizationScenario> scenario;
  std::unique_ptr<vo::VoPipeline> vo;
  std::unique_ptr<nn::CimMlp> net;
  std::unique_ptr<filter::MeasurementModel> model;
};

const FleetWorkload& fleet_workload() {
  static const FleetWorkload* w = [] {
    auto* out = new FleetWorkload;
    filter::ScenarioConfig cfg =
        filter::make_scenario_config("corridor_dropout");
    cfg.trajectory_steps = 4;
    cfg.map_cloud_points = 500;
    cfg.mixture_components = 8;
    cfg.scan_pixels = 24;
    cfg.filter.particle_count = 40;
    cfg.cim_columns = 80;
    out->scenario =
        std::make_unique<filter::LocalizationScenario>(cfg);
    out->model = out->scenario->make_cim_backend();

    vo::VoPipelineConfig vo_cfg;
    vo_cfg.landmark_count = 6;
    vo_cfg.hidden_sizes = {16, 8};
    vo_cfg.train_samples = 300;
    vo_cfg.train.epochs = 10;
    vo_cfg.test_steps = 4;
    out->vo = std::make_unique<vo::VoPipeline>(vo_cfg);
    cimsram::CimMacroConfig macro;
    macro.input_bits = 6;
    macro.weight_bits = 6;
    macro.adc_bits = 6;
    out->net = out->vo->make_cim_network(macro);
    return out;
  }();
  return *w;
}

vo::ClosedLoopConfig small_loop(std::uint64_t run_seed) {
  vo::ClosedLoopConfig loop;
  loop.mc.iterations = 3;
  loop.mc.dropout_p = 0.2;
  loop.run_seed = run_seed;
  return loop;
}

struct FleetErrorProbe {
  const char* label;
  std::function<void()> check;
};

FleetErrorProbe double_wait_probe() {
  return {"double_wait", [] {
            const auto& w = fleet_workload();
            fleet::FleetEngine engine(fleet::FleetConfig{});
            const std::size_t wl = engine.add_workload(
                *w.scenario, *w.vo, *w.net, *w.model);
            auto handle = engine.try_submit({wl, small_loop(7), {}});
            ASSERT_TRUE(handle.valid());
            engine.run_until_idle();
            // wait() after completion returns immediately; a second
            // wait() must hand back the SAME published run, not
            // re-execute or invalidate anything.
            const vo::ClosedLoopRun& first = handle.wait();
            const vo::ClosedLoopRun& again = handle.wait();
            EXPECT_EQ(&first, &again);
            EXPECT_EQ(first.steps.size(), 4u);
            EXPECT_TRUE(std::isfinite(first.rmse_m));
            EXPECT_TRUE(handle.poll());
          }};
}

FleetErrorProbe poll_after_retire_probe() {
  return {"poll_after_retire", [] {
            const auto& w = fleet_workload();
            fleet::FleetEngine engine(fleet::FleetConfig{});
            const std::size_t wl = engine.add_workload(
                *w.scenario, *w.vo, *w.net, *w.model);
            auto handle = engine.try_submit({wl, small_loop(11), {}});
            ASSERT_TRUE(handle.valid());
            EXPECT_FALSE(handle.poll());  // nothing ticked yet
            engine.run_until_idle();      // session retired to free list
            // The handle keeps the published run alive past retirement.
            EXPECT_TRUE(handle.poll());
            auto copy = handle;
            handle.reset();
            EXPECT_FALSE(handle.valid());
            EXPECT_FALSE(handle.poll());
            EXPECT_THROW(handle.wait(), std::invalid_argument);
            // The copy still owns a reference: poll and wait survive
            // the original's reset.
            EXPECT_TRUE(copy.poll());
            EXPECT_TRUE(std::isfinite(copy.wait().rmse_m));
            // Default-constructed handles share the invalid contract.
            fleet::SessionHandle fresh;
            EXPECT_FALSE(fresh.valid());
            EXPECT_FALSE(fresh.poll());
            EXPECT_THROW(fresh.wait(), std::invalid_argument);
          }};
}

FleetErrorProbe queue_full_probe() {
  return {"queue_full", [] {
            const auto& w = fleet_workload();
            fleet::FleetConfig cfg;
            cfg.max_sessions = 2;
            cfg.queue_capacity = 2;
            fleet::FleetEngine engine(cfg);
            const std::size_t wl = engine.add_workload(
                *w.scenario, *w.vo, *w.net, *w.model);
            // Submitting against an unregistered workload index is a
            // caller bug, not back-pressure: it throws.
            EXPECT_THROW(engine.try_submit({wl + 1, small_loop(1), {}}),
                         std::invalid_argument);
            // Without ticking, capacity is bounded by the state pool
            // (max_sessions + queue_capacity): excess submissions get
            // an invalid handle back, nothing blocks or buffers.
            std::vector<fleet::SessionHandle> handles;
            int rejected = 0;
            for (std::uint64_t i = 0; i < 10; ++i) {
              auto h = engine.try_submit({wl, small_loop(100 + i), {}});
              if (h.valid())
                handles.push_back(std::move(h));
              else
                ++rejected;
            }
            EXPECT_GT(rejected, 0);
            EXPECT_LE(handles.size(),
                      cfg.max_sessions + cfg.queue_capacity);
            // Admitted sessions still complete once the scheduler runs.
            engine.run_until_idle();
            for (const auto& h : handles) {
              EXPECT_TRUE(h.poll());
              EXPECT_TRUE(std::isfinite(h.wait().rmse_m));
            }
            EXPECT_EQ(engine.stats().sessions_completed, handles.size());
          }};
}

class FleetErrorContract
    : public ::testing::TestWithParam<FleetErrorProbe> {};

TEST_P(FleetErrorContract, Holds) { GetParam().check(); }

INSTANTIATE_TEST_SUITE_P(FleetErrorPaths, FleetErrorContract,
                         ::testing::Values(double_wait_probe(),
                                           poll_after_retire_probe(),
                                           queue_full_probe()),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

}  // namespace
}  // namespace cimnav
