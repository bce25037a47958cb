// Seeded randomized QoS-scheduler fuzzing for the fleet engine — the
// fleet-side twin of test_scenario_fuzz.cpp. ~20 campaigns drawn from
// one keyed rng sweep the admission-policy registry, working-set
// bounds, priority/deadline mixes, fleet windows, queue pressure
// (more sessions than slots) and mid-run admission. Each campaign gates
// the invariants that hold for ANY configuration:
//
//   * per-session bit-identity: every fleet-scheduled run equals a
//     standalone vo::run_odometry_loop with the same config, whatever
//     the policy chose tick by tick — QoS selects sessions, it never
//     perturbs rng keys or frame order;
//   * the fleet energy ledger sums the sessions' published runs;
//   * no starvation: a bounded tick loop (never run_until_idle, which
//     would hang on a starvation bug) drains every admitted session;
//   * the accounting identities of SessionQosRecord and QosReport.
//
// The VO stack (training dominates) is built once and shared; every
// campaign reuses one small scenario, so standalone reference runs are
// cached per config seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "filter/scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "vo/closed_loop.hpp"
#include "vo/pipeline.hpp"

namespace cimnav {
namespace {

using core::Rng;

constexpr int kFuzzCampaigns = 20;
constexpr std::uint64_t kFuzzRoot = 0xF1EE7ull;
/// Starvation gate: if a campaign needs more ticks than this to drain,
/// some session is starving (the largest legitimate campaign needs
/// well under 200).
constexpr int kMaxTicks = 2000;

/// One randomly drawn session of a campaign.
struct FuzzSession {
  fleet::SessionSpec spec;
  bool late = false;  ///< admitted mid-run, after some ticks
};

/// One drawn campaign: engine shape + session mix.
struct FuzzCampaign {
  fleet::FleetConfig config;
  std::vector<FuzzSession> sessions;
  int pre_ticks = 0;  ///< ticks between the early and late batches
};

class FleetFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    filter::ScenarioConfig cfg =
        filter::make_scenario_config("corridor_dropout");
    cfg.trajectory_steps = 4;
    cfg.map_cloud_points = 500;
    cfg.mixture_components = 8;
    cfg.scan_pixels = 24;
    cfg.filter.particle_count = 40;
    cfg.cim_columns = 80;
    scenario_ = new filter::LocalizationScenario(cfg);
    model_ = scenario_->make_cim_backend().release();

    vo::VoPipelineConfig vo_cfg;
    vo_cfg.landmark_count = 6;
    vo_cfg.hidden_sizes = {16, 8};
    vo_cfg.train_samples = 300;
    vo_cfg.train.epochs = 10;
    vo_cfg.test_steps = 4;
    vo_ = new vo::VoPipeline(vo_cfg);
    cimsram::CimMacroConfig macro;
    macro.input_bits = 6;
    macro.weight_bits = 6;
    macro.adc_bits = 6;
    net_ = vo_->make_cim_network(macro).release();
  }

  static void TearDownTestSuite() {
    delete net_;
    delete vo_;
    delete model_;
    delete scenario_;
    net_ = nullptr;
    vo_ = nullptr;
    model_ = nullptr;
    scenario_ = nullptr;
  }

  /// CIMNAV_FLEET_FUZZ_REUSE=1 lets campaigns draw compute-reuse
  /// tenants: random sessions flip on the Sec. III-C delta path (greedy
  /// mask tour, a refresh boundary inside the window), pushing the
  /// chain-parallel engine through the same QoS invariants — bit-identity
  /// against a standalone reuse run above all. Off by default so the
  /// plain tier-1 run keeps the historical campaign set byte-stable; the
  /// sanitizer CI runs a dedicated reuse shard.
  static bool reuse_enabled() {
    const char* v = std::getenv("CIMNAV_FLEET_FUZZ_REUSE");
    return v != nullptr && v[0] == '1';
  }

  static vo::ClosedLoopConfig loop_config(std::uint64_t run_seed,
                                          bool reuse = false) {
    vo::ClosedLoopConfig loop;
    // Reuse tenants run more iterations than the refresh interval (8),
    // so every frame carries a chain boundary and a short tail chain.
    loop.mc.iterations = reuse ? 10 : 3;
    loop.mc.dropout_p = 0.2;
    loop.mc.compute_reuse = reuse;
    loop.mc.order_samples = reuse;
    loop.run_seed = run_seed;
    return loop;
  }

  /// The standalone twin of a fleet session, cached per (run seed,
  /// reuse) — the only SessionSpec fields that change the computation
  /// here.
  static const vo::ClosedLoopRun& reference_run(
      const vo::ClosedLoopConfig& loop) {
    const std::uint64_t key =
        (loop.run_seed << 1) | (loop.mc.compute_reuse ? 1u : 0u);
    auto it = refs_.find(key);
    if (it == refs_.end())
      it = refs_
               .emplace(key, vo::run_odometry_loop(*scenario_, *vo_, *net_,
                                                   *model_, loop))
               .first;
    return it->second;
  }

  static FuzzCampaign draw_campaign(int index) {
    Rng rng = Rng::stream(kFuzzRoot, static_cast<std::uint64_t>(index));
    FuzzCampaign c;
    const char* policies[] = {"fifo", "priority", "deadline"};
    c.config.admission = policies[rng.uniform_int(0, 2)];
    c.config.window = static_cast<int>(rng.uniform_int(1, 3));
    c.config.max_sessions =
        static_cast<std::size_t>(rng.uniform_int(2, 4));
    c.config.queue_capacity = 16;
    // working_set 0 = unbounded; otherwise tighter than the slot count.
    c.config.working_set = static_cast<std::size_t>(
        rng.uniform() < 0.3 ? 0 : rng.uniform_int(1, 3));
    c.config.starvation_bound_ticks =
        static_cast<std::uint64_t>(rng.uniform_int(3, 12));

    const int n_sessions = static_cast<int>(rng.uniform_int(3, 7));
    for (int s = 0; s < n_sessions; ++s) {
      FuzzSession fs;
      // Few distinct seeds: sessions collide on purpose (identical
      // configs must still be independent), and references cache well.
      const std::uint64_t run_seed = rng.uniform_int(0, 3);
      // Short-circuit keeps the campaign stream identical when the
      // reuse shard is off.
      const bool reuse = reuse_enabled() && rng.uniform() < 0.5;
      fs.spec.loop = loop_config(run_seed, reuse);
      fs.spec.qos.priority = static_cast<int>(rng.uniform_int(0, 3));
      if (rng.uniform() < 0.6)
        fs.spec.qos.target_latency_ticks =
            static_cast<int>(rng.uniform_int(1, 12));
      fs.late = rng.uniform() < 0.4;
      c.sessions.push_back(fs);
    }
    c.sessions.front().late = false;  // something must start the fleet
    c.pre_ticks = static_cast<int>(rng.uniform_int(1, 4));
    return c;
  }

  static filter::LocalizationScenario* scenario_;
  static filter::MeasurementModel* model_;
  static vo::VoPipeline* vo_;
  static nn::CimMlp* net_;
  static std::map<std::uint64_t, vo::ClosedLoopRun> refs_;
};

filter::LocalizationScenario* FleetFuzz::scenario_ = nullptr;
filter::MeasurementModel* FleetFuzz::model_ = nullptr;
vo::VoPipeline* FleetFuzz::vo_ = nullptr;
nn::CimMlp* FleetFuzz::net_ = nullptr;
std::map<std::uint64_t, vo::ClosedLoopRun> FleetFuzz::refs_;

void expect_bit_identical(const vo::ClosedLoopRun& ref,
                          const vo::ClosedLoopRun& got) {
  ASSERT_EQ(ref.steps.size(), got.steps.size());
  for (std::size_t i = 0; i < ref.steps.size(); ++i) {
    EXPECT_EQ(ref.steps[i].position_error_m, got.steps[i].position_error_m);
    EXPECT_EQ(ref.steps[i].ess_fraction, got.steps[i].ess_fraction);
    EXPECT_EQ(ref.steps[i].vo_sigma, got.steps[i].vo_sigma);
    EXPECT_EQ(ref.steps[i].vo_energy_j, got.steps[i].vo_energy_j);
    EXPECT_EQ(ref.steps[i].update_energy_j, got.steps[i].update_energy_j);
    EXPECT_EQ(ref.steps[i].likelihood_evals, got.steps[i].likelihood_evals);
    EXPECT_EQ(ref.steps[i].particle_count, got.steps[i].particle_count);
  }
  EXPECT_EQ(ref.rmse_m, got.rmse_m);
  EXPECT_EQ(ref.vo_energy_j, got.vo_energy_j);
  EXPECT_EQ(ref.update_energy_j, got.update_energy_j);
  EXPECT_EQ(ref.likelihood_evals, got.likelihood_evals);
}

TEST_F(FleetFuzz, RandomCampaignsPreserveDeterminismLedgerAndLiveness) {
  for (int i = 0; i < kFuzzCampaigns; ++i) {
    const FuzzCampaign c = draw_campaign(i);
    SCOPED_TRACE(::testing::Message()
                 << "campaign " << i << " policy=" << c.config.admission
                 << " window=" << c.config.window
                 << " slots=" << c.config.max_sessions
                 << " working_set=" << c.config.working_set
                 << " sessions=" << c.sessions.size());

    fleet::FleetEngine engine(c.config);
    const std::size_t wl =
        engine.add_workload(*scenario_, *vo_, *net_, *model_);

    // Early batch, a few ticks, then the late batch — mid-run admission
    // into a possibly loaded scheduler.
    std::vector<fleet::SessionHandle> handles(c.sessions.size());
    auto submit = [&](bool late_batch) {
      for (std::size_t s = 0; s < c.sessions.size(); ++s) {
        if (c.sessions[s].late != late_batch) continue;
        fleet::SessionSpec spec = c.sessions[s].spec;
        spec.workload = wl;
        handles[s] = engine.try_submit(spec);
        ASSERT_TRUE(handles[s].valid()) << "session " << s << " rejected";
      }
    };
    submit(false);
    for (int t = 0; t < c.pre_ticks; ++t) engine.tick();
    submit(true);

    // Liveness gate: bounded ticking, NOT run_until_idle — a policy
    // that starves a session would spin forever there but fails here.
    int ticks = 0;
    while (!engine.idle() && ticks < kMaxTicks) {
      engine.tick();
      ++ticks;
    }
    ASSERT_LT(ticks, kMaxTicks)
        << "scheduler failed to drain (starvation?)";

    double fleet_vo_j = 0.0, fleet_update_j = 0.0;
    for (std::size_t s = 0; s < c.sessions.size(); ++s) {
      SCOPED_TRACE(::testing::Message() << "session " << s);
      ASSERT_TRUE(handles[s].poll()) << "session never completed";
      const vo::ClosedLoopRun& run = handles[s].wait();

      // Bit-identity vs the standalone loop, under every policy.
      expect_bit_identical(reference_run(c.sessions[s].spec.loop), run);
      fleet_vo_j += run.vo_energy_j;
      fleet_update_j += run.update_energy_j;

      // Accounting identities hold for every drawn spec.
      const fleet::SessionQosRecord& q = handles[s].qos();
      EXPECT_EQ(q.ticks_to_completion, q.scheduled_ticks + q.queue_ticks);
      EXPECT_EQ(q.ticks_to_completion, q.complete_tick - q.admit_tick + 1);
      EXPECT_EQ(q.had_deadline, q.spec.target_latency_ticks > 0);
      if (q.had_deadline) {
        EXPECT_EQ(q.deadline_hit,
                  q.ticks_to_completion <=
                      static_cast<std::uint64_t>(
                          q.spec.target_latency_ticks));
      }
      EXPECT_GE(q.admit_tick, 1u);
      EXPECT_LE(q.admit_tick, q.complete_tick);
    }

    // Fleet ledger = sum of sessions (retire order differs from handle
    // order, so allow last-ulp float reassociation, nothing more).
    const fleet::FleetStats st = engine.stats();
    EXPECT_EQ(st.sessions_completed, c.sessions.size());
    EXPECT_NEAR(st.vo_energy_j, fleet_vo_j,
                1e-12 * std::max(1.0, std::abs(fleet_vo_j)));
    EXPECT_NEAR(st.update_energy_j, fleet_update_j,
                1e-12 * std::max(1.0, std::abs(fleet_update_j)));

    // Report totals partition over classes and sessions.
    const fleet::QosReport report = engine.qos_report();
    std::uint64_t class_sessions = 0;
    for (const fleet::QosClassLedger& cls : report.classes)
      class_sessions += cls.sessions_completed;
    EXPECT_EQ(class_sessions, c.sessions.size());
    EXPECT_EQ(report.deadline_sessions,
              report.sessions_at_target_latency + report.deadline_misses);
  }
}

}  // namespace
}  // namespace cimnav
