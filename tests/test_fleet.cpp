// Tests for the multi-tenant fleet engine: the hard determinism contract
// (every session bit-identical to its serial vo::run_odometry_loop at
// any session count, pool size and fleet window), submission-queue
// stress, mid-run admission/retirement, handle semantics, a session whose
// setup throws at admission, KLD-adaptive cloud sizing through the fleet,
// and the zero-steady-state-allocation guarantee of the admit -> run ->
// retire cycle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "autonomy/update_policy.hpp"
#include "core/mpsc_queue.hpp"
#include "core/thread_pool.hpp"
#include "fleet/fleet_engine.hpp"
#include "filter/scenario.hpp"
#include "vo/closed_loop.hpp"
#include "vo/pipeline.hpp"

// ---------------------------------------------------------------- heap spy
// Program-wide operator new replacement counting allocations while armed
// (same pattern as test_memory.cpp; each test binary is its own program,
// so the replacement is local to this suite).
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

// The nothrow variants must be replaced too: libstdc++'s temporary
// buffers (std::stable_sort) allocate through them, and a mix of default
// nothrow-new with this TU's free()-based delete is an ASan
// alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_heap.load(std::memory_order_relaxed))
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

// GCC pairs the free() below with the replaced operator new and reports
// a mismatch; both sides are malloc/free, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
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
#pragma GCC diagnostic pop

namespace cimnav {
namespace {

using core::ThreadPool;

/// Shared scenario + VO stack, shrunk until a full run takes well under
/// a second; built once for the whole suite (the same fixture scale as
/// test_closed_loop).
class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    filter::ScenarioConfig cfg =
        filter::make_scenario_config("corridor_dropout");
    cfg.trajectory_steps = 8;
    cfg.map_cloud_points = 1200;
    cfg.mixture_components = 20;
    cfg.scan_pixels = 40;
    cfg.filter.particle_count = 100;
    cfg.cim_columns = 120;
    scenario_ = new filter::LocalizationScenario(cfg);
    model_ = scenario_->make_cim_backend().release();

    // A second tenant: the kidnapped-drone shape (global init, bigger
    // cloud) for the KLD-adaptive sizing path.
    filter::ScenarioConfig kcfg =
        filter::make_scenario_config("kidnapped_drone");
    kcfg.trajectory_steps = 8;
    kcfg.map_cloud_points = 1200;
    kcfg.mixture_components = 20;
    kcfg.scan_pixels = 40;
    kcfg.filter.particle_count = 300;
    kcfg.cim_columns = 120;
    kidnapped_ = new filter::LocalizationScenario(kcfg);
    kidnapped_model_ = kidnapped_->make_cim_backend().release();

    vo::VoPipelineConfig vo_cfg;
    vo_cfg.landmark_count = 8;
    vo_cfg.hidden_sizes = {24, 12};
    vo_cfg.train_samples = 600;
    vo_cfg.train.epochs = 25;
    vo_cfg.test_steps = 8;
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
    delete kidnapped_model_;
    delete kidnapped_;
    delete model_;
    delete scenario_;
    net_ = nullptr;
    vo_ = nullptr;
    kidnapped_model_ = nullptr;
    kidnapped_ = nullptr;
    model_ = nullptr;
    scenario_ = nullptr;
  }

  static vo::ClosedLoopConfig small_config(std::uint64_t run_seed = 31) {
    vo::ClosedLoopConfig cfg;
    cfg.mc.iterations = 5;
    cfg.mc.dropout_p = 0.2;
    cfg.run_seed = run_seed;
    return cfg;
  }

  /// Full bit-compare of two runs, including the energy ledger and the
  /// per-frame particle count (the KLD satellite's readout).
  static void expect_same_runs(const vo::ClosedLoopRun& a,
                               const vo::ClosedLoopRun& b) {
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].position_error_m, b.steps[i].position_error_m);
      EXPECT_EQ(a.steps[i].position_spread_m, b.steps[i].position_spread_m);
      EXPECT_EQ(a.steps[i].ess_fraction, b.steps[i].ess_fraction);
      EXPECT_EQ(a.steps[i].vo_delta_error_m, b.steps[i].vo_delta_error_m);
      EXPECT_EQ(a.steps[i].vo_sigma, b.steps[i].vo_sigma);
      EXPECT_EQ(a.steps[i].update_action, b.steps[i].update_action);
      EXPECT_EQ(a.steps[i].likelihood_evals, b.steps[i].likelihood_evals);
      EXPECT_EQ(a.steps[i].update_energy_j, b.steps[i].update_energy_j);
      EXPECT_EQ(a.steps[i].vo_energy_j, b.steps[i].vo_energy_j);
      EXPECT_EQ(a.steps[i].update_beta, b.steps[i].update_beta);
      EXPECT_EQ(a.steps[i].particle_count, b.steps[i].particle_count);
    }
    EXPECT_EQ(a.rmse_m, b.rmse_m);
    EXPECT_EQ(a.mean_spread_m, b.mean_spread_m);
    EXPECT_EQ(a.vo_energy_j, b.vo_energy_j);
    EXPECT_EQ(a.update_energy_j, b.update_energy_j);
    EXPECT_EQ(a.likelihood_evals, b.likelihood_evals);
    EXPECT_EQ(a.mean_particles, b.mean_particles);
    EXPECT_EQ(a.final_particles, b.final_particles);
  }

  static filter::LocalizationScenario* scenario_;
  static filter::MeasurementModel* model_;
  static filter::LocalizationScenario* kidnapped_;
  static filter::MeasurementModel* kidnapped_model_;
  static vo::VoPipeline* vo_;
  static nn::CimMlp* net_;
};

filter::LocalizationScenario* FleetTest::scenario_ = nullptr;
filter::MeasurementModel* FleetTest::model_ = nullptr;
filter::LocalizationScenario* FleetTest::kidnapped_ = nullptr;
filter::MeasurementModel* FleetTest::kidnapped_model_ = nullptr;
vo::VoPipeline* FleetTest::vo_ = nullptr;
nn::CimMlp* FleetTest::net_ = nullptr;

TEST_F(FleetTest, SessionsBitIdenticalToSerialRunsAcrossPoolsAndCounts) {
  // The fleet's hard guarantee: N concurrent sessions produce exactly
  // the N runs the serial loop produces, at pools 1/2/8 and session
  // counts 1/4/32 (sessions cycle over 4 distinct run seeds, so 4
  // serial references cover all 32).
  std::vector<vo::ClosedLoopRun> refs;
  for (std::uint64_t s = 0; s < 4; ++s)
    refs.push_back(vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                         small_config(31 + s)));

  ThreadPool p1(1), p2(2), p8(8);
  struct Case {
    ThreadPool* pool;
    int sessions;
    int window;
  };
  const Case cases[] = {{nullptr, 1, 1}, {&p1, 4, 4},  {&p2, 4, 3},
                        {&p8, 4, 1},     {&p2, 32, 4}, {&p8, 32, 3}};
  for (const Case& c : cases) {
    fleet::FleetConfig fcfg;
    fcfg.pool = c.pool;
    fcfg.window = c.window;
    fcfg.max_sessions = 8;
    fcfg.queue_capacity = 64;
    fleet::FleetEngine engine(fcfg);
    const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                              *model_);
    std::vector<fleet::SessionHandle> handles;
    for (int i = 0; i < c.sessions; ++i) {
      fleet::SessionSpec spec;
      spec.workload = w;
      spec.loop = small_config(31 + static_cast<std::uint64_t>(i % 4));
      handles.push_back(engine.try_submit(spec));
      ASSERT_TRUE(handles.back().valid());
    }
    engine.run_until_idle();
    for (int i = 0; i < c.sessions; ++i) {
      ASSERT_TRUE(handles[static_cast<std::size_t>(i)].poll());
      expect_same_runs(refs[static_cast<std::size_t>(i % 4)],
                       handles[static_cast<std::size_t>(i)].wait());
    }
    const fleet::FleetStats st = engine.stats();
    EXPECT_EQ(st.sessions_admitted, static_cast<std::uint64_t>(c.sessions));
    EXPECT_EQ(st.sessions_completed, static_cast<std::uint64_t>(c.sessions));
    EXPECT_EQ(st.completed_frames,
              static_cast<std::uint64_t>(8 * c.sessions));
  }
}

TEST_F(FleetTest, CrossSessionBatchingCollapsesDispatches) {
  // 8 sessions sharing one network and advancing in lockstep must share
  // one pooled dispatch per layer per tick: the serial-equivalent layer
  // dispatch count is 8x the pooled one.
  fleet::FleetConfig fcfg;
  fcfg.window = 4;
  fcfg.max_sessions = 8;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  std::vector<fleet::SessionHandle> handles;
  for (int i = 0; i < 8; ++i) {
    fleet::SessionSpec spec;
    spec.workload = w;
    spec.loop = small_config(40 + static_cast<std::uint64_t>(i));
    handles.push_back(engine.try_submit(spec));
  }
  engine.run_until_idle();
  const fleet::FleetStats st = engine.stats();
  ASSERT_GT(st.pooled_layer_dispatches, 0u);
  EXPECT_EQ(st.serial_layer_dispatches, 8u * st.pooled_layer_dispatches);
  EXPECT_EQ(st.frames_dispatched, 64u);
}

TEST_F(FleetTest, MidRunAdmissionAndRetirement) {
  // More sessions than slots, submitted in waves while the scheduler is
  // mid-flight: late admissions must join in-flight batches and still
  // come out bit-identical.
  const auto ref_a = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                           small_config(7));
  const auto ref_b = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                           small_config(8));

  fleet::FleetConfig fcfg;
  fcfg.window = 3;
  fcfg.max_sessions = 2;  // forces staggered admission
  fcfg.queue_capacity = 8;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  auto submit = [&](std::uint64_t seed) {
    fleet::SessionSpec spec;
    spec.workload = w;
    spec.loop = small_config(seed);
    fleet::SessionHandle h = engine.try_submit(spec);
    EXPECT_TRUE(h.valid());
    return h;
  };
  std::vector<fleet::SessionHandle> handles;
  handles.push_back(submit(7));
  handles.push_back(submit(8));
  handles.push_back(submit(7));
  // Tick a few rounds by hand, then inject more sessions mid-run.
  engine.tick();
  engine.tick();
  handles.push_back(submit(8));
  engine.tick();
  handles.push_back(submit(7));
  engine.run_until_idle();

  const vo::ClosedLoopRun* expected[] = {&ref_a, &ref_b, &ref_a, &ref_b,
                                         &ref_a};
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(handles[i].poll()) << "session " << i;
    expect_same_runs(*expected[i], handles[i].wait());
  }
  EXPECT_EQ(engine.stats().sessions_completed, 5u);
}

TEST_F(FleetTest, SubmissionQueueBoundsAndRecovers) {
  // A full ring rejects instead of blocking or buffering; capacity
  // frees up as the scheduler drains.
  fleet::FleetConfig fcfg;
  fcfg.max_sessions = 1;
  fcfg.queue_capacity = 4;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  fleet::SessionSpec spec;
  spec.workload = w;
  spec.loop = small_config(50);

  std::vector<fleet::SessionHandle> handles;
  int accepted = 0;
  // 4-deep ring: pushes beyond it must fail (the state pool is larger,
  // so it's genuinely the ring that bounds).
  for (int i = 0; i < 16; ++i) {
    fleet::SessionHandle h = engine.try_submit(spec);
    if (h.valid()) {
      ++accepted;
      handles.push_back(std::move(h));
    }
  }
  EXPECT_EQ(accepted, 4);
  engine.run_until_idle();
  // Drained: submissions flow again, and rejected ones leaked nothing.
  fleet::SessionHandle h2 = engine.try_submit(spec);
  EXPECT_TRUE(h2.valid());
  engine.run_until_idle();
  EXPECT_TRUE(h2.poll());
  EXPECT_EQ(engine.stats().sessions_completed, 5u);
}

TEST_F(FleetTest, HandleCopyAndEarlyReleaseSemantics) {
  fleet::FleetConfig fcfg;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  fleet::SessionSpec spec;
  spec.workload = w;
  spec.loop = small_config(60);

  // A copy outlives the original and still reads the run.
  fleet::SessionHandle copy;
  {
    fleet::SessionHandle h = engine.try_submit(spec);
    ASSERT_TRUE(h.valid());
    copy = h;
  }
  // Dropping a handle entirely must not wedge the slot: the engine
  // completes and recycles on its own.
  { fleet::SessionHandle dropped = engine.try_submit(spec); }
  engine.run_until_idle();
  ASSERT_TRUE(copy.poll());
  EXPECT_EQ(copy.wait().steps.size(), 8u);
  EXPECT_EQ(engine.stats().sessions_completed, 2u);
  copy.reset();
  EXPECT_FALSE(copy.valid());

  // The released state slots are reusable.
  fleet::SessionHandle again = engine.try_submit(spec);
  ASSERT_TRUE(again.valid());
  engine.run_until_idle();
  EXPECT_TRUE(again.poll());
}

TEST_F(FleetTest, BackgroundSchedulerCompletesSessions) {
  const auto ref = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                         small_config(70));
  fleet::FleetConfig fcfg;
  fcfg.window = 2;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  engine.start();
  std::vector<fleet::SessionHandle> handles;
  for (int i = 0; i < 6; ++i) {
    fleet::SessionSpec spec;
    spec.workload = w;
    spec.loop = small_config(70);
    fleet::SessionHandle h = engine.try_submit(spec);
    ASSERT_TRUE(h.valid());
    handles.push_back(std::move(h));
  }
  for (auto& h : handles) expect_same_runs(ref, h.wait());
  engine.stop();
  EXPECT_EQ(engine.stats().sessions_completed, 6u);
}

TEST_F(FleetTest, KldAdaptiveSessionsShrinkTheCloudAndStaySerialExact) {
  // The kidnapped-drone workload with KLD-adaptive sizing: the cloud
  // must shrink after convergence, the per-frame particle cost must be
  // reported, and the fleet run must still match the serial loop bit
  // for bit.
  vo::ClosedLoopConfig cfg = small_config(80);
  cfg.kld_adapt = true;
  cfg.kld.min_particles = 60;
  const auto ref = vo::run_odometry_loop(*kidnapped_, *vo_, *net_,
                                         *kidnapped_model_, cfg);
  EXPECT_EQ(ref.steps.front().particle_count, 300);
  EXPECT_LT(ref.final_particles, 300);
  EXPECT_LT(ref.mean_particles, 300.0);
  EXPECT_GE(ref.final_particles, 60);

  fleet::FleetConfig fcfg;
  fcfg.window = 4;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*kidnapped_, *vo_, *net_,
                                            *kidnapped_model_);
  fleet::SessionSpec spec;
  spec.workload = w;
  spec.loop = cfg;
  fleet::SessionHandle h = engine.try_submit(spec);
  ASSERT_TRUE(h.valid());
  engine.run_until_idle();
  expect_same_runs(ref, h.wait());
  // The fleet ledger reports the shrunken per-frame particle cost.
  const fleet::FleetStats st = engine.stats();
  EXPECT_GT(st.particle_frames, 0.0);
  EXPECT_LT(st.particle_frames / static_cast<double>(st.completed_frames),
            300.0);
}

TEST_F(FleetTest, MixedWorkloadsShareOneDispatch) {
  // Two different tenants (different scenarios and measurement models)
  // sharing one network still batch into one dispatch per layer, and
  // each still matches its own serial reference.
  const auto ref_a = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                           small_config(90));
  const auto ref_b = vo::run_odometry_loop(*kidnapped_, *vo_, *net_,
                                           *kidnapped_model_,
                                           small_config(91));
  fleet::FleetConfig fcfg;
  fcfg.window = 3;
  fleet::FleetEngine engine(fcfg);
  const std::size_t wa = engine.add_workload(*scenario_, *vo_, *net_,
                                             *model_);
  const std::size_t wb = engine.add_workload(*kidnapped_, *vo_, *net_,
                                             *kidnapped_model_);
  fleet::SessionSpec sa;
  sa.workload = wa;
  sa.loop = small_config(90);
  fleet::SessionSpec sb;
  sb.workload = wb;
  sb.loop = small_config(91);
  fleet::SessionHandle ha = engine.try_submit(sa);
  fleet::SessionHandle hb = engine.try_submit(sb);
  engine.run_until_idle();
  expect_same_runs(ref_a, ha.wait());
  expect_same_runs(ref_b, hb.wait());
  const fleet::FleetStats st = engine.stats();
  // Both tenants use the same net, so ticks with both in flight issue
  // one dispatch set; serial equivalents exceed pooled.
  EXPECT_GT(st.serial_layer_dispatches, st.pooled_layer_dispatches);
}

TEST_F(FleetTest, InvalidSpecRejectedAtSubmitAndCoTenantCompletes) {
  // A spec no run can execute (T = 0, p = 1, an unregistered policy)
  // must be refused by try_submit with a reason, before it takes a slot:
  // the healthy co-tenant submitted around it completes bit-identically,
  // the engine goes idle, and its destructor drains cleanly.
  const auto ref = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                         small_config(110));
  fleet::FleetConfig fcfg;
  fcfg.window = 3;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  fleet::SessionSpec good;
  good.workload = w;
  good.loop = small_config(110);
  fleet::SessionHandle healthy = engine.try_submit(good);
  ASSERT_TRUE(healthy.valid());

  fleet::SessionSpec bad = good;
  bad.loop.mc.iterations = 0;
  EXPECT_THROW(engine.try_submit(bad), std::invalid_argument);
  bad = good;
  bad.loop.mc.dropout_p = 1.0;
  EXPECT_THROW(engine.try_submit(bad), std::invalid_argument);
  bad = good;
  bad.loop.policy = "no_such_policy";
  EXPECT_THROW(engine.try_submit(bad), std::invalid_argument);

  engine.run_until_idle();
  EXPECT_TRUE(engine.idle());
  ASSERT_TRUE(healthy.poll());
  expect_same_runs(ref, healthy.wait());
  EXPECT_EQ(engine.stats().sessions_admitted, 1u);
  EXPECT_EQ(engine.stats().sessions_completed, 1u);
}

TEST_F(FleetTest, SpecsThatWouldThrowMidFlightAreRejectedAtSubmit) {
  // Each of these specs used to pass try_submit and then throw inside
  // tick(): in the ParticleFilter constructor, in policy creation, in the
  // KLD shrink or in the tracking-init draws. Each must be refused with
  // its reason before it takes a state slot (the queue holds one), and a
  // good session submitted afterwards must match its serial run.
  const auto ref = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                         small_config(120));
  fleet::FleetConfig fcfg;
  fcfg.window = 3;
  fcfg.queue_capacity = 1;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  fleet::SessionSpec good;
  good.workload = w;
  good.loop = small_config(120);

  struct BadCase {
    const char* reason;  ///< substring the rejection must name
    std::function<void(vo::ClosedLoopConfig&)> spoil;
  };
  const std::vector<BadCase> cases = {
      {"tempering_ess_floor",
       [](vo::ClosedLoopConfig& c) { c.tempering_ess_floor = 1.5; }},
      {"tempering_ess_floor",
       [](vo::ClosedLoopConfig& c) {
         c.tempering_ess_floor = std::numeric_limits<double>::quiet_NaN();
       }},
      {"decimated_fraction",
       [](vo::ClosedLoopConfig& c) { c.policy_cfg.decimated_fraction = 0.0; }},
      {"kld.epsilon",
       [](vo::ClosedLoopConfig& c) {
         c.kld_adapt = true;
         c.kld.epsilon = 0.0;
       }},
      {"kld particle bounds",
       [](vo::ClosedLoopConfig& c) {
         c.kld_adapt = true;
         c.kld.min_particles = 80;
         c.kld.max_particles = 40;
       }},
      {"kld bin sizes",
       [](vo::ClosedLoopConfig& c) {
         c.kld_adapt = true;
         c.kld.bin_size.y = 0.0;
       }},
      {"kld bin sizes",
       [](vo::ClosedLoopConfig& c) {
         c.kld_adapt = true;
         c.kld.yaw_bin_rad = 0.0;
       }},
      {"init_sigma",
       [](vo::ClosedLoopConfig& c) { c.init_sigma_m = -0.1; }},
      {"init_sigma",
       [](vo::ClosedLoopConfig& c) { c.init_sigma_yaw = -0.1; }},
  };
  for (const BadCase& bc : cases) {
    fleet::SessionSpec bad = good;
    bc.spoil(bad.loop);
    try {
      fleet::SessionHandle h = engine.try_submit(bad);
      ADD_FAILURE() << "accepted a spec that should be rejected for "
                    << bc.reason;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bc.reason), std::string::npos)
          << e.what();
    }
  }

  fleet::SessionHandle healthy = engine.try_submit(good);
  ASSERT_TRUE(healthy.valid());
  engine.run_until_idle();
  expect_same_runs(ref, healthy.wait());
  EXPECT_EQ(engine.stats().sessions_admitted, 1u);
  EXPECT_EQ(engine.stats().sessions_completed, 1u);
}

TEST_F(FleetTest, SetupThrowAtAdmissionFailsOnlyThatSession) {
  // A policy whose factory throws passes submit-time validation (the name
  // is registered) and only fails inside tick(), when admission builds
  // the session. That session alone must fail: run_until_idle returns,
  // its handle publishes the error, the co-tenant's run matches its
  // serial run bit for bit, and the failed state index recycles.
  autonomy::register_policy(
      "throws_at_setup", "test policy whose factory throws",
      [](const autonomy::PolicyConfig&)
          -> std::unique_ptr<autonomy::UpdatePolicy> {
        throw std::runtime_error("policy setup failed");
      });
  const auto ref = vo::run_odometry_loop(*scenario_, *vo_, *net_, *model_,
                                         small_config(130));
  fleet::FleetConfig fcfg;
  fcfg.window = 3;
  fcfg.max_sessions = 2;
  fcfg.queue_capacity = 2;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  fleet::SessionSpec good;
  good.workload = w;
  good.loop = small_config(130);
  fleet::SessionSpec bad = good;
  bad.loop.policy = "throws_at_setup";

  fleet::SessionHandle failed = engine.try_submit(bad);
  fleet::SessionHandle healthy = engine.try_submit(good);
  ASSERT_TRUE(failed.valid());
  ASSERT_TRUE(healthy.valid());
  ASSERT_NO_THROW(engine.run_until_idle());
  EXPECT_TRUE(engine.idle());
  ASSERT_TRUE(failed.poll());
  EXPECT_THROW(failed.wait(), std::runtime_error);
  ASSERT_TRUE(healthy.poll());
  expect_same_runs(ref, healthy.wait());
  EXPECT_EQ(engine.stats().sessions_admitted, 1u);
  EXPECT_EQ(engine.stats().sessions_completed, 1u);
  failed.reset();
  healthy.reset();

  // Every state slot is free again: max_sessions submissions fill the
  // slots, queue_capacity more fill the queue, and all of them complete.
  std::vector<fleet::SessionHandle> more;
  for (std::size_t i = 0; i < fcfg.max_sessions; ++i) {
    more.push_back(engine.try_submit(good));
    ASSERT_TRUE(more.back().valid()) << "slot submission " << i;
  }
  engine.tick();  // admits them, freeing the queue
  for (std::size_t i = 0; i < fcfg.queue_capacity; ++i) {
    more.push_back(engine.try_submit(good));
    ASSERT_TRUE(more.back().valid()) << "queued submission " << i;
  }
  engine.run_until_idle();
  for (const fleet::SessionHandle& h : more) {
    ASSERT_TRUE(h.poll());
    expect_same_runs(ref, h.wait());
  }
}

TEST_F(FleetTest, SteadyStateAdmitRunRetireIsAllocationFree) {
  // The pooled-buffer contract: after warm-up, whole admit -> run ->
  // retire cycles perform zero heap allocations. Serial engine (the
  // pool's job descriptors and TLS are exercised elsewhere). The second
  // tenant flies the kidnapped-drone workload with KLD-adaptive sizing,
  // so the bin count and the shrinking resample run every updated frame.
  fleet::FleetConfig fcfg;
  fcfg.pool = nullptr;
  fcfg.window = 4;
  fcfg.max_sessions = 2;
  // Completion slots circulate run storage through a FIFO free ring, so
  // "warm" means the whole state pool has cycled once — keep it small.
  fcfg.queue_capacity = 2;
  fleet::FleetEngine engine(fcfg);
  const std::size_t w = engine.add_workload(*scenario_, *vo_, *net_,
                                            *model_);
  const std::size_t wk = engine.add_workload(*kidnapped_, *vo_, *net_,
                                             *kidnapped_model_);
  fleet::SessionSpec spec;
  spec.workload = w;
  spec.loop = small_config(100);
  fleet::SessionSpec kld_spec;
  kld_spec.workload = wk;
  kld_spec.loop = small_config(101);
  kld_spec.loop.kld_adapt = true;
  kld_spec.loop.kld.min_particles = 60;

  auto cycle = [&] {
    fleet::SessionHandle a = engine.try_submit(spec);
    fleet::SessionHandle b = engine.try_submit(kld_spec);
    engine.run_until_idle();
    EXPECT_TRUE(a.poll());
    ASSERT_TRUE(b.poll());
    EXPECT_LT(b.wait().final_particles, 300);  // the KLD shrink ran
  };
  // Warm every pooled buffer (slots, completions, TLS scratch, filter
  // arenas; the completion swap needs one extra lap to circulate run
  // storage back into the sessions).
  for (int i = 0; i < 3; ++i) cycle();

  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_count_heap.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) cycle();
  g_count_heap.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), 0u)
      << "steady-state fleet cycles must not touch the heap";
}

TEST(MpscQueueTest, BoundedFifoAndFullEmpty) {
  core::MpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(q.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);  // single-consumer pops preserve push order
  }
  EXPECT_FALSE(q.try_pop(out));
  // Wrap-around laps keep working.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.try_push(10 * lap + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.try_pop(out));
      EXPECT_EQ(out, 10 * lap + i);
    }
  }
}

TEST(MpscQueueTest, ConcurrentProducersLoseNothing) {
  // 4 producers x 2000 values through a 64-deep ring with one consumer:
  // every value arrives exactly once.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  core::MpscQueue<int> q(64);
  std::atomic<bool> done{false};
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::thread consumer([&] {
    int v = 0;
    while (!done.load(std::memory_order_acquire) || q.size_approx() > 0) {
      if (q.try_pop(v))
        ++seen[static_cast<std::size_t>(v)];
      else
        std::this_thread::yield();
    }
    while (q.try_pop(v)) ++seen[static_cast<std::size_t>(v)];
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = p * kPerProducer + i;
        while (!q.try_push(v)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  for (std::size_t i = 0; i < seen.size(); ++i)
    ASSERT_EQ(seen[i], 1) << "value " << i;
}

}  // namespace
}  // namespace cimnav
