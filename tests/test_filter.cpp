// Unit tests for the particle filter, motion model, and measurement
// backends.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "filter/measurement.hpp"
#include "filter/motion.hpp"
#include "filter/particle_filter.hpp"
#include "filter/kld.hpp"
#include "filter/scenario.hpp"

namespace cimnav::filter {
namespace {

using core::Pose;
using core::Rng;
using core::Vec3;

TEST(Motion, DeterministicComposition) {
  const Pose p{{1, 2, 0.5}, 3.14159265 / 2};  // facing +y
  const Control c{{1, 0, 0}, 0.0};            // one meter forward
  const Pose q = apply_motion(p, c);
  EXPECT_NEAR(q.position.x, 1.0, 1e-8);
  EXPECT_NEAR(q.position.y, 3.0, 1e-8);
}

TEST(Motion, NoiseStatisticsMatchModel) {
  const Pose p{{0, 0, 0}, 0.0};
  const Control c{{0.1, 0, 0}, 0.0};
  MotionNoise noise;
  noise.sigma_position = {0.05, 0.02, 0.01};
  noise.sigma_yaw = 0.03;
  Rng rng(3);
  core::RunningStats sx, sy, syaw;
  for (int i = 0; i < 20000; ++i) {
    const Pose q = sample_motion(p, c, noise, rng);
    sx.add(q.position.x);
    sy.add(q.position.y);
    syaw.add(q.yaw);
  }
  EXPECT_NEAR(sx.mean(), 0.1, 0.002);
  EXPECT_NEAR(sx.stddev(), 0.05, 0.002);
  EXPECT_NEAR(sy.stddev(), 0.02, 0.001);
  EXPECT_NEAR(syaw.stddev(), 0.03, 0.002);
}

TEST(ParticleFilter, UniformInitCoversBox) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 2000;
  ParticleFilter pf(cfg);
  Rng rng(5);
  pf.init_uniform({0, 0, 0}, {4, 3, 2}, rng);
  core::RunningStats sx;
  const SoaView cloud = pf.soa();
  for (std::size_t i = 0; i < cloud.count; ++i) {
    EXPECT_GE(cloud.x[i], 0.0);
    EXPECT_LE(cloud.x[i], 4.0);
    sx.add(cloud.x[i]);
  }
  EXPECT_NEAR(sx.mean(), 2.0, 0.1);
  EXPECT_NEAR(pf.effective_sample_size(), 2000.0, 1e-9);
}

TEST(ParticleFilter, GaussianInitCentersOnGuess) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 3000;
  ParticleFilter pf(cfg);
  Rng rng(7);
  pf.init_gaussian(Pose{{1, 2, 0.5}, 0.3}, {0.2, 0.2, 0.1}, 0.05, rng);
  const auto est = pf.estimate();
  EXPECT_NEAR(est.pose.position.x, 1.0, 0.02);
  EXPECT_NEAR(est.pose.yaw, 0.3, 0.01);
  EXPECT_NEAR(est.position_stddev.x, 0.2, 0.02);
}

TEST(ParticleFilter, EssDropsWithSkewedWeights) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  cfg.resample_threshold = 0.0;  // never auto-resample in this test
  ParticleFilter pf(cfg);
  Rng rng(11);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);

  // A measurement model that loves one corner.
  struct CornerModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      return -50.0 * pose.position.squared_norm();
    }
    const char* name() const override { return "corner"; }
  } model;
  vision::DepthScan empty_scan;
  pf.update(empty_scan, model, rng);
  EXPECT_LT(pf.last_update_ess(), 50.0);
}

TEST(ParticleFilter, SystematicResamplingPreservesMean) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 5000;
  cfg.roughening_sigma_pos = {0, 0, 0};
  cfg.roughening_sigma_yaw = 0.0;
  ParticleFilter pf(cfg);
  Rng rng(13);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  // Weight particles by x: posterior mean of x should be ~2/3.
  struct XModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      return std::log(std::max(pose.position.x, 1e-12));
    }
    const char* name() const override { return "x"; }
  } model;
  vision::DepthScan empty_scan;
  pf.update(empty_scan, model, rng);  // triggers resample (low ESS)
  const auto est = pf.estimate();
  EXPECT_NEAR(est.pose.position.x, 2.0 / 3.0, 0.03);
}

TEST(ParticleFilter, ResampleResetsWeightsAndKeepsCount) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 200;
  ParticleFilter pf(cfg);
  Rng rng(17);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  pf.resample(rng);
  const SoaView cloud = pf.soa();
  EXPECT_EQ(cloud.count, 200u);
  for (std::size_t i = 0; i < cloud.count; ++i)
    EXPECT_DOUBLE_EQ(cloud.log_weight[i], 0.0);
}

TEST(ParticleFilter, EstimateUsesCircularYawMean) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 2;
  ParticleFilter pf(cfg);
  Rng rng(19);
  pf.init_gaussian(Pose{{0, 0, 0}, 0.0}, {1e-9, 1e-9, 1e-9}, 1e-9, rng);
  // Hand-place two particles straddling the wrap point through the
  // mutable SoA view.
  const auto soa = pf.mutable_soa();
  soa.yaw[0] = 3.1;
  soa.yaw[1] = -3.1;
  const auto est = pf.estimate();
  // Circular mean of 3.1 and -3.1 is pi (not 0).
  EXPECT_GT(std::abs(est.pose.yaw), 3.0);
}

TEST(ParticleFilter, RequiresInitBeforeUse) {
  ParticleFilter pf(ParticleFilterConfig{});
  Rng rng(23);
  EXPECT_THROW(pf.predict(Control{}, rng), std::invalid_argument);
  EXPECT_THROW(pf.estimate(), std::invalid_argument);
}

class ScenarioTest : public ::testing::Test {
 protected:
  static ScenarioConfig small_config() {
    ScenarioConfig cfg;
    cfg.scene.room_size = {2.6, 2.2, 1.8};
    cfg.scene.furniture_count = 4;
    cfg.scene.clutter_count = 6;
    cfg.map_cloud_points = 1500;
    cfg.mixture_components = 25;
    cfg.trajectory_steps = 6;
    cfg.scan_pixels = 40;
    cfg.filter.particle_count = 120;
    cfg.cim_columns = 120;
    return cfg;
  }

  /// Every step's scan, rendered as run() and the closed loop render it.
  static std::vector<vision::DepthScan> scans_of(
      const LocalizationScenario& sc) {
    std::vector<vision::DepthScan> scans(sc.trajectory().controls.size());
    for (std::size_t i = 0; i < scans.size(); ++i)
      sc.render_scan_into(i, scans[i]);
    return scans;
  }
};

TEST_F(ScenarioTest, TrajectoryStaysInsideInterior) {
  const LocalizationScenario sc(small_config());
  const auto lo = sc.scene().interior_min(), hi = sc.scene().interior_max();
  for (const auto& p : sc.trajectory().poses) {
    EXPECT_GE(p.position.x, lo.x);
    EXPECT_LE(p.position.x, hi.x);
    EXPECT_GE(p.position.z, lo.z);
    EXPECT_LE(p.position.z, hi.z);
  }
}

TEST_F(ScenarioTest, TrajectoryAvoidsBoxes) {
  const LocalizationScenario sc(small_config());
  for (const auto& p : sc.trajectory().poses) {
    for (const auto& b : sc.scene().boxes()) {
      const Vec3 d = p.position - b.center;
      const bool inside = std::abs(d.x) < b.half_extents.x &&
                          std::abs(d.y) < b.half_extents.y &&
                          std::abs(d.z) < b.half_extents.z;
      EXPECT_FALSE(inside);
    }
  }
}

TEST_F(ScenarioTest, ControlsReplayToGroundTruth) {
  const LocalizationScenario sc(small_config());
  Pose p = sc.trajectory().poses.front();
  for (std::size_t i = 0; i < sc.trajectory().controls.size(); ++i) {
    p = apply_motion(p, sc.trajectory().controls[i]);
    EXPECT_NEAR(p.position_error(sc.trajectory().poses[i + 1]), 0.0, 1e-9);
  }
}

TEST_F(ScenarioTest, TruePoseOutscoresPerturbedPose) {
  const LocalizationScenario sc(small_config());
  const auto model = sc.make_gmm_backend();
  Rng rng(29);
  const Pose truth = sc.trajectory().poses[3];
  const auto scan = scans_of(sc)[2];
  const double at_truth = model->log_likelihood(truth, scan, rng);
  int wins = 0;
  for (int k = 0; k < 10; ++k) {
    const Pose off{truth.position + Vec3{rng.normal(0, 0.4),
                                         rng.normal(0, 0.4),
                                         rng.normal(0, 0.2)},
                   truth.yaw + rng.normal(0, 0.3)};
    if (at_truth > model->log_likelihood(off, scan, rng)) ++wins;
  }
  EXPECT_GE(wins, 8);
}

TEST_F(ScenarioTest, AllBackendsConvergeFromTrackingInit) {
  const LocalizationScenario sc(small_config());
  const auto gmm = sc.make_gmm_backend();
  const auto hmgm = sc.make_hmgm_backend();
  const auto run_g = sc.run(*gmm, 404);
  const auto run_h = sc.run(*hmgm, 404);
  // Both digital backends end below the ~0.5 m initial displacement.
  EXPECT_LT(run_g.final_error_m, 0.45);
  EXPECT_LT(run_h.final_error_m, 0.55);
  EXPECT_EQ(static_cast<int>(run_g.steps.size()), 6);
}

TEST_F(ScenarioTest, CimBackendTracksTruth) {
  const LocalizationScenario sc(small_config());
  const auto cim = sc.make_cim_backend();
  const auto run = sc.run(*cim, 404);
  EXPECT_LT(run.final_error_m, 0.8);
}

TEST_F(ScenarioTest, CimLikelihoodCountsOneReadPerPixel) {
  // Scans go to the array in fixed chunks; 19 pixels leave a tail both in
  // the chunking and in the kernel's interleaved groups.
  const LocalizationScenario sc(small_config());
  const auto cim = sc.make_cim_backend();
  const auto base = scans_of(sc)[2];
  ASSERT_FALSE(base.pixels.empty());
  Rng rng(30);
  const Pose pose = sc.trajectory().poses[3];
  for (std::size_t n : {0u, 19u, 80u}) {
    vision::DepthScan scan = base;
    scan.pixels.clear();
    for (std::size_t i = 0; i < n; ++i)
      scan.pixels.push_back(base.pixels[i % base.pixels.size()]);
    const auto before = cim->evaluation_count();
    const double ll = cim->log_likelihood(pose, scan, rng);
    EXPECT_EQ(cim->evaluation_count(), before + n) << n;
    if (n == 0) {
      EXPECT_EQ(ll, 0.0);
    }
  }
}

// Poses as the structure-of-arrays columns a PoseView reads.
struct Cloud {
  std::vector<double> x, y, z, yaw;
  void push(const Vec3& position, double heading) {
    x.push_back(position.x);
    y.push_back(position.y);
    z.push_back(position.z);
    yaw.push_back(heading);
  }
  std::size_t size() const { return x.size(); }
  PoseView view() const {
    return {x.data(), y.data(), z.data(), yaw.data(), size(), 1};
  }
};

// `count` poses around `center`, `spread` m per axis and `spread` rad of
// heading.
Cloud gaussian_cloud(const Pose& center, double spread, std::size_t count,
                     Rng& rng) {
  Cloud cloud;
  for (std::size_t i = 0; i < count; ++i)
    cloud.push(center.position + Vec3{rng.normal(0.0, spread),
                                      rng.normal(0.0, spread),
                                      rng.normal(0.0, spread)},
               Pose({}, center.yaw + rng.normal(0.0, spread)).yaw);
  return cloud;
}

// Distinct code-cube keys among the reads of `scan` from every pose of
// `cloud`: what one shared update computes without the cache. The
// mapping is the one LocalizationScenario programs its array with.
std::size_t distinct_keys(const CimHmgmLikelihood& cim, const SoaView& cloud,
                          const vision::DepthScan& scan,
                          const map::WorldToVoltage& mapping) {
  std::set<std::uint32_t> keys;
  for (std::size_t i = 0; i < cloud.count; ++i) {
    const core::Mat3 rot = core::Mat3::rotation_z(cloud.yaw[i]);
    const Vec3 position{cloud.x[i], cloud.y[i], cloud.z[i]};
    for (const auto& px : scan.pixels)
      keys.insert(cim.array().code_key(mapping.point_to_voltage(
          vision::pixel_to_world(scan, rot, position, px))));
  }
  return keys.size();
}

// Forwards log_likelihood only, so updates through it take the default
// per-pose log_likelihoods body: the reference for the CIM backend's
// shared-current override.
class PerPoseForward final : public MeasurementModel {
 public:
  explicit PerPoseForward(const MeasurementModel& inner) : inner_(inner) {}
  double log_likelihood(const Pose& pose, const vision::DepthScan& scan,
                        Rng& rng) const override {
    return inner_.log_likelihood(pose, scan, rng);
  }
  const char* name() const override { return inner_.name(); }
  std::uint64_t evaluation_count() const override {
    return inner_.evaluation_count();
  }

 private:
  const MeasurementModel& inner_;
};

TEST_F(ScenarioTest, CimSharedUpdateBitIdenticalToPerPosePath) {
  ScenarioConfig cfg = small_config();
  cfg.filter.particle_count = 300;
  cfg.filter.resample_threshold = 0.0;  // keep the log-weights observable
  const LocalizationScenario sc(cfg);
  const auto scans = scans_of(sc);
  const vision::DepthScan empty_scan;
  core::ThreadPool p1(1), p2(2), p8(8);
  core::ThreadPool* const pools[] = {nullptr, &p1, &p2, &p8};
  for (int dac_bits : {4, 6, 8}) {
    const auto model = sc.make_cim_backend(dac_bits, 4);
    const auto& cim = dynamic_cast<const CimHmgmLikelihood&>(*model);
    const PerPoseForward per_pose(cim);
    for (core::ThreadPool* pool : pools) {
      SCOPED_TRACE(::testing::Message()
                   << "dac_bits=" << dac_bits << " threads="
                   << (pool != nullptr ? pool->thread_count() : 0));
      ParticleFilter shared(cfg.filter), reference(cfg.filter);
      Rng rng_s(41), rng_r(41);
      // Wide cloud: poses scatter over many code triples.
      const Pose start = sc.trajectory().poses.front();
      shared.init_gaussian(start, {0.3, 0.3, 0.15}, 0.3, rng_s);
      reference.init_gaussian(start, {0.3, 0.3, 0.15}, 0.3, rng_r);
      const auto weights_match = [&](const char* step) {
        const SoaView a = shared.soa(), b = reference.soa();
        ASSERT_EQ(a.count, b.count) << step;
        for (std::size_t i = 0; i < a.count; ++i) {
          ASSERT_EQ(a.log_weight[i], b.log_weight[i]) << step << " i=" << i;
          ASSERT_EQ(a.x[i], b.x[i]) << step << " i=" << i;
        }
        EXPECT_EQ(rng_s(), rng_r()) << step;
      };
      // Runs one update (full at fraction 1, decimated below) on each
      // filter and checks the weights, the logical-read deltas, and that
      // the shared path computed at most one ideal current per read (a
      // small decimated batch on the 2^24-key cube of 8-bit DACs may not
      // repeat a triple).
      const auto update = [&](ParticleFilter& pf, const MeasurementModel& m,
                              Rng& rng, const vision::DepthScan& scan,
                              double fraction) {
        if (fraction == 1.0) {
          pf.update(scan, m, rng, pool);
        } else {
          pf.update_decimated(scan, m, fraction, rng, pool);
        }
      };
      std::uint64_t total_reads = 0, total_ideal = 0;
      const auto step = [&](const char* name, const vision::DepthScan& scan,
                            double fraction) {
        const auto reads0 = cim.evaluation_count();
        const auto ideal0 = cim.array().ideal_current_count();
        update(shared, cim, rng_s, scan, fraction);
        const auto reads_shared = cim.evaluation_count() - reads0;
        const auto ideal_shared = cim.array().ideal_current_count() - ideal0;
        const auto reads1 = cim.evaluation_count();
        update(reference, per_pose, rng_r, scan, fraction);
        EXPECT_EQ(cim.evaluation_count() - reads1, reads_shared) << name;
        EXPECT_EQ(reads_shared == 0, scan.pixels.empty()) << name;
        EXPECT_LE(ideal_shared, reads_shared) << name;
        total_reads += reads_shared;
        total_ideal += ideal_shared;
        weights_match(name);
      };
      for (std::size_t f = 0; f < 3; ++f) {
        ASSERT_FALSE(scans[f].pixels.empty());
        shared.predict(sc.trajectory().controls[f], rng_s);
        reference.predict(sc.trajectory().controls[f], rng_r);
        step("full", scans[f], 1.0);
        step("decimated", scans[f], 0.25);
      }
      // KLD-style shrink: the shared scratch serves a smaller cloud.
      shared.resample_to(77, rng_s, pool);
      reference.resample_to(77, rng_r, pool);
      step("after shrink", scans[3], 1.0);
      step("empty scan", empty_scan, 1.0);
      // A 10-frame predict/update flight: each update takes the currents
      // earlier updates cached, so the array computes fewer ideal
      // currents than the updates' distinct keys add up to.
      const map::WorldToVoltage mapping(
          sc.scene().interior_min() - Vec3{0.3, 0.3, 0.3},
          sc.scene().interior_max() + Vec3{0.3, 0.3, 0.3}, 0.1, 0.9);
      std::uint64_t flight_distinct = 0;
      const std::uint64_t flight_ideal0 = total_ideal;
      const std::size_t n_ctl = sc.trajectory().controls.size();
      for (std::size_t f = 0; f < 10; ++f) {
        const vision::DepthScan& scan = scans[f % n_ctl];
        shared.predict(sc.trajectory().controls[f % n_ctl], rng_s);
        reference.predict(sc.trajectory().controls[f % n_ctl], rng_r);
        flight_distinct += distinct_keys(cim, shared.soa(), scan, mapping);
        step("flight", scan, 1.0);
      }
      EXPECT_LT(total_ideal - flight_ideal0, flight_distinct);
      EXPECT_LT(total_ideal, total_reads);
    }
  }
}

TEST_F(ScenarioTest, CimCacheRefillsEvictedKeysWithTheSameBits) {
  // 8-bit DACs: a wide cloud's reads rarely share a code triple, so one
  // update holds more distinct keys than the ideal-current cache.
  const LocalizationScenario sc(small_config());
  const auto model = sc.make_cim_backend(8, 4);
  const auto& cim = dynamic_cast<const CimHmgmLikelihood&>(*model);
  const PerPoseForward per_pose(cim);
  const vision::DepthScan scan = scans_of(sc)[1];
  core::ThreadPool pool(2);
  Rng rng(53);
  // Ten poses around the true pose, and 1000 anywhere in the interior
  // with any heading.
  const Cloud tight = gaussian_cloud(sc.trajectory().poses[2], 0.05, 10, rng);
  const Vec3 lo = sc.scene().interior_min(), hi = sc.scene().interior_max();
  Cloud wide;
  for (std::size_t i = 0; i < 1000; ++i)
    wide.push({rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
               rng.uniform(lo.z, hi.z)},
              rng.uniform(-3.14, 3.14));
  // Scores the cloud through the shared path and the per-pose path and
  // returns the ideal currents the shared path computed.
  const auto update = [&](const Cloud& cloud, std::uint64_t root,
                          core::ThreadPool* p) {
    std::vector<double> got(cloud.size()), want(cloud.size());
    const auto ideal0 = cim.array().ideal_current_count();
    cim.log_likelihoods(cloud.view(), scan, root, p, got);
    const auto computed = cim.array().ideal_current_count() - ideal0;
    per_pose.log_likelihoods(cloud.view(), scan, root, nullptr, want);
    EXPECT_EQ(got, want) << "root=" << root;
    return computed;
  };
  // A repeated update whose keys fit in the cache computes nothing.
  EXPECT_GT(update(tight, 1, &pool), 0u);
  EXPECT_EQ(update(tight, 2, nullptr), 0u);
  EXPECT_EQ(update(tight, 3, &pool), 0u);
  // The wide cloud overflows the cache, so its second pass recomputes
  // the evicted keys and takes the rest from the cache, with the same
  // bits as the uncached per-pose path both times.
  const auto first = update(wide, 4, &pool);
  EXPECT_GT(first, cim.array().cache_capacity());
  const auto second = update(wide, 5, nullptr);
  EXPECT_GT(second, 0u);
  EXPECT_LT(second, first);
  EXPECT_GT(update(wide, 6, &pool), 0u);
}

TEST_F(ScenarioTest, CimSharedUpdatesFromTwoThreadsMatchSerialReplay) {
  // Two threads update through one model at once, one serially and one
  // on its own pool, so their cache lookups, kernel runs and inserts
  // interleave. Every log-likelihood must equal a serial replay on a
  // fresh, identically programmed model.
  const LocalizationScenario sc(small_config());
  const auto model = sc.make_cim_backend();
  const auto replay_model = sc.make_cim_backend();
  constexpr std::size_t kFrames = 6, kPoses = 150;
  const auto scans = scans_of(sc);
  ASSERT_GE(scans.size(), kFrames);
  Rng rng(59);
  std::array<std::vector<Cloud>, 2> clouds;
  for (auto& per_thread : clouds)
    for (std::size_t f = 0; f < kFrames; ++f)
      per_thread.push_back(
          gaussian_cloud(sc.trajectory().poses[f + 1], 0.2, kPoses, rng));
  using Outputs = std::vector<std::vector<double>>;
  const auto fly = [&](const MeasurementModel& m, std::size_t t,
                       core::ThreadPool* pool, Outputs& out) {
    out.assign(kFrames, std::vector<double>(kPoses));
    for (std::size_t f = 0; f < kFrames; ++f)
      m.log_likelihoods(clouds[t][f].view(), scans[f], 100 * t + f,
                        pool, out[f]);
  };
  core::ThreadPool pool(2);
  Outputs serial_thread, pooled_thread, replay0, replay1;
  std::thread a([&] { fly(*model, 0, nullptr, serial_thread); });
  std::thread b([&] { fly(*model, 1, &pool, pooled_thread); });
  a.join();
  b.join();
  fly(*replay_model, 0, nullptr, replay0);
  fly(*replay_model, 1, nullptr, replay1);
  EXPECT_EQ(serial_thread, replay0);
  EXPECT_EQ(pooled_thread, replay1);
  EXPECT_EQ(model->evaluation_count(), replay_model->evaluation_count());
}

TEST_F(ScenarioTest, CimGainCalibrationRecoversScale) {
  const LocalizationScenario sc(small_config());
  circuit::LikelihoodArrayConfig acfg;
  acfg.total_columns = 120;
  Rng rng(31);
  const map::WorldToVoltage mapping(
      sc.scene().interior_min() - Vec3{0.3, 0.3, 0.3},
      sc.scene().interior_max() + Vec3{0.3, 0.3, 0.3}, 0.1, 0.9);
  const CimHmgmLikelihood cim(sc.hmgm(), mapping, acfg, rng, 1.0);
  // The physical kernel compresses log-likelihood; calibration must find
  // a substantial >1 gain.
  EXPECT_GT(cim.calibrated_gain(), 1.2);
  EXPECT_LT(cim.calibrated_gain(), 20.0);
}

TEST_F(ScenarioTest, LazyGmmRefitsTheSameModelOnEveryCall) {
  // The digital GMM is fitted per make_gmm_backend call from the stored
  // map cloud and a copy of its rng stream: repeated calls, and calls
  // after the CIM array is programmed, must score scans identically, and
  // match a GMM fitted here from the same cloud and split.
  const ScenarioConfig cfg = small_config();
  const LocalizationScenario sc(cfg);
  Rng map_rng(cfg.seed + 1);
  const auto cloud = sc.scene().sample_point_cloud(
      cfg.map_cloud_points, cfg.map_cloud_noise_m, map_rng);
  Rng gmm_rng = map_rng.split();
  const GmmLikelihood expected(
      prob::Gmm::fit(cloud, cfg.mixture_components, gmm_rng),
      cfg.likelihood_beta);
  const auto first = sc.make_gmm_backend();
  const auto second = sc.make_gmm_backend();
  const auto cim = sc.make_cim_backend();
  const auto after_cim = sc.make_gmm_backend();
  const auto scans = scans_of(sc);
  Rng rng(3);
  for (std::size_t f = 0; f < 3; ++f) {
    const auto& scan = scans[f];
    for (double dx : {0.0, 0.1, -0.25}) {
      Pose pose = sc.trajectory().poses[f + 1];
      pose.position.x += dx;
      const double want = expected.log_likelihood(pose, scan, rng);
      EXPECT_EQ(first->log_likelihood(pose, scan, rng), want);
      EXPECT_EQ(second->log_likelihood(pose, scan, rng), want);
      EXPECT_EQ(after_cim->log_likelihood(pose, scan, rng), want);
    }
  }

  // The HMGM's stream is the second split of the same root.
  const map::WorldToVoltage mapping(
      sc.scene().interior_min() - Vec3{0.3, 0.3, 0.3},
      sc.scene().interior_max() + Vec3{0.3, 0.3, 0.3}, 0.1, 0.9);
  const circuit::InverterProgrammer programmer(circuit::MosfetParams{},
                                               circuit::MosfetParams{},
                                               circuit::SupplyParams{});
  const auto [sig_min_v, sig_max_v] = programmer.sigma_range();
  prob::MixtureFitOptions opt;
  std::tie(opt.sigma_floor_axes, opt.sigma_ceiling_axes) =
      map::world_sigma_bounds(mapping, sig_min_v, sig_max_v);
  Rng hmgm_rng = map_rng.split();
  const prob::Hmgm hmgm =
      prob::Hmgm::fit(cloud, cfg.mixture_components, hmgm_rng, opt);
  ASSERT_EQ(hmgm.component_count(), sc.hmgm().component_count());
  for (std::size_t c = 0; c < hmgm.components().size(); ++c) {
    const auto& a = hmgm.components()[c];
    const auto& b = sc.hmgm().components()[c];
    EXPECT_EQ(a.weight, b.weight) << c;
    EXPECT_EQ(a.mean, b.mean) << c;
    EXPECT_EQ(a.sigma, b.sigma) << c;
  }
}

TEST_F(ScenarioTest, GlobalLocalizationConverges) {
  // Uniform init over the whole room: with more particles and the sharp
  // GMM backend the cloud should collapse onto the trajectory.
  ScenarioConfig cfg = small_config();
  cfg.filter.particle_count = 500;
  cfg.trajectory_steps = 8;
  cfg.global_init = true;
  const LocalizationScenario sc(cfg);
  const auto gmm = sc.make_gmm_backend();
  const auto run = sc.run(*gmm, 777);
  // Final error well under the room diagonal (~3.9 m) and under the
  // average error of a random guess (~1.5 m).
  EXPECT_LT(run.final_error_m, 0.8);
  EXPECT_LT(run.steps.back().position_error_m,
            run.steps.front().position_error_m);
}

// Scans render on stage-A pool workers, so a scan field the renderer would
// take silently must fail at construction, naming the field.
void expect_rejected(const ScenarioConfig& cfg, const std::string& field) {
  try {
    const LocalizationScenario sc(cfg);
    ADD_FAILURE() << field << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioConfigCheck, RejectsScanPixelsBelowOne) {
  for (int pixels : {-1, 0}) {
    ScenarioConfig cfg;
    cfg.scan_pixels = pixels;
    expect_rejected(cfg, "scan_pixels");
  }
}

TEST(ScenarioConfigCheck, RejectsNonFiniteOrNegativeScanNoise) {
  for (double noise : {std::nan(""), -0.01, HUGE_VAL}) {
    ScenarioConfig cfg;
    cfg.scan_noise_m = noise;
    expect_rejected(cfg, "scan_noise_m");
  }
}

TEST(ScenarioConfigCheck, RejectsNonFiniteCameraPitch) {
  for (double pitch : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    ScenarioConfig cfg;
    cfg.camera_pitch_rad = pitch;
    expect_rejected(cfg, "camera_pitch_rad");
  }
}

TEST(Kld, RequiredParticlesGrowWithBins) {
  const KldConfig cfg;
  int prev = 0;
  for (int bins : {2, 5, 20, 100, 500}) {
    const int n = kld_required_particles(bins, cfg);
    EXPECT_GE(n, prev);
    prev = n;
  }
  EXPECT_EQ(kld_required_particles(1, cfg), cfg.min_particles);
  EXPECT_LE(kld_required_particles(100000, cfg), cfg.max_particles);
}

TEST(Kld, BinCountReflectsSpread) {
  KldConfig cfg;
  ParticleFilterConfig pcfg;
  pcfg.particle_count = 500;
  ParticleFilter wide(pcfg), tight(pcfg);
  Rng rng(61);
  wide.init_uniform({0, 0, 0}, {4, 3, 2}, rng);
  tight.init_gaussian(Pose{{2, 1.5, 1}, 0.0}, {0.05, 0.05, 0.05}, 0.02, rng);
  EXPECT_GT(count_occupied_bins(wide.soa(), cfg),
            4 * count_occupied_bins(tight.soa(), cfg));
}

TEST(Kld, OccupiedBinsMatchASetOfBinIndices) {
  // Reference: the distinct unpacked (x, y, z, yaw) bin indices in a
  // std::set. Clouds of varying size (the key buffer shrinks and grows
  // between calls) straddle the origin and put half their headings
  // within 1e-9 of the +-pi wrap point.
  KldConfig cfg;
  cfg.bin_size = {0.3, 0.2, 0.25};
  cfg.yaw_bin_rad = 0.4;
  const double pi = 3.14159265358979323846;
  Rng rng(73);
  for (const int n : {900, 1, 40, 1200, 7, 300}) {
    ParticleFilterConfig pcfg;
    pcfg.particle_count = n;
    ParticleFilter pf(pcfg);
    pf.init_uniform({-2.0, -1.5, -0.5}, {1.0, 0.5, 0.7}, rng);
    const MutableSoaView m = pf.mutable_soa();
    for (std::size_t i = 0; i < m.count; i += 2)
      m.yaw[i] = i % 4 == 0 ? pi - 1e-9 * rng.uniform()
                            : -pi + 1e-9 * (1.0 + rng.uniform());
    const auto bin = [](double v, double size) {
      return static_cast<std::int64_t>(std::floor(v / size));
    };
    std::set<std::array<std::int64_t, 4>> bins;
    for (std::size_t i = 0; i < m.count; ++i)
      bins.insert({bin(m.x[i], 0.3), bin(m.y[i], 0.2), bin(m.z[i], 0.25),
                   bin(m.yaw[i] + pi, 0.4)});
    EXPECT_EQ(count_occupied_bins(pf.soa(), cfg),
              static_cast<int>(bins.size()))
        << "n=" << n;
  }
}

TEST(Kld, BinsFarApartDoNotAlias) {
  // Bin indices 0 and 65,536 on x: a 16-bit packed key would wrap them
  // onto one bin.
  KldConfig cfg;
  ParticleFilterConfig pcfg;
  pcfg.particle_count = 2;
  ParticleFilter pf(pcfg);
  Rng rng(79);
  pf.init_gaussian(Pose{{0.1, 0.1, 0.1}, 0.0}, {0.0, 0.0, 0.0}, 0.0, rng);
  const MutableSoaView m = pf.mutable_soa();
  m.x[1] = m.x[0] + 65536.0 * cfg.bin_size.x;
  EXPECT_EQ(count_occupied_bins(pf.soa(), cfg), 2);
}

TEST(Kld, RejectsNonFiniteOrUnbinnablePose) {
  KldConfig cfg;
  ParticleFilterConfig pcfg;
  pcfg.particle_count = 4;
  ParticleFilter pf(pcfg);
  Rng rng(83);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  const MutableSoaView m = pf.mutable_soa();
  const double saved = m.y[2];
  for (const double bad : {std::nan(""), HUGE_VAL, 1e300}) {
    m.y[2] = bad;
    EXPECT_THROW(count_occupied_bins(pf.soa(), cfg), std::invalid_argument)
        << bad;
  }
  m.y[2] = saved;
  m.yaw[1] = std::nan("");
  EXPECT_THROW(count_occupied_bins(pf.soa(), cfg), std::invalid_argument);
}

TEST(Kld, AdaptiveResampleShrinksConvergedCloud) {
  // A converged belief needs far fewer particles than a global one —
  // the workload elasticity KLD-sampling provides.
  KldConfig cfg;
  ParticleFilterConfig pcfg;
  pcfg.particle_count = 2000;
  ParticleFilter pf(pcfg);
  Rng rng(67);
  pf.init_gaussian(Pose{{2, 1.5, 1}, 0.0}, {0.08, 0.08, 0.05}, 0.05, rng);
  // The production shrink (vo::OdometrySession::consume): bins, then the
  // required count, then a systematic resample to it.
  const auto shrink = [&](ParticleFilter& f) {
    const int need =
        kld_required_particles(count_occupied_bins(f.soa(), cfg), cfg);
    f.resample_to(static_cast<std::size_t>(need), rng);
    return need;
  };
  const int n = shrink(pf);
  EXPECT_EQ(static_cast<int>(pf.size()), n);
  EXPECT_LT(n, 600);
  EXPECT_GE(n, cfg.min_particles);

  ParticleFilter global_pf(pcfg);
  global_pf.init_uniform({0, 0, 0}, {4, 3, 2}, rng);
  const int n_global = shrink(global_pf);
  EXPECT_GT(n_global, 3 * n);
}

TEST(Kld, ResampleToChangesCount) {
  ParticleFilterConfig pcfg;
  pcfg.particle_count = 100;
  ParticleFilter pf(pcfg);
  Rng rng(71);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  pf.resample_to(37, rng);
  EXPECT_EQ(pf.soa().count, 37u);
  pf.resample_to(250, rng);
  EXPECT_EQ(pf.soa().count, 250u);
}

TEST(NoiseInflation, SigmaGrowsMonotonicallyAndRespectsCap) {
  MotionNoise base;
  base.sigma_position = {0.03, 0.03, 0.02};
  base.sigma_yaw = 0.01;
  NoiseInflation inflation;
  inflation.gain = 1.0;
  inflation.sigma_pos_max = 0.2;
  inflation.sigma_yaw_max = 0.15;

  // Zero reported uncertainty leaves the base noise untouched.
  const MotionNoise same = inflate_motion_noise(base, {0, 0, 0}, 0.0,
                                                inflation);
  EXPECT_DOUBLE_EQ(same.sigma_position.x, base.sigma_position.x);
  EXPECT_DOUBLE_EQ(same.sigma_yaw, base.sigma_yaw);

  double prev_x = 0.0, prev_yaw = 0.0;
  for (double s : {0.0, 0.01, 0.03, 0.1, 0.3, 1.0, 5.0}) {
    const MotionNoise n =
        inflate_motion_noise(base, {s, s, s}, s, inflation);
    EXPECT_GE(n.sigma_position.x, prev_x);         // monotone
    EXPECT_GE(n.sigma_yaw, prev_yaw);
    EXPECT_GE(n.sigma_position.x, base.sigma_position.x);  // floored
    EXPECT_LE(n.sigma_position.x, inflation.sigma_pos_max);  // capped
    EXPECT_LE(n.sigma_yaw, inflation.sigma_yaw_max);
    if (s > 0.0 && prev_x < inflation.sigma_pos_max) {
      EXPECT_GT(n.sigma_position.x, prev_x);  // strict below the cap
    }
    prev_x = n.sigma_position.x;
    prev_yaw = n.sigma_yaw;
  }

  // Quadrature: sqrt(base^2 + (gain*s)^2) when uncapped.
  NoiseInflation uncapped;
  uncapped.gain = 2.0;
  uncapped.sigma_pos_max = 0.0;
  const MotionNoise q = inflate_motion_noise(base, {0.1, 0, 0}, 0.0,
                                             uncapped);
  EXPECT_NEAR(q.sigma_position.x,
              std::sqrt(0.03 * 0.03 + 0.2 * 0.2), 1e-12);

  // The cap bounds the inflation, never the configured base noise: a
  // base sigma above the cap passes through untouched at zero reported
  // uncertainty.
  MotionNoise wide_base;
  wide_base.sigma_yaw = 0.8;  // > sigma_yaw_max = 0.15
  const MotionNoise floored =
      inflate_motion_noise(wide_base, {0, 0, 0}, 0.0, inflation);
  EXPECT_DOUBLE_EQ(floored.sigma_yaw, 0.8);
}

TEST(NoiseInflation, PredictedParticleSpreadWidensWithVoVariance) {
  // The closed-loop contract end to end: a larger reported VO variance
  // must widen the predicted cloud, monotonically. Fresh filter + fresh
  // rng per level replay identical standard-normal draws, so the spread
  // comparison is deterministic and strict.
  MotionNoise base;
  NoiseInflation inflation;  // uncapped enough for the levels below
  inflation.sigma_pos_max = 10.0;
  inflation.sigma_yaw_max = 10.0;
  double prev_spread = 0.0;
  for (double vo_sigma : {0.0, 0.02, 0.05, 0.1, 0.25}) {
    ParticleFilterConfig cfg;
    cfg.particle_count = 1500;
    ParticleFilter pf(cfg);
    Rng rng(91);
    pf.init_gaussian(Pose{{1, 1, 1}, 0.0}, {1e-6, 1e-6, 1e-6}, 1e-6, rng);
    const MotionNoise n = inflate_motion_noise(
        base, {vo_sigma, vo_sigma, vo_sigma}, vo_sigma, inflation);
    pf.predict(Control{{0.1, 0, 0}, 0.0}, n, rng);
    const auto est = pf.estimate();
    const double spread = (est.position_stddev.x + est.position_stddev.y +
                           est.position_stddev.z) /
                          3.0;
    EXPECT_GT(spread, prev_spread);
    prev_spread = spread;
  }
}

TEST(ParticleFilter, DecimatedUpdateFractionOneMatchesFull) {
  // fraction 1 must be *exactly* the full update (same rng consumption,
  // same weights), so policies can sweep the fraction continuously.
  ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  struct CornerModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      return -5.0 * pose.position.squared_norm();
    }
    const char* name() const override { return "corner"; }
  } model;
  vision::DepthScan empty_scan;

  ParticleFilter full(cfg), decimated(cfg);
  Rng rng_a(21), rng_b(21);
  full.init_uniform({0, 0, 0}, {1, 1, 1}, rng_a);
  decimated.init_uniform({0, 0, 0}, {1, 1, 1}, rng_b);
  full.update(empty_scan, model, rng_a);
  decimated.update_decimated(empty_scan, model, 1.0, rng_b);
  const SoaView a = full.soa(), b = decimated.soa();
  ASSERT_EQ(a.count, b.count);
  for (std::size_t i = 0; i < a.count; ++i) {
    EXPECT_EQ(a.log_weight[i], b.log_weight[i]);
    EXPECT_EQ(a.x[i], b.x[i]);
  }
}

TEST(ParticleFilter, DecimationStrideRoundsTheFraction) {
  EXPECT_EQ(ParticleFilter::decimation_stride(1.0), 1u);
  EXPECT_EQ(ParticleFilter::decimation_stride(0.7), 1u);   // rounds to full
  EXPECT_EQ(ParticleFilter::decimation_stride(0.5), 2u);
  EXPECT_EQ(ParticleFilter::decimation_stride(0.25), 4u);
  EXPECT_EQ(ParticleFilter::decimation_stride(0.1), 10u);
  EXPECT_THROW(ParticleFilter::decimation_stride(0.0), std::invalid_argument);
  EXPECT_THROW(ParticleFilter::decimation_stride(1.5), std::invalid_argument);
}

TEST(ParticleFilter, DecimatedUpdateSharesBlockLikelihoodsAndSavesEvals) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 101;       // non-multiple of the stride on purpose
  cfg.resample_threshold = 0.0;   // keep the weights observable
  struct CountingModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      ++evals;
      return -0.5 * pose.position.squared_norm();
    }
    const char* name() const override { return "counting"; }
    mutable int evals = 0;
  } model;
  vision::DepthScan empty_scan;

  ParticleFilter pf(cfg);
  Rng rng(23);
  pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
  pf.update_decimated(empty_scan, model, 0.25, rng);
  // ceil(101 / 4) representatives evaluated, everyone else shares.
  EXPECT_EQ(model.evals, 26);
  const SoaView cloud = pf.soa();
  for (std::size_t i = 0; i < cloud.count; ++i)
    EXPECT_EQ(cloud.log_weight[i], cloud.log_weight[(i / 4) * 4]);
}

TEST(ParticleFilter, DecimatedUpdateBitIdenticalAcrossPools) {
  ParticleFilterConfig cfg;
  cfg.particle_count = 500;
  struct NoisyModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng& rng) const override {
      return -2.0 * pose.position.squared_norm() + 0.01 * rng.normal();
    }
    const char* name() const override { return "noisy"; }
  } model;
  vision::DepthScan empty_scan;

  std::vector<std::vector<double>> weights;
  core::ThreadPool p2(2), p8(8);
  for (core::ThreadPool* pool : {(core::ThreadPool*)nullptr, &p2, &p8}) {
    ParticleFilter pf(cfg);
    Rng rng(29);
    pf.init_uniform({0, 0, 0}, {1, 1, 1}, rng);
    pf.update_decimated(empty_scan, model, 0.25, rng, pool);
    const SoaView cloud = pf.soa();
    weights.emplace_back(cloud.log_weight, cloud.log_weight + cloud.count);
  }
  EXPECT_EQ(weights[0], weights[1]);
  EXPECT_EQ(weights[0], weights[2]);
}

TEST(ParticleFilter, TemperingLiftsEssAboveFloor) {
  // A likelihood sharp enough to collapse a wide cloud onto a handful of
  // particles — the degenerate-first-update transient. With a tempering
  // floor the anneal keeps ESS/N at or above it; without, beta stays 1.
  struct SharpModel final : MeasurementModel {
    double log_likelihood(const Pose& pose, const vision::DepthScan&,
                          Rng&) const override {
      return -200.0 * pose.position.squared_norm();
    }
    const char* name() const override { return "sharp"; }
  } model;
  vision::DepthScan empty_scan;

  ParticleFilterConfig plain;
  plain.particle_count = 400;
  ParticleFilter pf_plain(plain);
  Rng rng_a(31);
  pf_plain.init_uniform({0, 0, 0}, {1, 1, 1}, rng_a);
  pf_plain.update(empty_scan, model, rng_a);
  EXPECT_DOUBLE_EQ(pf_plain.last_update_beta(), 1.0);
  EXPECT_LT(pf_plain.last_update_ess(), 0.1 * 400);

  ParticleFilterConfig tempered = plain;
  tempered.tempering_ess_floor = 0.25;
  ParticleFilter pf_temp(tempered);
  Rng rng_b(31);
  pf_temp.init_uniform({0, 0, 0}, {1, 1, 1}, rng_b);
  pf_temp.update(empty_scan, model, rng_b);
  EXPECT_LT(pf_temp.last_update_beta(), 1.0);
  EXPECT_GT(pf_temp.last_update_beta(), 0.0);
  EXPECT_GE(pf_temp.last_update_ess(), 0.25 * 400 - 1e-6);

  // A higher floor anneals harder (smaller beta, larger ESS).
  ParticleFilterConfig higher = plain;
  higher.tempering_ess_floor = 0.5;
  ParticleFilter pf_high(higher);
  Rng rng_c(31);
  pf_high.init_uniform({0, 0, 0}, {1, 1, 1}, rng_c);
  pf_high.update(empty_scan, model, rng_c);
  EXPECT_LT(pf_high.last_update_beta(), pf_temp.last_update_beta());
  EXPECT_GE(pf_high.last_update_ess(), 0.5 * 400 - 1e-6);

  ParticleFilterConfig bad;
  bad.tempering_ess_floor = 1.0;
  EXPECT_THROW(ParticleFilter{bad}, std::invalid_argument);
}

TEST(Backends, EvaluationCountersAndEnergy) {
  // The ledger contract: every scored scan point counts one elementary
  // evaluation, priced by a positive per-evaluation energy.
  const prob::Gmm g({{1.0, prob::DiagGaussian({0, 0, 0}, {1, 1, 1})}});
  const GmmLikelihood m(g, 1.0);
  EXPECT_EQ(m.evaluation_count(), 0u);
  EXPECT_GT(m.evaluation_energy_j(), 0.0);
  vision::DepthScan scan;
  scan.intrinsics = vision::CameraIntrinsics::kinect_like(16, 12);
  scan.pixels.push_back({8, 6, 1.0});
  scan.pixels.push_back({4, 3, 1.5});
  Rng rng(37);
  const Pose pose{{0, 0, 0}, 0.0};
  m.log_likelihood(pose, scan, rng);
  EXPECT_EQ(m.evaluation_count(), 2u);
  m.log_likelihood(pose, scan, rng);
  EXPECT_EQ(m.evaluation_count(), 4u);
}

TEST(ScenarioRegistry, BuiltInsRegisteredInOrder) {
  const auto names = scenario_names();
  ASSERT_GE(names.size(), 5u);
  EXPECT_EQ(names[0], "indoor_loop");
  EXPECT_EQ(names[1], "corridor_dropout");
  EXPECT_EQ(names[2], "loop_closure_square");
  EXPECT_EQ(names[3], "warehouse_symmetry");
  EXPECT_EQ(names[4], "kidnapped_drone");
  for (const auto& n : names)
    EXPECT_FALSE(scenario_description(n).empty());
}

TEST(ScenarioRegistry, UnknownNameThrows) {
  EXPECT_THROW(make_scenario_config("no_such_scenario"),
               std::invalid_argument);
  EXPECT_THROW(scenario_description("no_such_scenario"),
               std::invalid_argument);
}

TEST(ScenarioRegistry, ConfigsPairLayoutsAndTrajectories) {
  const auto corridor = make_scenario_config("corridor_dropout");
  EXPECT_EQ(corridor.scene.layout, map::SceneLayout::kCorridor);
  EXPECT_EQ(corridor.trajectory, TrajectoryKind::kCorridorSweep);
  const auto warehouse = make_scenario_config("warehouse_symmetry");
  EXPECT_EQ(warehouse.scene.layout, map::SceneLayout::kWarehouse);
  const auto square = make_scenario_config("loop_closure_square");
  EXPECT_EQ(square.trajectory, TrajectoryKind::kRoundedSquare);
  const auto kidnapped = make_scenario_config("kidnapped_drone");
  EXPECT_EQ(kidnapped.scene.layout, map::SceneLayout::kWarehouse);
  EXPECT_TRUE(kidnapped.global_init);
  EXPECT_GT(kidnapped.filter.tempering_ess_floor, 0.0);
  EXPECT_GT(kidnapped.filter.particle_count,
            make_scenario_config("warehouse_symmetry").filter.particle_count);
}

TEST(ScenarioRegistry, RegisterExtendsAndReplaceReturnsFalse) {
  EXPECT_TRUE(register_scenario("test_tiny", "unit-test scenario", [] {
    ScenarioConfig cfg;
    cfg.trajectory_steps = 3;
    return cfg;
  }));
  EXPECT_EQ(make_scenario_config("test_tiny").trajectory_steps, 3);
  EXPECT_FALSE(register_scenario("test_tiny", "replaced", [] {
    ScenarioConfig cfg;
    cfg.trajectory_steps = 5;
    return cfg;
  }));
  EXPECT_EQ(make_scenario_config("test_tiny").trajectory_steps, 5);
}

TEST(ScenarioTrajectories, RoundedSquareClosesItsLoop) {
  Rng scene_rng(11);
  const auto scene =
      map::Scene::generate(map::SceneConfig{{3.0, 2.6, 1.8}}, scene_rng);
  Rng rng(13);
  const Trajectory traj = make_square_trajectory(scene, 48, rng);
  ASSERT_EQ(traj.poses.size(), 49u);
  const Pose& first = traj.poses.front();
  const Pose& last = traj.poses.back();
  EXPECT_NEAR(first.position_error(last), 0.0, 1e-9);
  EXPECT_NEAR(first.yaw_error(last), 0.0, 1e-9);
}

TEST(ScenarioTrajectories, RegistryFlightsStayInEnvelopeAndAvoidBoxes) {
  // Every named scenario's flight must keep per-step deltas inside the
  // VO training envelope (else closed-loop frames go out of
  // distribution) and fly clear of scene geometry.
  for (const auto& name :
       {"indoor_loop", "corridor_dropout", "loop_closure_square",
        "warehouse_symmetry", "kidnapped_drone"}) {
    const ScenarioConfig cfg = make_scenario_config(name);
    // Scene + trajectory exactly as the LocalizationScenario constructor
    // builds them (same seeds), skipping the map fitting the geometry
    // checks do not need.
    Rng scene_rng(cfg.seed);
    const auto scene = map::Scene::generate(cfg.scene, scene_rng);
    Rng traj_rng(cfg.seed + 2);
    const Trajectory traj = make_trajectory(cfg.trajectory, scene,
                                            cfg.trajectory_steps, traj_rng);
    for (const auto& c : traj.controls) {
      EXPECT_LE(c.delta_position.norm(), 0.15) << name;
      EXPECT_LE(std::abs(c.delta_yaw), 0.13) << name;
    }
    for (const auto& p : traj.poses) {
      EXPECT_LE(std::abs(p.yaw), 1.0) << name;  // VO training yaw range
      for (const auto& b : scene.boxes()) {
        const Vec3 d = p.position - b.center;
        const bool inside = std::abs(d.x) < b.half_extents.x &&
                            std::abs(d.y) < b.half_extents.y &&
                            std::abs(d.z) < b.half_extents.z;
        EXPECT_FALSE(inside) << name;
      }
    }
  }
}

TEST(Backends, BetaScalesLogLikelihood) {
  const prob::Gmm g({{1.0, prob::DiagGaussian({0, 0, 0}, {1, 1, 1})}});
  const GmmLikelihood m1(g, 1.0);
  const GmmLikelihood m2(g, 2.0);
  vision::DepthScan scan;
  scan.intrinsics = vision::CameraIntrinsics::kinect_like(16, 12);
  scan.pixels.push_back({8, 6, 1.0});
  Rng rng(37);
  const Pose pose{{0, 0, 0}, 0.0};
  EXPECT_NEAR(m2.log_likelihood(pose, scan, rng),
              2.0 * m1.log_likelihood(pose, scan, rng), 1e-9);
}

}  // namespace
}  // namespace cimnav::filter
