// Tests for the zero-copy SoA particle engine and its memory primitives:
// bit-identity against an AoS reference implementation of the historical
// filter, resample_to edge cases, arena/pool exhaustion and reuse, and
// the zero-steady-state-allocation contract (asserted both by the arena
// counters and by a global operator-new counter in this TU).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "core/arena.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/vec.hpp"
#include "filter/measurement.hpp"
#include "filter/motion.hpp"
#include "filter/particle_filter.hpp"
#include "filter/scenario.hpp"
#include "prob/logspace.hpp"
#include "vision/depth.hpp"

// ---------------------------------------------------------------- heap spy
// Program-wide operator new replacement counting allocations while armed.
// Counting is off by default so gtest bookkeeping does not pollute the
// steady-state window under test.
namespace {
std::atomic<bool> g_count_heap{false};
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_heap.load(std::memory_order_relaxed))
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow variants must be replaced too: libstdc++'s temporary
// buffers (std::stable_sort, e.g. in the likelihood array's column
// allocation) allocate through them, and a mix of default nothrow-new
// with this TU's free()-based delete is an ASan alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_heap.load(std::memory_order_relaxed))
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
// GCC pairs the free() below with the replaced operator new and reports
// a mismatch; both sides are malloc/free, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace cimnav {
namespace {

using core::Rng;
using core::ThreadPool;

// Sharp pose-keyed likelihood: strong enough to trigger the tempering
// bisection and frequent resamples; consumes the per-block stream like an
// analog backend would.
class SharpModel final : public filter::MeasurementModel {
 public:
  double log_likelihood(const core::Pose& pose, const vision::DepthScan&,
                        core::Rng& rng) const override {
    const core::Vec3 d = pose.position - core::Vec3{1.5, 1.0, 0.9};
    return -40.0 * d.norm() + 1e-9 * rng.uniform();
  }
  const char* name() const override { return "sharp"; }
};

// ------------------------------------------------------------ AoS seed ref
// Literal reimplementation of the historical AoS particle filter (the
// pre-SoA src/filter/particle_filter.cpp): same draw order, same
// block-keyed likelihood streams, same serial max/sum/cumulative chains.
// The SoA engine promises bit-identity against this at any thread count.
constexpr std::size_t kBlock = 32;

struct AosParticle {
  core::Pose pose;
  double log_weight = 0.0;
};

// AoS copy of a filter's cloud.
std::vector<AosParticle> snapshot(const filter::ParticleFilter& pf) {
  const filter::SoaView soa = pf.soa();
  std::vector<AosParticle> ps(soa.count);
  for (std::size_t i = 0; i < soa.count; ++i) {
    ps[i].pose.position = {soa.x[i], soa.y[i], soa.z[i]};
    ps[i].pose.yaw = soa.yaw[i];
    ps[i].log_weight = soa.log_weight[i];
  }
  return ps;
}

struct AosFilter {
  filter::ParticleFilterConfig cfg;
  std::vector<AosParticle> ps;
  double last_beta = 1.0;
  double last_ess = 0.0;

  explicit AosFilter(const filter::ParticleFilterConfig& c) : cfg(c) {}

  void init_gaussian(const core::Pose& center, const core::Vec3& sp,
                     double sy, Rng& rng) {
    ps.clear();
    for (int i = 0; i < cfg.particle_count; ++i) {
      core::Pose p{{rng.normal(center.position.x, sp.x),
                    rng.normal(center.position.y, sp.y),
                    rng.normal(center.position.z, sp.z)},
                   rng.normal(center.yaw, sy)};
      ps.push_back({p, 0.0});
    }
  }

  void predict(const filter::Control& c, Rng& rng) {
    for (auto& p : ps)
      p.pose = filter::sample_motion(p.pose, c, cfg.motion_noise, rng);
  }

  double tempered_ess(const std::vector<double>& deltas, double beta) const {
    double max_logw = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ps.size(); ++i)
      max_logw = std::max(max_logw, ps[i].log_weight + beta * deltas[i]);
    if (!std::isfinite(max_logw)) return 0.0;
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double w = std::exp(ps[i].log_weight + beta * deltas[i] - max_logw);
      sum += w;
      sum_sq += w * w;
    }
    return sum_sq > 0.0 ? sum * sum / sum_sq : 0.0;
  }

  std::vector<double> normalized() const {
    std::vector<double> logw;
    logw.reserve(ps.size());
    for (const auto& p : ps) logw.push_back(p.log_weight);
    return prob::normalize_log_weights(logw);
  }

  void resample(Rng& rng) {
    const auto w = normalized();
    std::vector<AosParticle> next;
    next.reserve(ps.size());
    const double step = 1.0 / static_cast<double>(ps.size());
    double u = rng.uniform() * step;
    double cumulative = w[0];
    std::size_t idx = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      while (u > cumulative && idx + 1 < ps.size()) {
        ++idx;
        cumulative += w[idx];
      }
      next.push_back({ps[idx].pose, 0.0});
      u += step;
    }
    ps = std::move(next);
  }

  void apply(const std::vector<double>& deltas, Rng& rng) {
    const double n = static_cast<double>(ps.size());
    double beta = 1.0;
    const double floor = cfg.tempering_ess_floor;
    if (floor > 0.0 && tempered_ess(deltas, 1.0) < floor * n) {
      if (tempered_ess(deltas, 0.0) >= floor * n) {
        double lo = 0.0, hi = 1.0;
        for (int it = 0; it < 25; ++it) {
          const double mid = 0.5 * (lo + hi);
          (tempered_ess(deltas, mid) >= floor * n ? lo : hi) = mid;
        }
        beta = lo;
      }
    }
    last_beta = beta;
    for (std::size_t i = 0; i < ps.size(); ++i)
      ps[i].log_weight += beta * deltas[i];
    const auto w = normalized();
    double sum_sq = 0.0;
    for (double x : w) sum_sq += x * x;
    last_ess = sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
    if (last_ess < cfg.resample_threshold * n) {
      resample(rng);
      const auto& rp = cfg.roughening_sigma_pos;
      if (rp.x > 0.0 || rp.y > 0.0 || rp.z > 0.0 ||
          cfg.roughening_sigma_yaw > 0.0) {
        for (auto& p : ps) {
          p.pose.position += {rng.normal(0.0, rp.x), rng.normal(0.0, rp.y),
                              rng.normal(0.0, rp.z)};
          p.pose.yaw = core::wrap_angle(
              p.pose.yaw + rng.normal(0.0, cfg.roughening_sigma_yaw));
        }
      }
    }
  }

  void update(const vision::DepthScan& scan,
              const filter::MeasurementModel& model, Rng& rng) {
    const std::uint64_t root = rng();
    const std::size_t n_blocks = (ps.size() + kBlock - 1) / kBlock;
    std::vector<double> deltas(ps.size());
    for (std::size_t b = 0; b < n_blocks; ++b) {
      Rng block_rng = Rng::stream(root, b);
      const std::size_t i_end = std::min((b + 1) * kBlock, ps.size());
      for (std::size_t i = b * kBlock; i < i_end; ++i)
        deltas[i] = model.log_likelihood(ps[i].pose, scan, block_rng);
    }
    apply(deltas, rng);
  }

  void update_decimated(const vision::DepthScan& scan,
                        const filter::MeasurementModel& model,
                        double fraction, Rng& rng) {
    const std::size_t stride =
        filter::ParticleFilter::decimation_stride(fraction);
    if (stride <= 1) {
      update(scan, model, rng);
      return;
    }
    const std::size_t n_reps = (ps.size() + stride - 1) / stride;
    const std::uint64_t root = rng();
    const std::size_t n_blocks = (n_reps + kBlock - 1) / kBlock;
    std::vector<double> rep_ll(n_reps);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      Rng block_rng = Rng::stream(root, b);
      const std::size_t r_end = std::min((b + 1) * kBlock, n_reps);
      for (std::size_t r = b * kBlock; r < r_end; ++r)
        rep_ll[r] = model.log_likelihood(ps[r * stride].pose, scan, block_rng);
    }
    std::vector<double> deltas(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
      deltas[i] = rep_ll[i / stride];
    apply(deltas, rng);
  }
};

void expect_bit_identical(const filter::ParticleFilter& pf,
                          const AosFilter& ref) {
  const auto soa = pf.soa();
  ASSERT_EQ(soa.count, ref.ps.size());
  for (std::size_t i = 0; i < soa.count; ++i) {
    EXPECT_EQ(soa.x[i], ref.ps[i].pose.position.x) << "i=" << i;
    EXPECT_EQ(soa.y[i], ref.ps[i].pose.position.y) << "i=" << i;
    EXPECT_EQ(soa.z[i], ref.ps[i].pose.position.z) << "i=" << i;
    EXPECT_EQ(soa.yaw[i], ref.ps[i].pose.yaw) << "i=" << i;
    EXPECT_EQ(soa.log_weight[i], ref.ps[i].log_weight) << "i=" << i;
  }
}

filter::ParticleFilterConfig identity_config() {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 257;  // deliberately not a multiple of the block
  cfg.resample_threshold = 0.9;
  cfg.tempering_ess_floor = 0.3;
  return cfg;
}

TEST(SoaBitIdentity, UpdateAndResampleMatchAosSeedAtAnyThreadCount) {
  const auto cfg = identity_config();
  SharpModel model;
  vision::DepthScan scan;
  const filter::Control ctl{{0.05, 0.01, 0.0}, 0.02};

  auto run_ref = [&] {
    AosFilter ref(cfg);
    Rng rng(2024);
    ref.init_gaussian({{1.2, 0.9, 0.8}, 0.3}, {0.4, 0.4, 0.2}, 0.2, rng);
    for (int step = 0; step < 6; ++step) {
      ref.predict(ctl, rng);
      if (step % 3 == 2) {
        ref.update_decimated(scan, model, 0.25, rng);
      } else {
        ref.update(scan, model, rng);
      }
    }
    return ref;
  };
  const AosFilter ref = run_ref();

  ThreadPool p1(1), p2(2), p8(8);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1, &p2, &p8}) {
    filter::ParticleFilter pf(cfg);
    Rng rng(2024);
    pf.init_gaussian({{1.2, 0.9, 0.8}, 0.3}, {0.4, 0.4, 0.2}, 0.2, rng);
    for (int step = 0; step < 6; ++step) {
      pf.predict(ctl, rng);
      if (step % 3 == 2) {
        pf.update_decimated(scan, model, 0.25, rng, pool);
      } else {
        pf.update(scan, model, rng, pool);
      }
    }
    expect_bit_identical(pf, ref);
    EXPECT_EQ(pf.last_update_beta(), ref.last_beta);
    EXPECT_EQ(pf.last_update_ess(), ref.last_ess);
  }
  // The sharp likelihood against a wide cloud must actually have fired
  // the tempering bisection at least once, or the test proves less than
  // it claims.
  EXPECT_LT(ref.last_beta, 1.0);
}

// ------------------------------------------------------- resample_to edges

TEST(ResampleTo, EqualWeightsPreserveTheCloud) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  filter::ParticleFilter pf(cfg);
  Rng rng(7);
  pf.init_gaussian({{1.0, 1.0, 1.0}, 0.0}, {0.3, 0.3, 0.2}, 0.2, rng);
  const std::vector<AosParticle> before = snapshot(pf);

  pf.resample_to(pf.size(), rng);
  const auto soa = pf.soa();
  ASSERT_EQ(soa.count, before.size());
  // Systematic resampling of a uniform cloud maps every evenly spaced
  // pointer into its own bin: the identity gather.
  for (std::size_t i = 0; i < soa.count; ++i) {
    EXPECT_EQ(soa.x[i], before[i].pose.position.x);
    EXPECT_EQ(soa.yaw[i], before[i].pose.yaw);
    EXPECT_EQ(soa.log_weight[i], 0.0);
  }
}

TEST(ResampleTo, OneHotWeightsCollapseToTheWinner) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 64;
  filter::ParticleFilter pf(cfg);
  Rng rng(11);
  pf.init_gaussian({{0.5, 0.5, 0.5}, 0.0}, {0.2, 0.2, 0.1}, 0.1, rng);
  const std::size_t winner = 17;
  const core::Pose winner_pose = snapshot(pf)[winner].pose;
  {
    const auto soa = pf.mutable_soa();
    for (std::size_t i = 0; i < soa.count; ++i)
      soa.log_weight[i] = i == winner ? 0.0 : -1e9;
  }
  pf.resample_to(48, rng);
  ASSERT_EQ(pf.size(), 48u);
  const auto soa = pf.soa();
  for (std::size_t i = 0; i < soa.count; ++i) {
    EXPECT_EQ(soa.x[i], winner_pose.position.x);
    EXPECT_EQ(soa.y[i], winner_pose.position.y);
    EXPECT_EQ(soa.z[i], winner_pose.position.z);
    EXPECT_EQ(soa.yaw[i], winner_pose.yaw);
  }
}

TEST(ResampleTo, ShrinkToOneKeepsAnAncestor) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 32;
  filter::ParticleFilter pf(cfg);
  Rng rng(13);
  pf.init_gaussian({{0.4, 0.4, 0.4}, 0.0}, {0.2, 0.2, 0.1}, 0.1, rng);
  const std::vector<AosParticle> before = snapshot(pf);
  const auto stats_before = pf.memory_stats();

  pf.resample_to(1, rng);
  ASSERT_EQ(pf.size(), 1u);
  const auto soa = pf.soa();
  const bool is_ancestor =
      std::any_of(before.begin(), before.end(), [&](const auto& p) {
        return p.pose.position.x == soa.x[0] &&
               p.pose.position.y == soa.y[0] &&
               p.pose.position.z == soa.z[0] && p.pose.yaw == soa.yaw[0];
      });
  EXPECT_TRUE(is_ancestor);
  EXPECT_EQ(soa.log_weight[0], 0.0);
  // Shrinking never allocates.
  EXPECT_EQ(pf.memory_stats().heap_allocations,
            stats_before.heap_allocations);
}

TEST(ResampleTo, GrowingPastCapacityReslabsOnceThenStaysFlat) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  filter::ParticleFilter pf(cfg);
  Rng rng(17);
  pf.init_gaussian({{0.6, 0.6, 0.6}, 0.0}, {0.3, 0.3, 0.2}, 0.1, rng);
  const std::vector<AosParticle> before = snapshot(pf);
  const auto stats_before = pf.memory_stats();
  ASSERT_LT(stats_before.particle_capacity, 500u);

  pf.resample_to(500, rng);
  ASSERT_EQ(pf.size(), 500u);
  const auto grown = pf.memory_stats();
  EXPECT_GT(grown.heap_allocations, stats_before.heap_allocations);
  EXPECT_GE(grown.particle_capacity, 500u);
  // Every grown particle is a gather of some ancestor.
  const auto soa = pf.soa();
  for (std::size_t i = 0; i < soa.count; i += 97) {
    const bool is_ancestor =
        std::any_of(before.begin(), before.end(), [&](const auto& p) {
          return p.pose.position.x == soa.x[i] && p.pose.yaw == soa.yaw[i];
        });
    EXPECT_TRUE(is_ancestor) << "i=" << i;
    EXPECT_EQ(soa.log_weight[i], 0.0);
  }
  // A second resample at the grown size reuses the new slabs.
  pf.resample_to(500, rng);
  EXPECT_EQ(pf.memory_stats().heap_allocations, grown.heap_allocations);
}

// ---------------------------------------------------------- arena + pool

TEST(Arena, CarveExhaustionThrowsAndResetReuses) {
  core::Arena arena(256);
  EXPECT_EQ(arena.stats().slab_allocations, 1u);
  EXPECT_EQ(arena.capacity(), 256u);

  double* a = arena.carve_array<double>(8);   // 64 bytes
  double* b = arena.carve_array<double>(16);  // 128 bytes
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % core::kCacheLineBytes, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % core::kCacheLineBytes, 0u);
  EXPECT_EQ(arena.used(), 192u);
  EXPECT_THROW(arena.carve(128), std::invalid_argument);

  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  double* c = arena.carve_array<double>(32);  // full capacity again
  EXPECT_EQ(c, a);                            // same slab, same base
  EXPECT_EQ(arena.stats().slab_allocations, 1u);
  EXPECT_EQ(arena.stats().high_water_bytes, 256u);
}

TEST(BufferPool, ExhaustionReleaseAndReuse) {
  core::BufferPool pool(100, 2);  // rounded up to whole cache lines
  EXPECT_EQ(pool.block_bytes(), 128u);
  EXPECT_EQ(pool.blocks_total(), 2u);
  EXPECT_EQ(pool.stats().slab_allocations, 1u);

  void* first = pool.acquire();
  void* second = pool.acquire();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(first, second);
  EXPECT_EQ(pool.blocks_free(), 0u);
  EXPECT_THROW(pool.acquire(), std::invalid_argument);

  int unrelated = 0;
  EXPECT_THROW(pool.release(&unrelated), std::invalid_argument);
  pool.release(second);
  EXPECT_THROW(pool.release(second), std::invalid_argument);  // double free
  EXPECT_EQ(pool.acquire(), second);  // LIFO reuse, no allocation
  EXPECT_EQ(pool.stats().slab_allocations, 1u);
  EXPECT_EQ(pool.stats().acquires, 3u);
  EXPECT_EQ(pool.stats().releases, 1u);
}

// --------------------------------------------------- zero-allocation loop

TEST(ZeroAllocation, SteadyStateFilterCyclesNeverTouchTheHeap) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 300;
  cfg.resample_threshold = 1.0;  // resample every frame: worst case
  filter::ParticleFilter pf(cfg);
  Rng rng(9);
  pf.init_gaussian({{1.2, 1.0, 0.8}, 0.2}, {0.3, 0.3, 0.2}, 0.1, rng);
  SharpModel model;
  vision::DepthScan scan;
  const filter::Control ctl{{0.02, 0.0, 0.0}, 0.01};

  // Warm-up frame: first-touch paths (compat view stays untouched).
  pf.predict(ctl, rng);
  pf.update(scan, model, rng);
  const auto warm = pf.memory_stats();

  g_heap_allocs.store(0);
  g_count_heap.store(true);
  for (int frame = 0; frame < 8; ++frame) {
    pf.predict(ctl, rng);
    pf.update(scan, model, rng);
    (void)pf.estimate();
    (void)pf.effective_sample_size();
    (void)pf.soa();
    (void)pf.size();
  }
  g_count_heap.store(false);

  EXPECT_EQ(g_heap_allocs.load(), 0u)
      << "steady-state predict/update/resample cycle touched the heap";
  const auto after = pf.memory_stats();
  EXPECT_EQ(after.heap_allocations, warm.heap_allocations);
  // Every frame resampled (threshold 1.0): one pool block cycle each.
  EXPECT_EQ(after.pool_acquires, warm.pool_acquires + 8);
  EXPECT_EQ(after.pool_releases, warm.pool_releases + 8);
}

TEST(ZeroAllocation, SharedCimUpdatesNeverTouchTheHeap) {
  // The CIM backend's shared update keeps its keys, code-cube bitmap,
  // rank and distinct currents in one grow-only thread_local scratch on
  // the dispatching thread, gathers cache misses in per-chunk stack
  // buffers, and each array allocates its ideal-current cache at
  // construction; once warm, updates must not allocate, also once the
  // cache is full and evicting.
  filter::ScenarioConfig sc_cfg;
  sc_cfg.scene.room_size = {2.6, 2.2, 1.8};
  sc_cfg.scene.furniture_count = 4;
  sc_cfg.scene.clutter_count = 6;
  sc_cfg.map_cloud_points = 1500;
  sc_cfg.mixture_components = 25;
  sc_cfg.trajectory_steps = 3;
  sc_cfg.scan_pixels = 80;
  sc_cfg.cim_columns = 120;
  const filter::LocalizationScenario sc(sc_cfg);
  const auto model = sc.make_cim_backend();
  const auto* cim =
      dynamic_cast<const filter::CimHmgmLikelihood*>(model.get());
  ASSERT_NE(cim, nullptr);
  vision::DepthScan scan;
  sc.render_scan_into(0, scan);
  ASSERT_EQ(scan.pixels.size(), 80u);
  const filter::Control ctl{{0.02, 0.0, 0.0}, 0.01};

  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    filter::ParticleFilterConfig cfg;
    cfg.particle_count = 200;
    cfg.resample_threshold = 1.0;  // resample every frame: worst case
    filter::ParticleFilter pf(cfg);
    Rng rng(11);
    // Warm-up on a tight cloud (few distinct code triples): one full and
    // one decimated update grow the scratch. The steady state then scores
    // a wide cloud with more distinct triples than the warm-up saw.
    const core::Pose start = sc.trajectory().poses.front();
    pf.init_gaussian(start, {0.01, 0.01, 0.01}, 0.01, rng);
    pf.predict(ctl, rng);
    const auto ideal0 = cim->array().ideal_current_count();
    pf.update(scan, *model, rng, &pool);
    const auto warm_distinct = cim->array().ideal_current_count() - ideal0;
    pf.update_decimated(scan, *model, 0.5, rng, &pool);
    pf.init_gaussian(start, {0.3, 0.3, 0.15}, 0.3, rng);

    // Five 200-pose clouds scattered over the interior: together their
    // reads hold more distinct keys than the ideal-current cache, so the
    // counted updates below also fill it and evict from it.
    const core::Vec3 lo = sc.scene().interior_min();
    const core::Vec3 hi = sc.scene().interior_max();
    constexpr std::size_t kScattered = 200;
    std::array<std::array<std::vector<double>, 4>, 5> scattered;
    for (auto& cloud : scattered) {
      for (auto& column : cloud) column.resize(kScattered);
      for (std::size_t i = 0; i < kScattered; ++i) {
        cloud[0][i] = rng.uniform(lo.x, hi.x);
        cloud[1][i] = rng.uniform(lo.y, hi.y);
        cloud[2][i] = rng.uniform(lo.z, hi.z);
        cloud[3][i] = rng.uniform(-3.14, 3.14);
      }
    }
    std::vector<double> out(kScattered);

    const auto reads = model->evaluation_count();
    g_heap_allocs.store(0);
    g_count_heap.store(true);
    std::uint64_t first_distinct = 0;
    for (int frame = 0; frame < 6; ++frame) {
      pf.predict(ctl, rng);
      if (frame == 0) {
        const auto before = cim->array().ideal_current_count();
        pf.update(scan, *model, rng, &pool);
        first_distinct = cim->array().ideal_current_count() - before;
      } else if (frame % 3 == 2) {
        pf.update_decimated(scan, *model, 0.5, rng, &pool);
      } else {
        pf.update(scan, *model, rng, &pool);
      }
    }
    const auto scattered0 = cim->array().ideal_current_count();
    std::uint64_t root = 0;
    for (const auto& cloud : scattered) {
      const filter::PoseView poses{cloud[0].data(), cloud[1].data(),
                                   cloud[2].data(), cloud[3].data(),
                                   kScattered, 1};
      model->log_likelihoods(poses, scan, ++root, &pool, out);
    }
    const auto scattered_computed =
        cim->array().ideal_current_count() - scattered0;
    g_count_heap.store(false);

    EXPECT_EQ(g_heap_allocs.load(), 0u)
        << "threads=" << threads << ": a warm shared CIM update touched "
        << "the heap";
    // 4 full updates of 200 poses, 2 decimated ones of 100 and 5
    // scattered clouds of 200, 80 reads per pose.
    EXPECT_EQ(model->evaluation_count() - reads,
              (4 * 200 + 2 * 100 + 5 * 200) * 80u);
    EXPECT_GT(first_distinct, warm_distinct)
        << "the steady state must outgrow the warm-up's distinct set";
    EXPECT_GT(scattered_computed, cim->array().cache_capacity())
        << "the scattered clouds must overflow the ideal-current cache";
  }
}

TEST(ZeroAllocation, DigitalLikelihoodsNeverTouchTheHeap) {
  // GmmLikelihood and HmgmLikelihood score every pixel through the
  // mixture's log_pdf, whose per-component terms live in a grow-only
  // thread_local scratch: after one warm call per thread, per-pose and
  // batched scoring must not allocate.
  filter::ScenarioConfig sc_cfg;
  sc_cfg.scene.room_size = {2.6, 2.2, 1.8};
  sc_cfg.scene.furniture_count = 4;
  sc_cfg.scene.clutter_count = 6;
  sc_cfg.map_cloud_points = 1500;
  sc_cfg.mixture_components = 25;
  sc_cfg.trajectory_steps = 3;
  sc_cfg.scan_pixels = 80;
  const filter::LocalizationScenario sc(sc_cfg);
  vision::DepthScan scan;
  sc.render_scan_into(0, scan);
  ASSERT_EQ(scan.pixels.size(), 80u);
  const core::Pose pose = sc.trajectory().poses[1];

  constexpr std::size_t kPoses = 40;
  std::vector<double> x(kPoses), y(kPoses), z(kPoses), yaw(kPoses);
  for (std::size_t i = 0; i < kPoses; ++i) {
    x[i] = pose.position.x + 0.01 * static_cast<double>(i);
    y[i] = pose.position.y;
    z[i] = pose.position.z;
    yaw[i] = pose.yaw;
  }
  const filter::PoseView poses{x.data(), y.data(), z.data(), yaw.data(),
                               kPoses, 1};
  std::vector<double> out(kPoses);

  for (const auto& model : {sc.make_gmm_backend(), sc.make_hmgm_backend()}) {
    Rng rng(5);
    const double warm = model->log_likelihood(pose, scan, rng);
    const auto evals = model->evaluation_count();
    g_heap_allocs.store(0);
    g_count_heap.store(true);
    double ll = 0.0;
    for (int rep = 0; rep < 4; ++rep) ll = model->log_likelihood(pose, scan, rng);
    model->log_likelihoods(poses, scan, 7, nullptr, out);
    g_count_heap.store(false);

    EXPECT_EQ(g_heap_allocs.load(), 0u)
        << model->name() << ": a warm digital likelihood touched the heap";
    EXPECT_EQ(ll, warm) << model->name();
    EXPECT_EQ(out[0], warm) << model->name();
    EXPECT_EQ(model->evaluation_count() - evals, (4 + kPoses) * 80u)
        << model->name();
  }
}

}  // namespace
}  // namespace cimnav
