// Tests for the multi-threaded CIM execution engine: thread-pool
// semantics, derived-stream reproducibility, and bit-exact determinism of
// MC-Dropout predictions across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <cmath>
#include <thread>
#include <vector>

#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "cimsram/cim_macro.hpp"
#include "core/completion.hpp"
#include "core/mpsc_queue.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "filter/particle_filter.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"

namespace cimnav {
namespace {

using core::Rng;
using core::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, 64, [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t i = begin; i < end; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  pool.parallel_for(16, 1, [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t i = begin; i < end; ++i) {
      // A nested call must not deadlock; it degrades to a serial loop.
      pool.parallel_for(8, 2, [&](std::size_t b2, std::size_t e2, int) {
        total.fetch_add(e2 - b2, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 16u * 8u);
}

TEST(ThreadPool, BodyExceptionRethrownOnCallerAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64, 1,
                        [&](std::size_t begin, std::size_t, int) {
                          if (begin == 13)
                            throw std::runtime_error("chunk failure");
                        }),
      std::runtime_error);
  // The pool must remain fully usable after a failed job.
  std::atomic<std::uint64_t> total{0};
  pool.parallel_for(100, 3, [&](std::size_t begin, std::size_t end, int) {
    total.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(RngStream, KeyedStreamsAreReproducibleAndDistinct) {
  Rng s1 = Rng::stream(42, 7);
  Rng s2 = Rng::stream(42, 7);
  Rng s3 = Rng::stream(42, 8);
  const std::uint64_t a = s1(), b = s2(), c = s3();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(RngFastNormal, MatchesNormalMoments) {
  Rng rng(2024);
  const int n = 200000;
  double m = 0.0, m2 = 0.0;
  int tail = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal_fast();
    m += v;
    m2 += v * v;
    if (std::abs(v) > 2.0) ++tail;
  }
  m /= n;
  m2 /= n;
  EXPECT_NEAR(m, 0.0, 0.01);
  EXPECT_NEAR(m2 - m * m, 1.0, 0.02);
  // Two-sided 2-sigma tail of the standard normal is ~4.55%.
  EXPECT_NEAR(static_cast<double>(tail) / n, 0.0455, 0.004);
}

class McDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    nn::MlpConfig cfg;
    cfg.layer_sizes = {24, 16, 8, 3};
    cfg.dropout_on_input = false;
    net_ = std::make_unique<nn::Mlp>(cfg, rng);
    std::vector<nn::Vector> calib;
    for (int i = 0; i < 4; ++i) {
      nn::Vector v(24);
      for (auto& e : v) e = rng.uniform();
      calib.push_back(std::move(v));
    }
    cimsram::CimMacroConfig mc;
    mc.input_bits = 4;
    mc.weight_bits = 4;
    Rng crng(7);
    cim_ = std::make_unique<nn::CimMlp>(*net_, mc, calib, crng);
    x_.resize(24);
    for (auto& e : x_) e = rng.uniform();
  }

  bnn::McPrediction predict(core::ThreadPool* pool, bool reuse) {
    bnn::SoftwareMaskSource masks(Rng{11});
    bnn::McOptions opt;
    opt.iterations = 30;
    opt.dropout_p = 0.5;
    opt.compute_reuse = reuse;
    opt.pool = pool;
    Rng arng(13);
    return bnn::mc_predict_cim(*cim_, x_, opt, masks, arng);
  }

  std::unique_ptr<nn::Mlp> net_;
  std::unique_ptr<nn::CimMlp> cim_;
  nn::Vector x_;
};

TEST_F(McDeterminismTest, DensePredictionBitExactAcrossThreadCounts) {
  ThreadPool p1(1), p2(2), p8(8);
  const auto serial = predict(nullptr, false);
  const auto one = predict(&p1, false);
  const auto two = predict(&p2, false);
  const auto eight = predict(&p8, false);
  ASSERT_EQ(serial.mean.size(), 3u);
  for (std::size_t i = 0; i < serial.mean.size(); ++i) {
    EXPECT_EQ(serial.mean[i], one.mean[i]);
    EXPECT_EQ(serial.mean[i], two.mean[i]);
    EXPECT_EQ(serial.mean[i], eight.mean[i]);
    EXPECT_EQ(serial.variance[i], one.variance[i]);
    EXPECT_EQ(serial.variance[i], two.variance[i]);
    EXPECT_EQ(serial.variance[i], eight.variance[i]);
  }
}

TEST_F(McDeterminismTest, ReusePredictionBitExactAcrossThreadCounts) {
  ThreadPool p2(2), p8(8);
  const auto serial = predict(nullptr, true);
  const auto two = predict(&p2, true);
  const auto eight = predict(&p8, true);
  for (std::size_t i = 0; i < serial.mean.size(); ++i) {
    EXPECT_EQ(serial.mean[i], two.mean[i]);
    EXPECT_EQ(serial.mean[i], eight.mean[i]);
    EXPECT_EQ(serial.variance[i], two.variance[i]);
    EXPECT_EQ(serial.variance[i], eight.variance[i]);
  }
}

TEST_F(McDeterminismTest, DenseAndReuseAgreeStatistically) {
  // Reuse replays the same masks through the delta rule; predictions must
  // agree closely (analog noise paths differ, so not bit-exact).
  ThreadPool p4(4);
  const auto dense = predict(&p4, false);
  const auto reuse = predict(&p4, true);
  for (std::size_t i = 0; i < dense.mean.size(); ++i)
    EXPECT_NEAR(dense.mean[i], reuse.mean[i],
                0.25 * (1.0 + std::abs(dense.mean[i])));
}

// ---------------------------------------------------------------------------
// Lock-free primitive torture — the fleet admission path under real
// contention. These are the tests the ThreadSanitizer CI job exists
// for: a tiny ring forces constant full/empty churn, so producers and
// the consumer hammer the same cells' seq counters from different
// threads, and any missing acquire/release pair in MpscQueue or
// Completion shows up as a TSan race (and, usually, as lost or
// reordered items here).
// ---------------------------------------------------------------------------

TEST(MpscQueueTorture, BurstProducersAgainstConsumingScheduler) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  // Deliberately tiny: bursts overrun capacity immediately, so pushes
  // spin on "full" while the consumer races the same cells.
  core::MpscQueue<std::uint64_t> queue(8);

  std::vector<std::vector<std::uint64_t>> consumed_per_producer(kProducers);
  std::thread consumer([&] {
    std::uint64_t got = 0, v = 0;
    while (got < kProducers * kPerProducer) {
      if (!queue.try_pop(v)) {
        std::this_thread::yield();
        continue;
      }
      consumed_per_producer[v / kPerProducer].push_back(v % kPerProducer);
      ++got;
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&queue, p] {
      const std::uint64_t base =
          static_cast<std::uint64_t>(p) * kPerProducer;
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        while (!queue.try_push(base + i)) std::this_thread::yield();
    });
  for (auto& t : producers) t.join();
  consumer.join();

  // Every item exactly once, and per-producer FIFO order survived (a
  // single consumer pops claimed cells in ring order, so each
  // producer's own sequence may interleave with others but never
  // reorder against itself).
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(consumed_per_producer[p].size(), kPerProducer)
        << "producer " << p;
    for (std::uint64_t i = 0; i < kPerProducer; ++i)
      ASSERT_EQ(consumed_per_producer[p][i], i)
          << "producer " << p << " item " << i;
  }
  EXPECT_EQ(queue.size_approx(), 0u);
}

TEST(CompletionTorture, PooledPublishPollReleaseCycles) {
  // The fleet's lifecycle, compressed: reset -> add_ref(2) -> producer
  // complete()s a payload -> a consumer thread spins on done() and
  // reads -> both sides release, last one recycles. The done() acquire
  // must order the payload (and the QoS-record analog, written before
  // complete()) for the polling thread.
  struct Payload {
    std::uint64_t value = 0;
    std::uint64_t shadow = 0;  ///< written pre-complete, read post-poll
  };
  constexpr int kSlots = 4;
  constexpr std::uint64_t kCycles = 3000;
  core::Completion<Payload> slots[kSlots];
  std::uint64_t pre_complete_shadow[kSlots] = {0, 0, 0, 0};
  core::MpscQueue<std::uint32_t> free_ring(kSlots);
  core::MpscQueue<std::uint32_t> published(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) free_ring.try_push(i);

  std::atomic<std::uint64_t> checked{0};
  std::thread consumer([&] {
    std::uint32_t idx = 0;
    std::uint64_t got = 0;
    while (got < kCycles) {
      if (!published.try_pop(idx)) {
        std::this_thread::yield();
        continue;
      }
      core::Completion<Payload>& c = slots[idx];
      while (!c.done()) std::this_thread::yield();
      // Both the swapped-in payload and the plain side-band write that
      // happened before complete() must be visible after done().
      // (EXPECT, not ASSERT: an early return here would wedge the
      // cycle count and hang the test on failure.)
      EXPECT_EQ(c.value().shadow, c.value().value + 1);
      EXPECT_EQ(pre_complete_shadow[idx], c.value().value);
      checked.fetch_add(1, std::memory_order_relaxed);
      if (c.release() == 0)
        while (!free_ring.try_push(idx)) std::this_thread::yield();
      ++got;
    }
  });

  for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    std::uint32_t idx = 0;
    while (!free_ring.try_pop(idx)) std::this_thread::yield();
    core::Completion<Payload>& c = slots[idx];
    c.reset();
    c.add_ref(2);  // producer + consumer, the engine's split
    Payload p;
    p.value = cycle;
    p.shadow = cycle + 1;
    pre_complete_shadow[idx] = cycle;  // ordered by complete()'s release
    c.complete(p);
    while (!published.try_push(idx)) std::this_thread::yield();
    if (c.release() == 0)
      while (!free_ring.try_push(idx)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(checked.load(), kCycles);
}

TEST(ParticleFilterThreading, UpdateBitExactAcrossThreadCounts) {
  filter::ParticleFilterConfig cfg;
  cfg.particle_count = 100;
  // Digital likelihood stand-in keyed only on the pose, so weights are a
  // pure function of the particle cloud.
  class FakeModel final : public filter::MeasurementModel {
   public:
    double log_likelihood(const core::Pose& pose,
                          const vision::DepthScan&,
                          core::Rng& rng) const override {
      // Consumes the per-block stream like an analog backend would.
      return -pose.position.norm() + 1e-9 * rng.uniform();
    }
    const char* name() const override { return "fake"; }
  } model;

  auto run = [&](core::ThreadPool* pool) {
    filter::ParticleFilter pf(cfg);
    Rng rng(17);
    pf.init_uniform({0, 0, 0}, {3, 3, 2}, rng);
    vision::DepthScan scan;
    pf.update(scan, model, rng, pool);
    const filter::SoaView cloud = pf.soa();
    return std::vector<double>(cloud.log_weight,
                               cloud.log_weight + cloud.count);
  };
  ThreadPool p2(2), p8(8);
  const auto serial = run(nullptr);
  const auto two = run(&p2);
  const auto eight = run(&p8);
  ASSERT_EQ(serial.size(), two.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], two[i]);
    EXPECT_EQ(serial[i], eight[i]);
  }
}

}  // namespace
}  // namespace cimnav
