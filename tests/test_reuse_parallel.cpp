// Chain-parallel compute-reuse determinism suite: the pooled reuse
// engine (mc_predict_cim_window / mc_predict_cim_jobs) must be
// bit-identical to the serial per-frame mc_predict_cim loop across
// pool sizes {1, 2, 8} x window sizes {1, 3, 16} x session counts
// {1, 4, 8} — spanning both dispatch modes of the chain engine
// (per-chain work items below the step-sync threshold, step-synchronous
// pooled phases above it) — over net shapes that reach every branch of
// the chain-step kernel: hidden-site {4,16,8,2} (locus layer 1, one tail
// layer), input-site {4,16,8,2} (locus layer 0, two tail layers),
// hidden-site {4,16,2} (the locus is the output layer) and hidden-site
// {80,72,3} (a two-word layer 0 and a locus whose delta reads span two
// packed gate words, with analog noise on). The warmed pooled reuse path
// must run without touching the heap (operator-new spy in this TU).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bnn/mask_source.hpp"
#include "bnn/mc_dropout.hpp"
#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "nn/cim_mlp.hpp"
#include "nn/mlp.hpp"

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
// GCC pairs the free() below with the replaced operator new and reports
// a mismatch; both sides are malloc/free, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace cimnav::bnn {
namespace {

using core::Rng;
using core::ThreadPool;
using nn::Vector;

/// A network shape under test: layer widths (>= 4 inputs, >= 2 outputs)
/// and the dropout site.
struct NetShape {
  std::vector<int> layer_sizes;
  bool dropout_on_input = false;
};

class ReuseParallelFixture : public ::testing::TestWithParam<NetShape> {
 protected:
  ReuseParallelFixture() : rng_(7), net_(make_config(GetParam()), rng_) {
    const int n_out = GetParam().layer_sizes.back();
    std::vector<Vector> X, Y;
    for (int i = 0; i < 300; ++i) {
      Vector x = random_input(rng_);
      Vector y{x[0] + x[1] - x[2], x[3] - x[0]};
      for (int k = 2; k < n_out; ++k)
        y.push_back(x[static_cast<std::size_t>(k) % x.size()] -
                    x[static_cast<std::size_t>(k + 1) % x.size()]);
      Y.push_back(std::move(y));
      X.push_back(std::move(x));
    }
    nn::TrainOptions opt;
    for (int e = 0; e < 30; ++e) net_.train_epoch(X, Y, opt, rng_);

    std::vector<Vector> calib;
    Rng crng(13);
    for (int i = 0; i < 20; ++i) calib.push_back(random_input(crng));
    cimsram::CimMacroConfig mc;  // analog noise ON: bit-identity is the
                                 // strong claim on the noisy path
    Rng nrng(17);
    cim_ = std::make_unique<nn::CimMlp>(net_, mc, calib, nrng);
  }

  static nn::MlpConfig make_config(const NetShape& shape) {
    nn::MlpConfig cfg;
    cfg.layer_sizes = shape.layer_sizes;
    cfg.dropout_p = 0.4;
    cfg.dropout_on_input = shape.dropout_on_input;
    return cfg;
  }

  static McOptions reuse_options(ThreadPool* pool) {
    McOptions opt;
    opt.iterations = 20;  // refresh interval 8 -> chains of 8, 8, 4
    opt.dropout_p = 0.4;
    opt.compute_reuse = true;
    opt.order_samples = true;
    opt.pool = pool;
    return opt;
  }

  /// One uniform input vector of the network's input width.
  static Vector random_input(Rng& rng) {
    Vector x(static_cast<std::size_t>(GetParam().layer_sizes.front()));
    for (double& v : x) v = rng.uniform();
    return x;
  }

  static std::vector<Vector> make_frames(std::size_t n) {
    std::vector<Vector> frames;
    Rng frng(23);
    for (std::size_t f = 0; f < n; ++f) frames.push_back(random_input(frng));
    return frames;
  }

  static bool same_pred(const McPrediction& a, const McPrediction& b) {
    return a.samples == b.samples && a.mean == b.mean &&
           a.variance == b.variance;
  }

  /// The determinism anchor: the per-frame serial engine, one
  /// mc_predict_cim per frame, this session's own mask/noise streams
  /// consumed in frame order.
  std::vector<McPrediction> serial_reference(std::uint64_t session,
                                             const std::vector<Vector>& frames,
                                             McOptions opt) const {
    opt.pool = nullptr;
    SoftwareMaskSource masks(Rng{1000 + session});
    Rng arng(2000 + session);
    std::vector<McPrediction> preds;
    for (const Vector& x : frames)
      preds.push_back(mc_predict_cim(*cim_, x, opt, masks, arng));
    return preds;
  }

  Rng rng_;
  nn::Mlp net_;
  std::unique_ptr<nn::CimMlp> cim_;
};

TEST_P(ReuseParallelFixture, WindowBitIdenticalAcrossPoolsAndWindows) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const std::size_t window : {std::size_t{1}, std::size_t{3},
                                     std::size_t{16}}) {
      const std::vector<Vector> frames = make_frames(window);
      const McOptions opt = reuse_options(&pool);
      const auto ref = serial_reference(0, frames, opt);

      SoftwareMaskSource masks(Rng{1000});
      Rng arng(2000);
      std::vector<const Vector*> xs;
      for (const Vector& x : frames) xs.push_back(&x);
      const auto pooled = mc_predict_cim_window(*cim_, xs, opt, masks, arng);

      ASSERT_EQ(pooled.size(), ref.size());
      for (std::size_t f = 0; f < ref.size(); ++f)
        EXPECT_TRUE(same_pred(pooled[f], ref[f]))
            << "threads=" << threads << " window=" << window
            << " frame=" << f;
    }
  }
}

TEST_P(ReuseParallelFixture, JobsBitIdenticalAcrossSessionCounts) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const std::size_t window : {std::size_t{1}, std::size_t{3},
                                     std::size_t{16}}) {
      const std::vector<Vector> frames = make_frames(window);
      for (const std::size_t sessions : {std::size_t{1}, std::size_t{4},
                                         std::size_t{8}}) {
        const McOptions opt = reuse_options(nullptr);
        std::vector<std::vector<McPrediction>> refs;
        for (std::size_t s = 0; s < sessions; ++s)
          refs.push_back(serial_reference(s, frames, opt));

        std::vector<SoftwareMaskSource> masks;
        std::vector<Rng> arngs;
        masks.reserve(sessions);
        arngs.reserve(sessions);
        for (std::size_t s = 0; s < sessions; ++s) {
          masks.emplace_back(Rng{1000 + s});
          arngs.emplace_back(2000 + s);
        }
        std::vector<const Vector*> xs;
        for (const Vector& x : frames) xs.push_back(&x);
        std::vector<std::vector<McPrediction>> preds(
            sessions, std::vector<McPrediction>(window));
        std::vector<McWindowJob> jobs(sessions);
        for (std::size_t s = 0; s < sessions; ++s) {
          jobs[s].xs = xs.data();
          jobs[s].n_frames = window;
          jobs[s].options = opt;
          jobs[s].masks = &masks[s];
          jobs[s].analog_rng = &arngs[s];
          jobs[s].preds = preds[s].data();
        }
        const std::size_t batched =
            mc_predict_cim_jobs(*cim_, jobs.data(), jobs.size(), &pool);
        EXPECT_EQ(batched, sessions);

        for (std::size_t s = 0; s < sessions; ++s)
          for (std::size_t f = 0; f < window; ++f)
            EXPECT_TRUE(same_pred(preds[s][f], refs[s][f]))
                << "threads=" << threads << " window=" << window
                << " sessions=" << sessions << " session=" << s
                << " frame=" << f;
      }
    }
  }
}

TEST_P(ReuseParallelFixture, WorkloadAccountingMatchesSerialExactly) {
  // Per-frame MacroStats attribution on the pooled reuse path must sum
  // to the same counters as the serial loop and to the macros' own
  // lifetime-counter delta — exact, not amortized — under both chain
  // schedules (5 frames = 15 chains run per chain, 8 frames = 24 chains
  // run step-synchronously).
  ThreadPool pool(4);
  for (const std::size_t window : {std::size_t{5}, std::size_t{8}}) {
    const std::vector<Vector> frames = make_frames(window);
    McOptions opt = reuse_options(nullptr);

    McWorkload serial_wl;
    {
      SoftwareMaskSource masks(Rng{1000});
      Rng arng(2000);
      for (const Vector& x : frames)
        mc_predict_cim(*cim_, x, opt, masks, arng, &serial_wl);
    }

    opt.pool = &pool;
    SoftwareMaskSource masks(Rng{1000});
    Rng arng(2000);
    std::vector<const Vector*> xs;
    for (const Vector& x : frames) xs.push_back(&x);
    McWorkload pooled_wl;
    std::vector<McWorkload> per_frame;
    const cimsram::MacroStats before = cim_->total_stats();
    mc_predict_cim_window(*cim_, xs, opt, masks, arng, &pooled_wl, 0, {},
                          &per_frame);
    const cimsram::MacroStats counted = cim_->total_stats() - before;

    EXPECT_EQ(pooled_wl.macro.wordline_pulses,
              serial_wl.macro.wordline_pulses)
        << "window=" << window;
    EXPECT_EQ(pooled_wl.input_mask_flips, serial_wl.input_mask_flips);
    EXPECT_EQ(pooled_wl.mask_bits_drawn, serial_wl.mask_bits_drawn);
    EXPECT_EQ(pooled_wl.macro.matvec_calls, counted.matvec_calls)
        << "window=" << window;
    EXPECT_EQ(pooled_wl.macro.wordline_pulses, counted.wordline_pulses)
        << "window=" << window;
    EXPECT_EQ(pooled_wl.macro.adc_conversions, counted.adc_conversions)
        << "window=" << window;
    ASSERT_EQ(per_frame.size(), frames.size());
    std::uint64_t summed = 0;
    for (const McWorkload& wl : per_frame) summed += wl.macro.wordline_pulses;
    EXPECT_EQ(summed, pooled_wl.macro.wordline_pulses);
  }
}

TEST_P(ReuseParallelFixture, PooledReusePathIsAllocationFreeOnceWarm) {
  ThreadPool pool(4);
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kWindow = 3;
  const std::vector<Vector> frames = make_frames(kWindow);
  const McOptions opt = reuse_options(nullptr);

  std::vector<SoftwareMaskSource> masks;
  std::vector<Rng> arngs;
  masks.reserve(kSessions);
  arngs.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    masks.emplace_back(Rng{1000 + s});
    arngs.emplace_back(2000 + s);
  }
  std::vector<const Vector*> xs;
  for (const Vector& x : frames) xs.push_back(&x);
  std::vector<std::vector<McPrediction>> preds(
      kSessions, std::vector<McPrediction>(kWindow));
  std::vector<McWindowJob> jobs(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    jobs[s].xs = xs.data();
    jobs[s].n_frames = kWindow;
    jobs[s].options = opt;
    jobs[s].masks = &masks[s];
    jobs[s].analog_rng = &arngs[s];
    jobs[s].preds = preds[s].data();
  }
  const auto run = [&] {
    mc_predict_cim_jobs(*cim_, jobs.data(), jobs.size(), &pool);
  };
  for (int i = 0; i < 3; ++i) run();  // warm per-thread scratch + preds

  // Scratch is per worker thread and grow-only; which worker runs which
  // chunk varies run to run, so a cold worker may still fault its
  // thread_local buffers in early on. The contract is convergence: after
  // a bounded number of cycles an entire pooled dispatch must touch the
  // heap zero times.
  std::uint64_t allocs = ~0ull;
  for (int attempt = 0; attempt < 10 && allocs != 0; ++attempt) {
    g_heap_allocs.store(0, std::memory_order_relaxed);
    g_count_heap.store(true, std::memory_order_relaxed);
    run();
    g_count_heap.store(false, std::memory_order_relaxed);
    allocs = g_heap_allocs.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(allocs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReuseParallelFixture,
    ::testing::Values(NetShape{{4, 16, 8, 2}, false},
                      NetShape{{4, 16, 8, 2}, true},
                      NetShape{{4, 16, 2}, false},
                      NetShape{{80, 72, 3}, false}),
    [](const ::testing::TestParamInfo<NetShape>& info) {
      std::string name = info.param.dropout_on_input ? "input" : "hidden";
      for (const int width : info.param.layer_sizes) {
        name += '_';
        name += std::to_string(width);
      }
      return name;
    });

}  // namespace
}  // namespace cimnav::bnn
