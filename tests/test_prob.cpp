// Unit tests for the probability substrate: Gaussians, GMM/HMGM fitting,
// the HMG kernel's geometry (rectilinear tails).
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "prob/gaussian.hpp"
#include "prob/gmm.hpp"
#include "prob/hmg.hpp"
#include "prob/kmeans.hpp"
#include "prob/logspace.hpp"

namespace cimnav::prob {
namespace {

using core::Rng;
using core::Vec3;

TEST(LogSpace, LogSumExpBasics) {
  EXPECT_NEAR(log_sum_exp({0.0, 0.0}), std::log(2.0), 1e-12);
  EXPECT_NEAR(log_sum_exp({1.0}), 1.0, 1e-12);
  EXPECT_TRUE(std::isinf(log_sum_exp({})));
  // Stability: huge magnitudes must not overflow.
  EXPECT_NEAR(log_sum_exp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(log_sum_exp({-1000.0, -1000.0}), -1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSpace, LogAddCommutes) {
  EXPECT_NEAR(log_add(1.0, 3.0), log_add(3.0, 1.0), 1e-12);
  EXPECT_NEAR(log_add(0.0, 0.0), std::log(2.0), 1e-12);
}

TEST(LogSpace, NormalizeLogWeights) {
  const auto w = normalize_log_weights({0.0, std::log(3.0)});
  EXPECT_NEAR(w[0], 0.25, 1e-12);
  EXPECT_NEAR(w[1], 0.75, 1e-12);
  // All -inf falls back to uniform.
  const double ninf = -std::numeric_limits<double>::infinity();
  const auto u = normalize_log_weights({ninf, ninf});
  EXPECT_NEAR(u[0], 0.5, 1e-12);
}

TEST(DiagGaussian, PdfIntegratesToOneOnGrid) {
  const DiagGaussian g({0, 0, 0}, {1, 0.5, 2});
  double integral = 0.0;
  const double h = 0.25;
  for (double x = -6; x <= 6; x += h)
    for (double y = -3; y <= 3; y += h)
      for (double z = -12; z <= 12; z += h)
        integral += g.pdf({x, y, z}) * h * h * h;
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(DiagGaussian, LogPdfConsistent) {
  const DiagGaussian g({1, 2, 3}, {0.5, 1.5, 2.5});
  const Vec3 p{0.3, 2.2, 4.0};
  EXPECT_NEAR(std::exp(g.log_pdf(p)), g.pdf(p), 1e-15);
}

TEST(DiagGaussian, SampleMomentsMatch) {
  const DiagGaussian g({1, -2, 0.5}, {0.5, 2.0, 1.0});
  Rng rng(5);
  core::RunningStats sx, sy, sz;
  for (int i = 0; i < 30000; ++i) {
    const Vec3 s = g.sample(rng);
    sx.add(s.x);
    sy.add(s.y);
    sz.add(s.z);
  }
  EXPECT_NEAR(sx.mean(), 1.0, 0.02);
  EXPECT_NEAR(sy.mean(), -2.0, 0.05);
  EXPECT_NEAR(sx.stddev(), 0.5, 0.02);
  EXPECT_NEAR(sy.stddev(), 2.0, 0.05);
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  Rng rng(7);
  std::vector<Vec3> pts;
  const std::vector<Vec3> centers{{0, 0, 0}, {10, 0, 0}, {0, 10, 0}};
  for (const auto& c : centers)
    for (int i = 0; i < 50; ++i)
      pts.push_back(c + Vec3{rng.normal(0, 0.3), rng.normal(0, 0.3),
                             rng.normal(0, 0.3)});
  const auto res = kmeans(pts, 3, rng);
  // Every true center must be within 0.5 of some centroid.
  for (const auto& c : centers) {
    double best = 1e9;
    for (const auto& k : res.centroids)
      best = std::min(best, (k - c).norm());
    EXPECT_LT(best, 0.5);
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(11);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 2)});
  Rng r1(13), r2(13);
  const double i2 = kmeans(pts, 2, r1).inertia;
  const double i8 = kmeans(pts, 8, r2).inertia;
  EXPECT_LT(i8, i2);
}

TEST(Gmm, NormalizesWeights) {
  const Gmm g({{2.0, DiagGaussian({0, 0, 0}, {1, 1, 1})},
               {6.0, DiagGaussian({5, 0, 0}, {1, 1, 1})}});
  EXPECT_NEAR(g.components()[0].weight, 0.25, 1e-12);
  EXPECT_NEAR(g.components()[1].weight, 0.75, 1e-12);
}

TEST(Gmm, PdfIsMixture) {
  const DiagGaussian a({0, 0, 0}, {1, 1, 1});
  const DiagGaussian b({4, 0, 0}, {1, 1, 1});
  const Gmm g({{0.3, a}, {0.7, b}});
  const Vec3 p{1.0, 0.5, -0.5};
  EXPECT_NEAR(g.pdf(p), 0.3 * a.pdf(p) + 0.7 * b.pdf(p), 1e-15);
}

TEST(Gmm, FitRecoversTwoClusters) {
  Rng rng(17);
  std::vector<Vec3> pts;
  for (int i = 0; i < 400; ++i)
    pts.push_back({rng.normal(0, 0.5), rng.normal(0, 0.5), rng.normal(0, 0.5)});
  for (int i = 0; i < 400; ++i)
    pts.push_back({rng.normal(6, 0.8), rng.normal(0, 0.8), rng.normal(0, 0.8)});
  const Gmm g = Gmm::fit(pts, 2, rng);
  // One component near 0, one near x=6, weights near 0.5.
  std::vector<double> cx{g.components()[0].gaussian.mean().x,
                         g.components()[1].gaussian.mean().x};
  std::sort(cx.begin(), cx.end());
  EXPECT_NEAR(cx[0], 0.0, 0.3);
  EXPECT_NEAR(cx[1], 6.0, 0.3);
  EXPECT_NEAR(g.components()[0].weight, 0.5, 0.06);
}

TEST(Gmm, FitImprovesAverageLogLikelihood) {
  Rng rng(19);
  std::vector<Vec3> pts;
  for (int i = 0; i < 300; ++i)
    pts.push_back({rng.normal(0, 1) + (i % 2) * 5.0, rng.normal(0, 1),
                   rng.normal(0, 1)});
  Rng r1(23), r2(23);
  const Gmm g1 = Gmm::fit(pts, 1, r1);
  const Gmm g4 = Gmm::fit(pts, 4, r2);
  EXPECT_GT(g4.average_log_likelihood(pts), g1.average_log_likelihood(pts));
}

TEST(HmgKernel, PeakValueIsOneThird) {
  const Vec3 mu{0.2, 0.4, 0.6};
  const Vec3 sg{0.1, 0.2, 0.3};
  EXPECT_NEAR(hmg_kernel(mu, mu, sg), 1.0 / 3.0, 1e-12);
}

TEST(HmgKernel, SymmetricPerAxis) {
  const Vec3 mu{0, 0, 0}, sg{1, 1, 1};
  EXPECT_NEAR(hmg_kernel({0.7, 0, 0}, mu, sg), hmg_kernel({-0.7, 0, 0}, mu, sg),
              1e-12);
}

TEST(HmgKernel, LogKernelStableFarOut) {
  const Vec3 mu{0, 0, 0}, sg{1, 1, 1};
  const double lk = hmg_log_kernel({50, 50, 50}, mu, sg);
  EXPECT_TRUE(std::isfinite(lk));
  EXPECT_LT(lk, -1000.0);
}

TEST(HmgKernel, RectilinearTails) {
  // The paper's Fig. 2(c,d) geometry: far out, the HMG level set follows
  // max_d |u_d| (a box), so the diagonal point (r/sqrt2, r/sqrt2) has a
  // much *higher* kernel value than the axis point (r, 0) — its largest
  // per-axis deviation is smaller. A product Gaussian keeps them equal.
  const Vec3 mu{0, 0, 0}, sg{1, 1, 1};
  const double r = 4.0;
  const double axis = hmg_log_kernel({r, 0, 0}, mu, sg);
  const double diag = hmg_log_kernel({r / std::sqrt(2.0), r / std::sqrt(2.0), 0},
                                     mu, sg);
  EXPECT_GT(diag, axis + 2.0);
  // Gaussian comparison: equal radius -> equal log pdf.
  const DiagGaussian g(mu, sg);
  EXPECT_NEAR(g.log_pdf({r, 0, 0}),
              g.log_pdf({r / std::sqrt(2.0), r / std::sqrt(2.0), 0}), 1e-9);
}

TEST(HmgKernel, UnitConstantsStable) {
  // Quadrature constants used in normalization and the M-step.
  EXPECT_NEAR(hmg_unit_normalization(), 16.245, 0.05);
  EXPECT_NEAR(hmg_axis_second_moment(), 1.921, 0.01);
}

TEST(Hmgm, NormalizedDensityIntegratesToOne) {
  const Hmgm h({{1.0, {0, 0, 0}, {1.0, 0.8, 1.2}}});
  double integral = 0.0;
  const double step = 0.3;
  for (double x = -8; x <= 8; x += step)
    for (double y = -7; y <= 7; y += step)
      for (double z = -9; z <= 9; z += step)
        integral += h.pdf({x, y, z}) * step * step * step;
  EXPECT_NEAR(integral, 1.0, 0.03);
}

TEST(Hmgm, IntensityMatchesUnnormalizedSum) {
  const Hmgm h({{0.6, {0, 0, 0}, {1, 1, 1}}, {0.4, {3, 0, 0}, {1, 1, 1}}});
  const Vec3 p{1.0, 0.2, -0.3};
  const double expected = 0.6 * 3.0 * hmg_kernel(p, {0, 0, 0}, {1, 1, 1}) +
                          0.4 * 3.0 * hmg_kernel(p, {3, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(h.intensity(p), expected, 1e-12);
}

TEST(Hmgm, HardwareColumnWeightsFavorNarrowComponents) {
  const Hmgm h({{0.5, {0, 0, 0}, {1, 1, 1}}, {0.5, {3, 0, 0}, {0.5, 0.5, 0.5}}});
  const auto w = h.hardware_column_weights();
  // Same mixture weight but 8x smaller volume -> 8x the column share.
  EXPECT_NEAR(w[1] / w[0], 8.0, 1e-9);
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
}

TEST(Hmgm, SamplesFollowDensityMoments) {
  const Hmgm h({{1.0, {2, -1, 0.5}, {0.8, 0.6, 1.0}}});
  Rng rng(29);
  core::RunningStats sx, sy;
  for (int i = 0; i < 20000; ++i) {
    const Vec3 s = h.sample(rng);
    sx.add(s.x);
    sy.add(s.y);
  }
  EXPECT_NEAR(sx.mean(), 2.0, 0.05);
  EXPECT_NEAR(sy.mean(), -1.0, 0.05);
  // Axis stddev of the kernel = sigma * sqrt(m2).
  const double m2 = hmg_axis_second_moment();
  EXPECT_NEAR(sx.stddev(), 0.8 * std::sqrt(m2), 0.05);
}

TEST(Hmgm, FitRecoversClusterCenters) {
  Rng rng(31);
  std::vector<Vec3> pts;
  for (int i = 0; i < 500; ++i)
    pts.push_back({rng.normal(0, 0.4), rng.normal(0, 0.4), rng.normal(0, 0.4)});
  for (int i = 0; i < 500; ++i)
    pts.push_back({rng.normal(5, 0.6), rng.normal(5, 0.6), rng.normal(0, 0.6)});
  const Hmgm h = Hmgm::fit(pts, 2, rng);
  std::vector<double> cx{h.components()[0].mean.x, h.components()[1].mean.x};
  std::sort(cx.begin(), cx.end());
  EXPECT_NEAR(cx[0], 0.0, 0.3);
  EXPECT_NEAR(cx[1], 5.0, 0.3);
}

TEST(Hmgm, FitQualityApproachesGmm) {
  // The paper's Sec. II-B claim: HMGM maps match GMM maps. Compare average
  // log-likelihood on held-out points from the same distribution.
  Rng rng(37);
  std::vector<Vec3> train, test;
  auto sample_scene = [&](std::vector<Vec3>& out, int n) {
    for (int i = 0; i < n; ++i) {
      const int c = i % 3;
      const Vec3 centers[3] = {{0, 0, 0}, {4, 1, 0}, {2, 5, 1}};
      out.push_back(centers[c] + Vec3{rng.normal(0, 0.5), rng.normal(0, 0.7),
                                      rng.normal(0, 0.4)});
    }
  };
  sample_scene(train, 900);
  sample_scene(test, 300);
  Rng r1(41), r2(41);
  const Gmm g = Gmm::fit(train, 6, r1);
  const Hmgm h = Hmgm::fit(train, 6, r2);
  const double gll = g.average_log_likelihood(test);
  const double hll = h.average_log_likelihood(test);
  // Within one nat of the GMM reference.
  EXPECT_GT(hll, gll - 1.0);
}

TEST(Hmgm, SigmaConstraintsAreRespected) {
  Rng rng(43);
  std::vector<Vec3> pts;
  for (int i = 0; i < 300; ++i)
    pts.push_back({rng.normal(0, 0.02), rng.normal(0, 3.0), rng.normal(0, 0.02)});
  MixtureFitOptions opt;
  opt.sigma_floor_axes = {0.1, 0.1, 0.1};
  opt.sigma_ceiling_axes = {1.0, 1.0, 1.0};
  const Hmgm h = Hmgm::fit(pts, 2, rng, opt);
  for (const auto& c : h.components()) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(c.sigma[d], 0.1 - 1e-9);
      EXPECT_LE(c.sigma[d], 1.0 + 1e-9);
    }
  }
}

}  // namespace
}  // namespace cimnav::prob
