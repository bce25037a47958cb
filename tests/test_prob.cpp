// Unit tests for the probability substrate: Gaussians, GMM/HMGM fitting,
// the HMG kernel's geometry (rectilinear tails).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

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

// ------------------------------------------------------- EM fit oracles
// Serial references of both EM fits as first written: every (point,
// component) pair of the E-step rebuilds its HMG log normalizer or its
// DiagGaussian, and the HMG kernel reduces through a heap vector. The
// library hoists that per-component work out of the point loop; the fitted
// components must not move by a bit.

double reference_hmg_log_kernel(const Vec3& p, const Vec3& mu,
                                const Vec3& sigma) {
  std::vector<double> e(3);
  for (int d = 0; d < 3; ++d) {
    const double ud = (p[d] - mu[d]) / sigma[d];
    e[static_cast<std::size_t>(d)] = 0.5 * ud * ud;
  }
  return -log_sum_exp(e);
}

// k-means init shared by both references: weights, means and per-cluster
// axis sums of squares.
struct ReferenceInit {
  std::vector<double> weight;
  std::vector<Vec3> mean;
  std::vector<Vec3> ss;
  std::vector<int> counts;
};

ReferenceInit reference_init(const std::vector<Vec3>& points, int k,
                             Rng& rng, const MixtureFitOptions& opt) {
  const KMeansResult km = kmeans(points, k, rng, opt.kmeans_iterations);
  const auto kk = static_cast<std::size_t>(k);
  ReferenceInit init{std::vector<double>(kk, 0.0), km.centroids,
                     std::vector<Vec3>(kk), std::vector<int>(kk, 0)};
  for (std::size_t i = 0; i < points.size(); ++i)
    ++init.counts[static_cast<std::size_t>(km.assignment[i])];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto c = static_cast<std::size_t>(km.assignment[i]);
    const Vec3 d = points[i] - km.centroids[c];
    init.ss[c] += d.cwise_mul(d);
  }
  for (std::size_t c = 0; c < kk; ++c)
    init.weight[c] = std::max(1, init.counts[c]) /
                     static_cast<double>(points.size());
  return init;
}

// One EM fit: `log_term(c, i)` is component c's log joint at point i and
// `sigma_of(var_over_nk, axis)` maps a responsibility-weighted variance to
// the component sigma. The M-step and stopping rule are the library's.
template <typename LogTerm, typename SigmaOf>
void reference_em(const std::vector<Vec3>& points, std::vector<double>& weight,
                  std::vector<Vec3>& mean, std::vector<Vec3>& sigma,
                  const MixtureFitOptions& opt, bool abs_tolerance,
                  const LogTerm& log_term, const SigmaOf& sigma_of) {
  const std::size_t n = points.size();
  const std::size_t kk = weight.size();
  std::vector<std::vector<double>> resp(n, std::vector<double>(kk, 0.0));
  double prev_avg_ll = -std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    double total_ll = 0.0;
    std::vector<double> logterm(kk);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < kk; ++c) logterm[c] = log_term(c, i);
      const double lse = log_sum_exp(logterm);
      total_ll += lse;
      for (std::size_t c = 0; c < kk; ++c)
        resp[i][c] = std::exp(logterm[c] - lse);
    }
    const double avg_ll = total_ll / static_cast<double>(n);
    for (std::size_t c = 0; c < kk; ++c) {
      double nk = 0.0;
      Vec3 mu{};
      for (std::size_t i = 0; i < n; ++i) {
        nk += resp[i][c];
        mu += points[i] * resp[i][c];
      }
      if (nk < 1e-9) continue;
      mu = mu / nk;
      Vec3 var{};
      for (std::size_t i = 0; i < n; ++i) {
        const Vec3 d = points[i] - mu;
        var += d.cwise_mul(d) * resp[i][c];
      }
      weight[c] = nk / static_cast<double>(n);
      mean[c] = mu;
      for (int d = 0; d < 3; ++d) sigma[c][d] = sigma_of(var[d] / nk, d);
    }
    const double gain = avg_ll - prev_avg_ll;
    if ((abs_tolerance ? std::abs(gain) : gain) < opt.tolerance && iter > 0)
      break;
    prev_avg_ll = avg_ll;
  }
}

Hmgm reference_hmgm_fit(const std::vector<Vec3>& points, int k, Rng& rng,
                        const MixtureFitOptions& opt) {
  ReferenceInit init = reference_init(points, k, rng, opt);
  const auto kk = static_cast<std::size_t>(k);
  const double c2 = hmg_axis_second_moment();
  const double log_zu = std::log(hmg_unit_normalization());
  const auto clamp_sigma = [&opt](double s, int axis) {
    return core::clamp(s, std::max(opt.sigma_floor, opt.sigma_floor_axes[axis]),
                       opt.sigma_ceiling_axes[axis]);
  };
  std::vector<Vec3> sigma(kk, {1, 1, 1});
  for (std::size_t c = 0; c < kk; ++c) {
    const double cnt = std::max(1, init.counts[c]);
    for (int d = 0; d < 3; ++d)
      sigma[c][d] = clamp_sigma(std::sqrt(init.ss[c][d] / cnt / c2), d);
  }
  std::vector<double>& weight = init.weight;
  std::vector<Vec3>& mean = init.mean;
  reference_em(
      points, weight, mean, sigma, opt, /*abs_tolerance=*/true,
      [&](std::size_t c, std::size_t i) {
        const double log_norm = -(log_zu + std::log(sigma[c].x) +
                                  std::log(sigma[c].y) + std::log(sigma[c].z));
        return std::log(std::max(weight[c], 1e-300)) + log_norm +
               reference_hmg_log_kernel(points[i], mean[c], sigma[c]);
      },
      [&](double v, int d) { return clamp_sigma(std::sqrt(v / c2), d); });
  std::vector<HmgComponent> comps;
  for (std::size_t c = 0; c < kk; ++c)
    comps.push_back({weight[c], mean[c], sigma[c]});
  return Hmgm(std::move(comps));
}

Gmm reference_gmm_fit(const std::vector<Vec3>& points, int k, Rng& rng,
                      const MixtureFitOptions& opt) {
  ReferenceInit init = reference_init(points, k, rng, opt);
  const auto kk = static_cast<std::size_t>(k);
  std::vector<Vec3> sigma(kk, {1, 1, 1});
  for (std::size_t c = 0; c < kk; ++c) {
    const double cnt = std::max(1, init.counts[c]);
    for (int d = 0; d < 3; ++d)
      sigma[c][d] = std::max(opt.sigma_floor, std::sqrt(init.ss[c][d] / cnt));
  }
  std::vector<double>& weight = init.weight;
  std::vector<Vec3>& mean = init.mean;
  reference_em(
      points, weight, mean, sigma, opt, /*abs_tolerance=*/false,
      [&](std::size_t c, std::size_t i) {
        const DiagGaussian g(mean[c], sigma[c]);
        return std::log(std::max(weight[c], 1e-300)) + g.log_pdf(points[i]);
      },
      [&](double v, int) { return std::max(opt.sigma_floor, std::sqrt(v)); });
  std::vector<GmmComponent> comps;
  for (std::size_t c = 0; c < kk; ++c)
    comps.push_back({weight[c], DiagGaussian(mean[c], sigma[c])});
  return Gmm(std::move(comps));
}

// Two clouds: anisotropic blobs around a flat (z == 0) sheet, and a long
// thin rod beside a wide diffuse blob. The sheet drives the GMM's sigma
// floor; the HMGM bounds below bite at both ends.
std::vector<std::vector<Vec3>> em_oracle_clouds() {
  Rng rng(71);
  std::vector<Vec3> blobs;
  for (int i = 0; i < 400; ++i)
    blobs.push_back({rng.normal(0, 0.3), rng.normal(0, 0.8), rng.normal(0, 0.1)});
  for (int i = 0; i < 300; ++i)
    blobs.push_back({rng.normal(3, 0.5), rng.normal(1, 0.2), rng.normal(1, 0.4)});
  for (int i = 0; i < 200; ++i)
    blobs.push_back({rng.uniform(-1.0, 4.0), rng.uniform(4.0, 6.0), 0.0});
  std::vector<Vec3> rod;
  for (int i = 0; i < 500; ++i)
    rod.push_back({rng.uniform(-5.0, 5.0), rng.normal(0, 0.01), rng.normal(0, 0.01)});
  for (int i = 0; i < 400; ++i)
    rod.push_back({rng.normal(0, 2.0), rng.normal(4, 2.0), rng.normal(0, 2.0)});
  return {blobs, rod};
}

TEST(EmOracle, HmgmFitMatchesPerPairReferenceBitForBit) {
  MixtureFitOptions opt;
  opt.sigma_floor_axes = {0.05, 0.04, 0.03};
  opt.sigma_ceiling_axes = {0.9, 0.7, 0.6};
  int at_floor = 0, at_ceiling = 0;
  for (const auto& cloud : em_oracle_clouds()) {
    for (int k : {1, 5, 9}) {
      Rng rng_fit(101 + static_cast<std::uint64_t>(k)), rng_ref = rng_fit;
      const Hmgm fit = Hmgm::fit(cloud, k, rng_fit, opt);
      const Hmgm ref = reference_hmgm_fit(cloud, k, rng_ref, opt);
      ASSERT_EQ(fit.component_count(), ref.component_count());
      for (int c = 0; c < k; ++c) {
        const auto& a = fit.components()[static_cast<std::size_t>(c)];
        const auto& b = ref.components()[static_cast<std::size_t>(c)];
        EXPECT_EQ(a.weight, b.weight) << "k=" << k << " c=" << c;
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(a.mean[d], b.mean[d]) << "k=" << k << " c=" << c;
          EXPECT_EQ(a.sigma[d], b.sigma[d]) << "k=" << k << " c=" << c;
          at_floor += a.sigma[d] == opt.sigma_floor_axes[d];
          at_ceiling += a.sigma[d] == opt.sigma_ceiling_axes[d];
        }
      }
      const Vec3 probe = cloud[cloud.size() / 3];
      EXPECT_EQ(fit.log_pdf(probe), ref.log_pdf(probe)) << "k=" << k;
    }
  }
  EXPECT_GT(at_floor, 0) << "no sigma hit its floor";
  EXPECT_GT(at_ceiling, 0) << "no sigma hit its ceiling";
}

TEST(EmOracle, GmmFitMatchesPerPairReferenceBitForBit) {
  const MixtureFitOptions opt;
  int at_floor = 0;
  for (const auto& cloud : em_oracle_clouds()) {
    for (int k : {1, 5, 9}) {
      Rng rng_fit(201 + static_cast<std::uint64_t>(k)), rng_ref = rng_fit;
      const Gmm fit = Gmm::fit(cloud, k, rng_fit, opt);
      const Gmm ref = reference_gmm_fit(cloud, k, rng_ref, opt);
      ASSERT_EQ(fit.component_count(), ref.component_count());
      for (int c = 0; c < k; ++c) {
        const auto& a = fit.components()[static_cast<std::size_t>(c)];
        const auto& b = ref.components()[static_cast<std::size_t>(c)];
        EXPECT_EQ(a.weight, b.weight) << "k=" << k << " c=" << c;
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(a.gaussian.mean()[d], b.gaussian.mean()[d])
              << "k=" << k << " c=" << c;
          EXPECT_EQ(a.gaussian.sigma()[d], b.gaussian.sigma()[d])
              << "k=" << k << " c=" << c;
          at_floor += a.gaussian.sigma()[d] == opt.sigma_floor;
        }
      }
      const Vec3 probe = cloud[cloud.size() / 3];
      EXPECT_EQ(fit.log_pdf(probe), ref.log_pdf(probe)) << "k=" << k;
    }
  }
  EXPECT_GT(at_floor, 0) << "no sigma hit the variance-collapse floor";
}

}  // namespace
}  // namespace cimnav::prob
