#include "prob/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "prob/kmeans.hpp"
#include "prob/logspace.hpp"

namespace cimnav::prob {

Gmm::Gmm(std::vector<GmmComponent> components)
    : components_(std::move(components)) {
  CIMNAV_REQUIRE(!components_.empty(), "GMM needs at least one component");
  double total = 0.0;
  for (const auto& c : components_) {
    CIMNAV_REQUIRE(c.weight >= 0.0, "weights must be non-negative");
    total += c.weight;
  }
  CIMNAV_REQUIRE(total > 0.0, "total weight must be positive");
  for (auto& c : components_) c.weight /= total;
}

double Gmm::log_pdf(const core::Vec3& p) const {
  // Grow-only per-thread scratch: once warm, per-pixel likelihood loops
  // (filter::GmmLikelihood) stay off the heap.
  thread_local std::vector<double> terms;
  terms.clear();
  for (const auto& c : components_) {
    if (c.weight <= 0.0) continue;
    terms.push_back(std::log(c.weight) + c.gaussian.log_pdf(p));
  }
  return log_sum_exp(terms);
}

double Gmm::pdf(const core::Vec3& p) const { return std::exp(log_pdf(p)); }

double Gmm::average_log_likelihood(
    const std::vector<core::Vec3>& points) const {
  CIMNAV_REQUIRE(!points.empty(), "need at least one point");
  double s = 0.0;
  for (const auto& p : points) s += log_pdf(p);
  return s / static_cast<double>(points.size());
}

core::Vec3 Gmm::sample(core::Rng& rng) const {
  std::vector<double> w;
  w.reserve(components_.size());
  for (const auto& c : components_) w.push_back(c.weight);
  return components_[rng.categorical(w)].gaussian.sample(rng);
}

Gmm Gmm::fit(const std::vector<core::Vec3>& points, int k, core::Rng& rng,
             const MixtureFitOptions& opt) {
  CIMNAV_REQUIRE(k >= 1, "k must be positive");
  CIMNAV_REQUIRE(points.size() >= static_cast<std::size_t>(k),
                 "need at least k points");

  // Initialize from k-means clusters.
  const KMeansResult km = kmeans(points, k, rng, opt.kmeans_iterations);
  const std::size_t n = points.size();
  const auto kk = static_cast<std::size_t>(k);

  std::vector<double> weight(kk, 0.0);
  std::vector<core::Vec3> mean(kk);
  std::vector<core::Vec3> sigma(kk, {1, 1, 1});
  {
    std::vector<int> counts(kk, 0);
    for (std::size_t i = 0; i < n; ++i)
      ++counts[static_cast<std::size_t>(km.assignment[i])];
    for (std::size_t c = 0; c < kk; ++c) {
      weight[c] = std::max(1, counts[c]) / static_cast<double>(n);
      mean[c] = km.centroids[c];
    }
    // Per-cluster axis-wise std deviations.
    std::vector<core::Vec3> ss(kk);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(km.assignment[i]);
      const core::Vec3 d = points[i] - mean[c];
      ss[c] += d.cwise_mul(d);
    }
    for (std::size_t c = 0; c < kk; ++c) {
      const double cnt = std::max(1, counts[c]);
      for (int d = 0; d < 3; ++d)
        sigma[c][d] = std::max(opt.sigma_floor, std::sqrt(ss[c][d] / cnt));
    }
  }

  std::vector<std::vector<double>> resp(n, std::vector<double>(kk, 0.0));
  double prev_avg_ll = -std::numeric_limits<double>::infinity();

  std::vector<DiagGaussian> gauss(kk);
  std::vector<double> log_w(kk), logterm(kk);
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    // E-step. Each component's Gaussian and log weight are fixed within
    // the step, so they are built once per iteration, not per point.
    for (std::size_t c = 0; c < kk; ++c) {
      gauss[c] = DiagGaussian(mean[c], sigma[c]);
      log_w[c] = std::log(std::max(weight[c], 1e-300));
    }
    double total_ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < kk; ++c)
        logterm[c] = log_w[c] + gauss[c].log_pdf(points[i]);
      const double lse = log_sum_exp(logterm);
      total_ll += lse;
      for (std::size_t c = 0; c < kk; ++c)
        resp[i][c] = std::exp(logterm[c] - lse);
    }
    const double avg_ll = total_ll / static_cast<double>(n);

    // M-step.
    for (std::size_t c = 0; c < kk; ++c) {
      double nk = 0.0;
      core::Vec3 mu{};
      for (std::size_t i = 0; i < n; ++i) {
        nk += resp[i][c];
        mu += points[i] * resp[i][c];
      }
      if (nk < 1e-9) continue;  // dead component; keep previous parameters
      mu = mu / nk;
      core::Vec3 var{};
      for (std::size_t i = 0; i < n; ++i) {
        const core::Vec3 d = points[i] - mu;
        var += d.cwise_mul(d) * resp[i][c];
      }
      weight[c] = nk / static_cast<double>(n);
      mean[c] = mu;
      for (int d = 0; d < 3; ++d)
        sigma[c][d] = std::max(opt.sigma_floor, std::sqrt(var[d] / nk));
    }

    if (avg_ll - prev_avg_ll < opt.tolerance && iter > 0) break;
    prev_avg_ll = avg_ll;
  }

  std::vector<GmmComponent> comps;
  comps.reserve(kk);
  for (std::size_t c = 0; c < kk; ++c)
    comps.push_back({weight[c], DiagGaussian(mean[c], sigma[c])});
  return Gmm(std::move(comps));
}

}  // namespace cimnav::prob
