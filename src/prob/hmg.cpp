#include "prob/hmg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "prob/gmm.hpp"
#include "prob/kmeans.hpp"
#include "prob/logspace.hpp"

namespace cimnav::prob {
namespace {

/// Quadrature over [-L, L]^3 of f(u) against the unit HMG kernel.
/// The kernel decays at least like exp(-max_d u_d^2 / 2), so L = 7 captures
/// the mass to ~1e-10 relative accuracy at h = 0.1.
struct UnitKernelMoments {
  double z = 0.0;    // integral of K
  double m2 = 0.0;   // integral of u_x^2 K / z
};

UnitKernelMoments compute_unit_moments() {
  constexpr double kL = 7.0;
  constexpr int kN = 141;  // grid points per axis (step 0.1)
  const double h = 2.0 * kL / (kN - 1);
  std::vector<double> g(kN), u(kN);
  for (int i = 0; i < kN; ++i) {
    u[static_cast<std::size_t>(i)] = -kL + h * i;
    g[static_cast<std::size_t>(i)] =
        std::exp(0.5 * u[static_cast<std::size_t>(i)] * u[static_cast<std::size_t>(i)]);  // 1/g_d
  }
  double z = 0.0, m2 = 0.0;
  for (int ix = 0; ix < kN; ++ix) {
    for (int iy = 0; iy < kN; ++iy) {
      const double gxy = g[static_cast<std::size_t>(ix)] + g[static_cast<std::size_t>(iy)];
      for (int iz = 0; iz < kN; ++iz) {
        const double k = 1.0 / (gxy + g[static_cast<std::size_t>(iz)]);
        z += k;
        m2 += u[static_cast<std::size_t>(ix)] * u[static_cast<std::size_t>(ix)] * k;
      }
    }
  }
  const double cell = h * h * h;
  UnitKernelMoments m;
  m.z = z * cell;
  m.m2 = (m2 * cell) / m.z;
  return m;
}

const UnitKernelMoments& unit_moments() {
  static const UnitKernelMoments m = compute_unit_moments();
  return m;
}

}  // namespace

double hmg_log_kernel(const core::Vec3& p, const core::Vec3& mu,
                      const core::Vec3& sigma) {
  CIMNAV_REQUIRE(sigma.x > 0.0 && sigma.y > 0.0 && sigma.z > 0.0,
                 "HMG sigmas must be positive");
  // log K = -logsumexp(u_d^2 / 2), reduced on the stack exactly as
  // log_sum_exp does: first maximum m, the same non-finite early return,
  // then exp(e_d - m) summed in axis order. The maximum's own term is
  // exp(0) == 1 exactly, so it is added without the call.
  std::array<double, 3> e{};
  for (int d = 0; d < 3; ++d) {
    const double ud = (p[d] - mu[d]) / sigma[d];
    e[static_cast<std::size_t>(d)] = 0.5 * ud * ud;
  }
  const auto top = std::max_element(e.begin(), e.end());
  const double m = *top;
  if (!std::isfinite(m)) return -m;
  double s = 0.0;
  for (auto it = e.begin(); it != e.end(); ++it)
    s += it == top ? 1.0 : std::exp(*it - m);
  return -(m + std::log(s));
}

double hmg_kernel(const core::Vec3& p, const core::Vec3& mu,
                  const core::Vec3& sigma) {
  return std::exp(hmg_log_kernel(p, mu, sigma));
}

double hmg_unit_normalization() { return unit_moments().z; }

double hmg_axis_second_moment() { return unit_moments().m2; }

Hmgm::Hmgm(std::vector<HmgComponent> components)
    : components_(std::move(components)) {
  CIMNAV_REQUIRE(!components_.empty(), "HMGM needs at least one component");
  double total = 0.0;
  for (const auto& c : components_) {
    CIMNAV_REQUIRE(c.weight >= 0.0, "weights must be non-negative");
    CIMNAV_REQUIRE(c.sigma.x > 0.0 && c.sigma.y > 0.0 && c.sigma.z > 0.0,
                   "sigmas must be positive");
    total += c.weight;
  }
  CIMNAV_REQUIRE(total > 0.0, "total weight must be positive");
  const double log_zu = std::log(hmg_unit_normalization());
  log_coef_.reserve(components_.size());
  for (auto& c : components_) {
    c.weight /= total;
    const double log_norm = -(log_zu + std::log(c.sigma.x) +
                              std::log(c.sigma.y) + std::log(c.sigma.z));
    log_coef_.push_back(std::log(c.weight) + log_norm);
  }
}

double Hmgm::log_pdf(const core::Vec3& p) const {
  // Grow-only per-thread scratch: once warm, per-pixel likelihood loops
  // (filter::HmgmLikelihood) stay off the heap.
  thread_local std::vector<double> terms;
  terms.clear();
  for (std::size_t k = 0; k < components_.size(); ++k) {
    const auto& c = components_[k];
    if (c.weight <= 0.0) continue;
    terms.push_back(log_coef_[k] + hmg_log_kernel(p, c.mean, c.sigma));
  }
  return log_sum_exp(terms);
}

double Hmgm::pdf(const core::Vec3& p) const { return std::exp(log_pdf(p)); }

double Hmgm::intensity(const core::Vec3& p) const {
  double s = 0.0;
  for (const auto& c : components_)
    s += c.weight * 3.0 * hmg_kernel(p, c.mean, c.sigma);
  return s;
}

double Hmgm::average_log_likelihood(
    const std::vector<core::Vec3>& points) const {
  CIMNAV_REQUIRE(!points.empty(), "need at least one point");
  double s = 0.0;
  for (const auto& p : points) s += log_pdf(p);
  return s / static_cast<double>(points.size());
}

std::vector<double> Hmgm::hardware_column_weights() const {
  std::vector<double> w;
  w.reserve(components_.size());
  double total = 0.0;
  for (const auto& c : components_) {
    const double v = c.weight / (c.sigma.x * c.sigma.y * c.sigma.z);
    w.push_back(v);
    total += v;
  }
  for (auto& v : w) v /= total;
  return w;
}

core::Vec3 Hmgm::sample(core::Rng& rng) const {
  std::vector<double> w;
  w.reserve(components_.size());
  for (const auto& c : components_) w.push_back(c.weight);
  const auto& c = components_[rng.categorical(w)];
  // Rejection sampling in unit coordinates: K(u) <= 3 exp(-|u|^2/6), the
  // envelope is N(0, sqrt(3) I) up to constants.
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const core::Vec3 u{rng.normal(0.0, std::sqrt(3.0)),
                       rng.normal(0.0, std::sqrt(3.0)),
                       rng.normal(0.0, std::sqrt(3.0))};
    const double k = std::exp(hmg_log_kernel(u, {0, 0, 0}, {1, 1, 1}));
    const double envelope = std::exp(-u.squared_norm() / 6.0);
    if (rng.uniform() * 3.0 * envelope <= 3.0 * k) {
      return {c.mean.x + c.sigma.x * u.x, c.mean.y + c.sigma.y * u.y,
              c.mean.z + c.sigma.z * u.z};
    }
  }
  return c.mean;  // unreachable in practice
}

Hmgm Hmgm::fit(const std::vector<core::Vec3>& points, int k, core::Rng& rng) {
  return fit(points, k, rng, MixtureFitOptions{});
}

Hmgm Hmgm::fit(const std::vector<core::Vec3>& points, int k, core::Rng& rng,
               const MixtureFitOptions& opt) {
  CIMNAV_REQUIRE(k >= 1, "k must be positive");
  CIMNAV_REQUIRE(points.size() >= static_cast<std::size_t>(k),
                 "need at least k points");

  const KMeansResult km = kmeans(points, k, rng, opt.kmeans_iterations);
  const std::size_t n = points.size();
  const auto kk = static_cast<std::size_t>(k);
  const double c2 = hmg_axis_second_moment();
  const double log_zu = std::log(hmg_unit_normalization());
  const auto clamp_sigma = [&opt](double s, int axis) {
    return core::clamp(s, std::max(opt.sigma_floor, opt.sigma_floor_axes[axis]),
                       opt.sigma_ceiling_axes[axis]);
  };

  std::vector<double> weight(kk, 0.0);
  std::vector<core::Vec3> mean(kk);
  std::vector<core::Vec3> sigma(kk, {1, 1, 1});
  {
    std::vector<int> counts(kk, 0);
    for (std::size_t i = 0; i < n; ++i)
      ++counts[static_cast<std::size_t>(km.assignment[i])];
    std::vector<core::Vec3> ss(kk);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(km.assignment[i]);
      const core::Vec3 d = points[i] - km.centroids[c];
      ss[c] += d.cwise_mul(d);
    }
    for (std::size_t c = 0; c < kk; ++c) {
      weight[c] = std::max(1, counts[c]) / static_cast<double>(n);
      mean[c] = km.centroids[c];
      const double cnt = std::max(1, counts[c]);
      for (int d = 0; d < 3; ++d)
        sigma[c][d] = clamp_sigma(std::sqrt(ss[c][d] / cnt / c2), d);
    }
  }

  std::vector<std::vector<double>> resp(n, std::vector<double>(kk, 0.0));
  double prev_avg_ll = -std::numeric_limits<double>::infinity();

  std::vector<double> log_coef(kk), logterm(kk);
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    // E-step with normalized HMG densities. A component's log weight plus
    // log normalizer is fixed within the step; each point then adds its
    // kernel, (log w + log norm) + log K, the order the density uses.
    for (std::size_t c = 0; c < kk; ++c) {
      const double log_norm = -(log_zu + std::log(sigma[c].x) +
                                std::log(sigma[c].y) + std::log(sigma[c].z));
      log_coef[c] = std::log(std::max(weight[c], 1e-300)) + log_norm;
    }
    double total_ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < kk; ++c)
        logterm[c] =
            log_coef[c] + hmg_log_kernel(points[i], mean[c], sigma[c]);
      const double lse = log_sum_exp(logterm);
      total_ll += lse;
      for (std::size_t c = 0; c < kk; ++c)
        resp[i][c] = std::exp(logterm[c] - lse);
    }
    const double avg_ll = total_ll / static_cast<double>(n);

    // M-step: responsibility-weighted moments, corrected by the kernel's
    // axis second moment so that sigma parameterizes the kernel, not the
    // data spread directly.
    for (std::size_t c = 0; c < kk; ++c) {
      double nk = 0.0;
      core::Vec3 mu{};
      for (std::size_t i = 0; i < n; ++i) {
        nk += resp[i][c];
        mu += points[i] * resp[i][c];
      }
      if (nk < 1e-9) continue;
      mu = mu / nk;
      core::Vec3 var{};
      for (std::size_t i = 0; i < n; ++i) {
        const core::Vec3 d = points[i] - mu;
        var += d.cwise_mul(d) * resp[i][c];
      }
      weight[c] = nk / static_cast<double>(n);
      mean[c] = mu;
      for (int d = 0; d < 3; ++d)
        sigma[c][d] = clamp_sigma(std::sqrt(var[d] / nk / c2), d);
    }

    if (std::abs(avg_ll - prev_avg_ll) < opt.tolerance && iter > 0) break;
    prev_avg_ll = avg_ll;
  }

  std::vector<HmgComponent> comps;
  comps.reserve(kk);
  for (std::size_t c = 0; c < kk; ++c)
    comps.push_back({weight[c], mean[c], sigma[c]});
  return Hmgm(std::move(comps));
}

}  // namespace cimnav::prob
