// Harmonic-Mean-of-Gaussians (HMG) kernel and mixtures (HMGM) — the paper's
// co-designed map representation (Sec. II-B, Fig. 2c,d).
//
// The six-transistor inverter realizes, per column,
//
//   K(p; mu, sigma) = 1 / (1/g_x + 1/g_y + 1/g_z),
//   g_d = exp(-(p_d - mu_d)^2 / (2 sigma_d^2)),
//
// i.e. one third of the harmonic mean of three 1-D Gaussian bumps. Its
// level sets have *rectilinear* tails: far from the center the level set
// {K = c} approaches the axis-aligned box {max_d |u_d| = const}, unlike the
// elliptical contours of a product Gaussian. Near the center, though, the
// kernel is Gaussian-like, which is why mixtures of HMGs can stand in for
// GMMs as map models.
//
// Normalization: the unit kernel's integral Z_unit = ∫ K(u; 0, 1) du is a
// fixed constant (computed once by quadrature); per-axis scaling gives
// Z(sigma) = Z_unit * sx * sy * sz exactly, so HMGM is a proper density.
#pragma once

#include <vector>

#include "core/rng.hpp"
#include "core/vec.hpp"

namespace cimnav::prob {

/// Kernel value at p; peak value is 1/3 at p == mu.
double hmg_kernel(const core::Vec3& p, const core::Vec3& mu,
                  const core::Vec3& sigma);

/// log of hmg_kernel, computed stably for far-out points.
double hmg_log_kernel(const core::Vec3& p, const core::Vec3& mu,
                      const core::Vec3& sigma);

/// Integral of the unit kernel K(u; 0, 1) over R^3 (cached quadrature).
double hmg_unit_normalization();

/// Second moment E[u_x^2] of the normalized unit kernel (cached quadrature);
/// the moment-matching correction used by the HMGM M-step.
double hmg_axis_second_moment();

/// One weighted HMG component.
struct HmgComponent {
  double weight = 1.0;
  core::Vec3 mean;
  core::Vec3 sigma{1.0, 1.0, 1.0};
};

/// Options reused from the GMM fitter.
struct MixtureFitOptions;

/// Mixture of HMG kernels over R^3, normalized to a proper density.
class Hmgm {
 public:
  explicit Hmgm(std::vector<HmgComponent> components);

  /// Fits `k` components to `points`: k-means++ init, then EM-style
  /// iterations whose M-step matches axis moments through the kernel's
  /// second-moment constant (see hmg_axis_second_moment).
  static Hmgm fit(const std::vector<core::Vec3>& points, int k,
                  core::Rng& rng, const struct MixtureFitOptions& opt);
  static Hmgm fit(const std::vector<core::Vec3>& points, int k,
                  core::Rng& rng);

  int component_count() const { return static_cast<int>(components_.size()); }
  const std::vector<HmgComponent>& components() const { return components_; }

  /// Normalized density at p.
  double pdf(const core::Vec3& p) const;

  /// log of the normalized density (stable).
  double log_pdf(const core::Vec3& p) const;

  /// Unnormalized *hardware intensity*: sum_k w_k * (3 K_k(p)), the
  /// unit-peak mixture the inverter-array current is proportional to when
  /// columns are allocated by `hardware_column_weights()`.
  double intensity(const core::Vec3& p) const;

  /// Average log-likelihood of a point set (fit quality metric).
  double average_log_likelihood(const std::vector<core::Vec3>& points) const;

  /// Column-allocation weights that make the (equal-peak-current) analog
  /// array proportional to the *normalized* density: w_k / (sx sy sz).
  std::vector<double> hardware_column_weights() const;

  /// Draws one sample (rejection sampling under a Gaussian envelope).
  core::Vec3 sample(core::Rng& rng) const;

 private:
  std::vector<HmgComponent> components_;
  std::vector<double> log_coef_;  // per-component log w_k - log Z_k
};

}  // namespace cimnav::prob
