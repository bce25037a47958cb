#include "circuit/inverter.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace cimnav::circuit {
namespace {

/// Smallest current treated as "conducting"; below this the branch is off.
constexpr double kCurrentFloorA = 1e-18;

}  // namespace

InverterBranch::InverterBranch(const MosfetParams& nmos,
                               const MosfetParams& pmos,
                               const SupplyParams& supply)
    : nmos_(nmos), pmos_(pmos), supply_(supply) {
  CIMNAV_REQUIRE(supply.vdd_v > 0.0, "supply voltage must be positive");
}

void InverterBranch::program(double delta_vt_n_v, double delta_vt_p_v) {
  programmed_n_v_ = delta_vt_n_v;
  programmed_p_v_ = delta_vt_p_v;
  nmos_.set_delta_vt(programmed_n_v_ + mismatch_n_v_);
  pmos_.set_delta_vt(programmed_p_v_ + mismatch_p_v_);
  invalidate_cache();
}

void InverterBranch::apply_mismatch(double sigma_vt_v, core::Rng& rng) {
  CIMNAV_REQUIRE(sigma_vt_v >= 0.0, "mismatch sigma must be non-negative");
  mismatch_n_v_ = rng.normal(0.0, sigma_vt_v);
  mismatch_p_v_ = rng.normal(0.0, sigma_vt_v);
  nmos_.set_delta_vt(programmed_n_v_ + mismatch_n_v_);
  pmos_.set_delta_vt(programmed_p_v_ + mismatch_p_v_);
  invalidate_cache();
}

void InverterBranch::set_size_factor(double f) {
  nmos_.set_size_factor(f);
  pmos_.set_size_factor(f);
  invalidate_cache();
}

double InverterBranch::current(double v_in) const {
  // Pull-down sees V_GS = v_in; pull-up sees V_SG = VDD - v_in.
  const double i_n = nmos_.drain_current(v_in);
  const double i_p = pmos_.drain_current(supply_.vdd_v - v_in);
  if (i_n <= kCurrentFloorA || i_p <= kCurrentFloorA) return 0.0;
  // Series-stack approximation: harmonic composition (smooth min).
  return (i_n * i_p) / (i_n + i_p);
}

void InverterBranch::invalidate_cache() {
  center_valid_ = false;
  sigma_valid_ = false;
}

void InverterBranch::refresh_center() const {
  if (center_valid_) return;
  // Golden-section search for the unimodal bump maximum on [0, VDD].
  constexpr double kGolden = 0.6180339887498949;
  double a = 0.0, b = supply_.vdd_v;
  double x1 = b - kGolden * (b - a);
  double x2 = a + kGolden * (b - a);
  double f1 = current(x1), f2 = current(x2);
  for (int it = 0; it < 120; ++it) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kGolden * (b - a);
      f2 = current(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kGolden * (b - a);
      f1 = current(x1);
    }
  }
  cached_center_ = 0.5 * (a + b);
  cached_peak_ = current(cached_center_);
  center_valid_ = true;
}

void InverterBranch::refresh_sigma() const {
  if (sigma_valid_) return;
  refresh_center();
  // Half-width at exp(-1/2) of the peak, averaged over both sides.
  const double target = cached_peak_ * std::exp(-0.5);
  auto crossing = [&](double lo, double hi) {
    // current(lo) >= target >= current(hi) along the walk direction.
    for (int it = 0; it < 100; ++it) {
      const double mid = 0.5 * (lo + hi);
      // Once the midpoint rounds onto an end, no later step can move it:
      // either the bracket stays put or it collapses onto that end, and
      // both leave 0.5 * (lo + hi) == mid for every remaining step.
      if (mid == lo || mid == hi) return mid;
      if (current(mid) > target)
        lo = mid;
      else
        hi = mid;
    }
    return 0.5 * (lo + hi);
  };
  double right = supply_.vdd_v;
  if (current(supply_.vdd_v) < target)
    right = crossing(cached_center_, supply_.vdd_v);
  double left = 0.0;
  if (current(0.0) < target) left = crossing(cached_center_, 0.0);
  cached_sigma_ = 0.5 * ((right - cached_center_) + (cached_center_ - left));
  sigma_valid_ = true;
}

double InverterBranch::center() const {
  refresh_center();
  return cached_center_;
}

double InverterBranch::sigma() const {
  refresh_sigma();
  return cached_sigma_;
}

double InverterBranch::peak_current() const {
  refresh_center();
  return cached_peak_;
}

SixTransistorInverter::SixTransistorInverter(const MosfetParams& nmos,
                                             const MosfetParams& pmos,
                                             const SupplyParams& supply)
    : branches_{InverterBranch(nmos, pmos, supply),
                InverterBranch(nmos, pmos, supply),
                InverterBranch(nmos, pmos, supply)} {}

InverterBranch& SixTransistorInverter::branch(int axis) {
  CIMNAV_REQUIRE(axis >= 0 && axis < 3, "axis must be 0, 1 or 2");
  return branches_[static_cast<std::size_t>(axis)];
}

const InverterBranch& SixTransistorInverter::branch(int axis) const {
  CIMNAV_REQUIRE(axis >= 0 && axis < 3, "axis must be 0, 1 or 2");
  return branches_[static_cast<std::size_t>(axis)];
}

double SixTransistorInverter::current(const std::array<double, 3>& v_in) const {
  double inv_sum = 0.0;
  for (int d = 0; d < 3; ++d) {
    const double i = branches_[static_cast<std::size_t>(d)].current(v_in[static_cast<std::size_t>(d)]);
    if (i <= kCurrentFloorA) return 0.0;
    inv_sum += 1.0 / i;
  }
  return 1.0 / inv_sum;
}

double SixTransistorInverter::peak_current() const {
  std::array<double, 3> centers{branches_[0].center(), branches_[1].center(),
                                branches_[2].center()};
  return current(centers);
}

InverterProgrammer::InverterProgrammer(const MosfetParams& nmos,
                                       const MosfetParams& pmos,
                                       const SupplyParams& supply)
    : nmos_(nmos), pmos_(pmos), supply_(supply) {}

InverterProgrammer::Programming InverterProgrammer::solve(
    double center_v, double sigma_v) const {
  CIMNAV_REQUIRE(center_v >= 0.0 && center_v <= supply_.vdd_v,
                 "center must lie inside the supply range");
  CIMNAV_REQUIRE(sigma_v > 0.0, "sigma must be positive");

  InverterBranch scratch(nmos_, pmos_, supply_);
  // Knobs: common-mode shift `s` narrows/widens the window, differential
  // shift `d` moves the center: dVT_n = s + d, dVT_p = s - d.
  const double s_lo = -0.25, s_hi = 0.48;
  const double d_lo = -0.6, d_hi = 0.6;

  double s = 0.0, d = 0.0;
  for (int round = 0; round < 4; ++round) {
    // Center is monotonically increasing in d (raising VT_n and lowering
    // VT_p both push the conduction window to higher input voltage).
    double lo = d_lo, hi = d_hi;
    for (int it = 0; it < 48; ++it) {
      const double mid = 0.5 * (lo + hi);
      scratch.program(s + mid, s - mid);
      // center() alone skips the half-width search sigma() adds.
      if (scratch.center() < center_v)
        lo = mid;
      else
        hi = mid;
    }
    d = 0.5 * (lo + hi);

    // Sigma is monotonically decreasing in s (higher common-mode VT
    // narrows the window where both devices conduct).
    lo = s_lo;
    hi = s_hi;
    for (int it = 0; it < 48; ++it) {
      const double mid = 0.5 * (lo + hi);
      scratch.program(mid + d, mid - d);
      if (scratch.sigma() > sigma_v)
        lo = mid;
      else
        hi = mid;
    }
    s = 0.5 * (lo + hi);
  }

  Programming p;
  p.delta_vt_n_v = s + d;
  p.delta_vt_p_v = s - d;
  scratch.program(p.delta_vt_n_v, p.delta_vt_p_v);
  p.achieved_center_v = scratch.center();
  p.achieved_sigma_v = scratch.sigma();
  return p;
}

std::pair<double, double> InverterProgrammer::sigma_range() const {
  InverterBranch scratch(nmos_, pmos_, supply_);
  scratch.program(0.48, 0.48);
  const double narrow = scratch.sigma();
  scratch.program(-0.25, -0.25);
  const double wide = scratch.sigma();
  return {narrow, wide};
}

}  // namespace cimnav::circuit
