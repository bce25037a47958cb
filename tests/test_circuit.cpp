// Unit tests for the analog circuit models: MOSFET law, inverter bump,
// programming, converters, noise, Gaussian fitting, likelihood array.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/array.hpp"
#include "circuit/converters.hpp"
#include "circuit/gaussian_fit.hpp"
#include "circuit/inverter.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/noise.hpp"
#include "circuit/temperature.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"

namespace cimnav::circuit {
namespace {

TEST(Mosfet, CurrentIsMonotoneInGateDrive) {
  Mosfet m{MosfetParams{}};
  double prev = 0.0;
  for (double v = 0.0; v <= 1.2; v += 0.01) {
    const double i = m.drain_current(v);
    ASSERT_GE(i, prev);
    prev = i;
  }
}

TEST(Mosfet, SubthresholdSlopeIsExponential) {
  Mosfet m{MosfetParams{}};
  // Two points well below threshold: ratio should follow exp(dv / nVt).
  const double vt = m.effective_vt();
  const double i1 = m.drain_current(vt - 0.30);
  const double i2 = m.drain_current(vt - 0.25);
  const MosfetParams p;
  const double expected =
      std::exp(0.05 / (p.n_slope * p.thermal_vt_v));
  EXPECT_NEAR(i2 / i1, expected, expected * 0.05);
}

TEST(Mosfet, SquareLawAboveThreshold) {
  Mosfet m{MosfetParams{}};
  const double vt = m.effective_vt();
  // Far above threshold I ~ (Vgs - VT)^2: doubling overdrive ~4x current.
  const double i1 = m.drain_current(vt + 0.4);
  const double i2 = m.drain_current(vt + 0.8);
  EXPECT_NEAR(i2 / i1, 4.0, 0.5);
}

TEST(Mosfet, FloatingGateShiftsThreshold) {
  Mosfet m{MosfetParams{}};
  const double i_before = m.drain_current(0.5);
  m.set_delta_vt(0.1);
  EXPECT_LT(m.drain_current(0.5), i_before);
  m.set_delta_vt(-0.1);
  EXPECT_GT(m.drain_current(0.5), i_before);
}

// Gate drive that yields `i_a`: bisection on the monotone I-V law over a
// fixed bracket from deep subthreshold to far above threshold.
double gate_voltage_for_current(const Mosfet& m, double i_a) {
  double lo = m.effective_vt() - 1.5;
  double hi = m.effective_vt() + 3.0;
  EXPECT_LE(m.drain_current(lo), i_a);
  EXPECT_GE(m.drain_current(hi), i_a);
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (m.drain_current(mid) < i_a)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(Mosfet, InverseQueryRoundTrips) {
  Mosfet m{MosfetParams{}};
  for (double v : {0.2, 0.35, 0.5, 0.8}) {
    const double i = m.drain_current(v);
    EXPECT_NEAR(gate_voltage_for_current(m, i), v, 1e-6);
  }
}

TEST(Mosfet, SizeFactorScalesCurrent) {
  Mosfet m{MosfetParams{}};
  const double i1 = m.drain_current(0.6);
  m.set_size_factor(2.5);
  EXPECT_NEAR(m.drain_current(0.6) / i1, 2.5, 1e-9);
  EXPECT_THROW(m.set_size_factor(0.0), std::invalid_argument);
}

TEST(InverterBranch, BumpPeaksMidRailForSymmetricDevices) {
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  EXPECT_NEAR(b.center(), 0.5, 1e-3);
  EXPECT_GT(b.peak_current(), 0.0);
  // Rails conduct (almost) nothing.
  EXPECT_LT(b.current(0.0), 1e-3 * b.peak_current());
  EXPECT_LT(b.current(1.0), 1e-3 * b.peak_current());
}

TEST(InverterBranch, BumpIsUnimodal) {
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const double c = b.center();
  double prev = 0.0;
  for (double v = 0.0; v <= c; v += 0.02) {
    const double i = b.current(v);
    ASSERT_GE(i, prev - 1e-15);
    prev = i;
  }
  prev = b.current(c);
  for (double v = c; v <= 1.0; v += 0.02) {
    const double i = b.current(v);
    ASSERT_LE(i, prev + 1e-15);
    prev = i;
  }
}

TEST(InverterBranch, SwitchingCurrentIsGaussianLike) {
  // The paper's Fig. 2(b) claim, quantified: R^2 of a Gaussian fit.
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  std::vector<double> xs, ys;
  for (double v = 0.0; v <= 1.0; v += 0.005) {
    xs.push_back(v);
    ys.push_back(b.current(v));
  }
  const GaussianFit f = fit_gaussian(xs, ys);
  EXPECT_GT(f.r2, 0.99);
  EXPECT_NEAR(f.center, b.center(), 0.01);
  EXPECT_NEAR(f.sigma, b.sigma(), 0.01);
}

TEST(InverterBranch, ProgrammingMovesCenter) {
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  b.program(0.15, -0.15);  // raise VT_n, lower VT_p -> center right
  EXPECT_GT(b.center(), 0.55);
  b.program(-0.15, 0.15);
  EXPECT_LT(b.center(), 0.45);
}

TEST(InverterBranch, CommonModeShiftNarrowsBump) {
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const double s0 = b.sigma();
  b.program(0.2, 0.2);
  EXPECT_LT(b.sigma(), s0);
  b.program(-0.2, -0.2);
  EXPECT_GT(b.sigma(), s0);
}

struct ProgramTarget {
  double center;
  double sigma;
};

class ProgrammerTest : public ::testing::TestWithParam<ProgramTarget> {};

TEST_P(ProgrammerTest, AchievesRequestedBump) {
  const InverterProgrammer prog{MosfetParams{}, MosfetParams{},
                                SupplyParams{}};
  const auto [c, s] = GetParam();
  const auto p = prog.solve(c, s);
  EXPECT_NEAR(p.achieved_center_v, c, 0.01);
  EXPECT_NEAR(p.achieved_sigma_v, s, 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    GridOfTargets, ProgrammerTest,
    ::testing::Values(ProgramTarget{0.3, 0.05}, ProgramTarget{0.3, 0.10},
                      ProgramTarget{0.5, 0.05}, ProgramTarget{0.5, 0.12},
                      ProgramTarget{0.7, 0.05}, ProgramTarget{0.7, 0.10},
                      ProgramTarget{0.4, 0.08}, ProgramTarget{0.6, 0.15}));

TEST(Programmer, ClampsOutOfRangeSigma) {
  const InverterProgrammer prog{MosfetParams{}, MosfetParams{},
                                SupplyParams{}};
  const auto [lo, hi] = prog.sigma_range();
  EXPECT_GT(lo, 0.0);
  EXPECT_GT(hi, lo);
  // Requesting narrower than achievable clamps to the floor.
  const auto p = prog.solve(0.5, lo / 4.0);
  EXPECT_NEAR(p.achieved_sigma_v, lo, 0.01);
}

// Serial reference of a branch's measures as first written: the same
// 120-step golden-section search for the center and peak, then both
// half-width bisections run all 100 steps, computed together on every
// call. The branch computes the half-width only when sigma() asks and
// stops a bisection once its midpoint stops moving; neither may change a
// bit.
struct ReferenceMeasures {
  double center = 0.0;
  double sigma = 0.0;
  double peak = 0.0;
  bool crossed_left = false;
  bool crossed_right = false;
};

ReferenceMeasures reference_measures(const InverterBranch& b) {
  const double vdd = b.supply().vdd_v;
  constexpr double kGolden = 0.6180339887498949;
  double a = 0.0, c = vdd;
  double x1 = c - kGolden * (c - a);
  double x2 = a + kGolden * (c - a);
  double f1 = b.current(x1), f2 = b.current(x2);
  for (int it = 0; it < 120; ++it) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kGolden * (c - a);
      f2 = b.current(x2);
    } else {
      c = x2;
      x2 = x1;
      f2 = f1;
      x1 = c - kGolden * (c - a);
      f1 = b.current(x1);
    }
  }
  ReferenceMeasures m;
  m.center = 0.5 * (a + c);
  m.peak = b.current(m.center);
  const double target = m.peak * std::exp(-0.5);
  const auto crossing = [&](double lo, double hi) {
    for (int it = 0; it < 100; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (b.current(mid) > target)
        lo = mid;
      else
        hi = mid;
    }
    return 0.5 * (lo + hi);
  };
  double right = vdd;
  m.crossed_right = b.current(vdd) < target;
  if (m.crossed_right) right = crossing(m.center, vdd);
  double left = 0.0;
  m.crossed_left = b.current(0.0) < target;
  if (m.crossed_left) left = crossing(m.center, 0.0);
  m.sigma = 0.5 * ((right - m.center) + (m.center - left));
  return m;
}

TEST(InverterBranch, MeasuresMatchFullSearchReferenceBitForBit) {
  // Common-mode s and differential d over the programmer's whole knob
  // range and past it: the wide, off-center corners leave a rail above
  // the half-width target, so one side needs no crossing at all.
  InverterBranch b{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  core::Rng rng(53);
  int railed = 0, both_crossed = 0;
  for (int is = 0; is <= 10; ++is) {
    for (int id = 0; id <= 12; ++id) {
      const double s = -0.35 + 0.085 * is;
      const double d = -0.7 + (1.4 / 12.0) * id;
      b.program(s + d, s - d);
      const ReferenceMeasures ref = reference_measures(b);
      // Read in a different order on alternate programmings, so the
      // center-only path runs both before and after the sigma path.
      if ((is + id) % 2 == 0) {
        EXPECT_EQ(b.center(), ref.center) << "s=" << s << " d=" << d;
        EXPECT_EQ(b.peak_current(), ref.peak) << "s=" << s << " d=" << d;
        EXPECT_EQ(b.sigma(), ref.sigma) << "s=" << s << " d=" << d;
      } else {
        EXPECT_EQ(b.sigma(), ref.sigma) << "s=" << s << " d=" << d;
        EXPECT_EQ(b.center(), ref.center) << "s=" << s << " d=" << d;
        EXPECT_EQ(b.peak_current(), ref.peak) << "s=" << s << " d=" << d;
      }
      railed += !(ref.crossed_left && ref.crossed_right);
      both_crossed += ref.crossed_left && ref.crossed_right;
    }
  }
  // A mismatched, resized branch (as the array programs them).
  for (int rep = 0; rep < 8; ++rep) {
    b.apply_mismatch(0.02, rng);
    b.program(rng.uniform(-0.2, 0.4), rng.uniform(-0.2, 0.4));
    b.set_size_factor(rng.uniform(0.5, 3.0));
    const ReferenceMeasures ref = reference_measures(b);
    EXPECT_EQ(b.peak_current(), ref.peak) << "rep=" << rep;
    EXPECT_EQ(b.sigma(), ref.sigma) << "rep=" << rep;
    EXPECT_EQ(b.center(), ref.center) << "rep=" << rep;
  }
  EXPECT_GT(railed, 0) << "no programming left a rail above the target";
  EXPECT_GT(both_crossed, 0);
}

TEST(Programmer, SolveMatchesFullMeasureReferenceBitForBit) {
  // The programmer as first written: every bisection step of both knobs
  // measures center and sigma together from scratch.
  const InverterProgrammer prog{MosfetParams{}, MosfetParams{},
                                SupplyParams{}};
  InverterBranch scratch{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const auto measure = [&](double s, double d) {
    scratch.program(s + d, s - d);
    return reference_measures(scratch);
  };
  for (double center : {0.05, 0.3, 0.5, 0.72, 0.95}) {
    for (double sigma : {0.001, 0.06, 0.15, 0.6}) {
      double s = 0.0, d = 0.0;
      for (int round = 0; round < 4; ++round) {
        double lo = -0.6, hi = 0.6;
        for (int it = 0; it < 48; ++it) {
          const double mid = 0.5 * (lo + hi);
          if (measure(s, mid).center < center)
            lo = mid;
          else
            hi = mid;
        }
        d = 0.5 * (lo + hi);
        lo = -0.25;
        hi = 0.48;
        for (int it = 0; it < 48; ++it) {
          const double mid = 0.5 * (lo + hi);
          if (measure(mid, d).sigma > sigma)
            lo = mid;
          else
            hi = mid;
        }
        s = 0.5 * (lo + hi);
      }
      const ReferenceMeasures at = measure(s, d);
      const auto p = prog.solve(center, sigma);
      EXPECT_EQ(p.delta_vt_n_v, s + d) << center << " " << sigma;
      EXPECT_EQ(p.delta_vt_p_v, s - d) << center << " " << sigma;
      EXPECT_EQ(p.achieved_center_v, at.center) << center << " " << sigma;
      EXPECT_EQ(p.achieved_sigma_v, at.sigma) << center << " " << sigma;
    }
  }
}

TEST(SixTransistorInverter, HarmonicCompositionBelowMin) {
  SixTransistorInverter inv{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const std::array<double, 3> v{0.5, 0.5, 0.5};
  const double i = inv.current(v);
  for (int d = 0; d < 3; ++d)
    EXPECT_LT(i, inv.branch(d).current(v[static_cast<std::size_t>(d)]));
  // Equal branches: harmonic composition = branch current / 3.
  EXPECT_NEAR(i, inv.branch(0).current(0.5) / 3.0,
              0.02 * inv.branch(0).current(0.5));
}

TEST(SixTransistorInverter, AnyOffBranchKillsCurrent) {
  SixTransistorInverter inv{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  EXPECT_LT(inv.current({0.5, 0.5, 0.0}), 1e-2 * inv.peak_current());
}

TEST(SixTransistorInverter, PeakAtBranchCenters) {
  SixTransistorInverter inv{MosfetParams{}, MosfetParams{}, SupplyParams{}};
  const double peak = inv.peak_current();
  for (double dv : {-0.2, -0.1, 0.1, 0.2}) {
    EXPECT_LT(inv.current({0.5 + dv, 0.5, 0.5}), peak);
  }
}

TEST(Temperature, HotDeviceHasWiderSubthreshold) {
  const MosfetParams cold = at_temperature(MosfetParams{}, 250.0);
  const MosfetParams hot = at_temperature(MosfetParams{}, 380.0);
  EXPECT_LT(cold.thermal_vt_v, hot.thermal_vt_v);
  EXPECT_GT(cold.vt0_v, hot.vt0_v);  // negative TC
  EXPECT_GT(cold.i_spec_a, hot.i_spec_a);  // mobility degradation
}

TEST(Temperature, ReferencePointIsIdentity) {
  const MosfetParams p = at_temperature(MosfetParams{}, 300.0);
  const MosfetParams ref;
  EXPECT_NEAR(p.thermal_vt_v, ref.thermal_vt_v, 1e-12);
  EXPECT_NEAR(p.vt0_v, ref.vt0_v, 1e-12);
  EXPECT_NEAR(p.i_spec_a, ref.i_spec_a, 1e-18);
}

TEST(Temperature, BumpWidensAndShiftsWhenHot) {
  // The environmental-variation effect on programmed kernels: at +85C the
  // bump is wider (kT/q) and its center moves (threshold drift).
  const SupplyParams supply;
  const InverterBranch nominal{MosfetParams{}, MosfetParams{}, supply};
  const MosfetParams hot_params = at_temperature(MosfetParams{}, 358.0);
  const InverterBranch hot{hot_params, hot_params, supply};
  EXPECT_GT(hot.sigma(), nominal.sigma());
  // Symmetric devices keep the center mid-rail even when hot.
  EXPECT_NEAR(hot.center(), 0.5, 5e-3);
}

TEST(Temperature, AsymmetricDriftMovesProgrammedCenter) {
  // A component programmed at 300 K and read hot: if only the NMOS
  // threshold drifts (worst-case asymmetry), the center shifts — the
  // drift that program-verify at operating temperature would trim.
  const SupplyParams supply;
  TemperatureModel tm;
  const MosfetParams hot_n = at_temperature(MosfetParams{}, 358.0, tm);
  InverterBranch drifted{hot_n, MosfetParams{}, supply};
  InverterBranch nominal{MosfetParams{}, MosfetParams{}, supply};
  EXPECT_GT(std::abs(drifted.center() - nominal.center()), 0.005);
}

TEST(Temperature, RejectsNonPhysical) {
  EXPECT_THROW(at_temperature(MosfetParams{}, -10.0), std::invalid_argument);
}

TEST(Dac, EncodeDecodeRoundTrip) {
  const Dac dac(4, 0.1, 0.9);
  EXPECT_EQ(dac.levels(), 16u);
  for (std::uint32_t code = 0; code < dac.levels(); ++code)
    EXPECT_EQ(dac.encode(dac.decode(code)), code);
}

TEST(Dac, QuantizationErrorBounded) {
  const Dac dac(6, 0.0, 1.0);
  core::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_LE(std::abs(dac.quantize(v) - v), dac.step() / 2 + 1e-12);
  }
}

TEST(Dac, ClampsOutOfRange) {
  const Dac dac(4, 0.1, 0.9);
  EXPECT_EQ(dac.encode(-1.0), 0u);
  EXPECT_EQ(dac.encode(2.0), dac.levels() - 1);
}

TEST(LogAdc, CodesUniformInLogDomain) {
  const LogAdc adc(6, 1e-9, 1e-3);
  // Equal current *ratios* map to equal code differences.
  const auto c1 = adc.encode(1e-8);
  const auto c2 = adc.encode(1e-7);
  const auto c3 = adc.encode(1e-6);
  EXPECT_NEAR(static_cast<double>(c2) - c1, static_cast<double>(c3) - c2, 1.01);
}

TEST(LogAdc, ReadLogQuantizesLog) {
  const LogAdc adc(8, 1e-9, 1e-3);
  const double i = 3.7e-6;
  const double step = (adc.log_i_max() - adc.log_i_min()) / 255.0;
  EXPECT_NEAR(adc.read_log(i), std::log(i), step);
}

TEST(LogAdc, FloorsNonPositiveCurrent) {
  const LogAdc adc(4, 1e-9, 1e-3);
  EXPECT_EQ(adc.encode(0.0), 0u);
  EXPECT_EQ(adc.encode(-1.0), 0u);
}

TEST(Converters, NanMapsToCodeZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Dac(4, 0.1, 0.9).encode(nan), 0u);
  EXPECT_EQ(Dac(8, 0.1, 0.9).encode(nan), 0u);
  EXPECT_EQ(LogAdc(4, 1e-9, 1e-3).encode(nan), 0u);
}

// Reference code rounding: clamp to [0, levels - 1] with NaN to code 0,
// else std::lround (halves away from zero).
std::uint32_t lround_code(double idx, std::uint32_t levels) {
  if (std::isnan(idx) || idx <= 0.0) return 0;
  if (idx >= static_cast<double>(levels - 1)) return levels - 1;
  return static_cast<std::uint32_t>(std::lround(idx));
}

// Fractional code indices around every rounding boundary of a converter
// with `levels` codes: each k and k +- 0.5 with their nextafter
// neighbours, the extremes, and a uniform sweep over [-2, levels + 1].
std::vector<double> rounding_probes(std::uint32_t levels) {
  const double top = static_cast<double>(levels - 1);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> idx{0.0,  -0.0,      -0.25,     -1.0,
                          -1e9, -inf,      inf,       1e300,
                          top,  top - 1.5, top - 0.5, top + 0.5,
                          top + 1.0, 2.0 * top + 7.0,
                          std::numeric_limits<double>::quiet_NaN()};
  for (std::uint32_t k = 0; k < levels; ++k)
    for (double centre : {static_cast<double>(k) - 0.5,
                          static_cast<double>(k),
                          static_cast<double>(k) + 0.5}) {
      idx.push_back(centre);
      idx.push_back(std::nextafter(centre, -inf));
      idx.push_back(std::nextafter(centre, inf));
    }
  core::Rng rng(89);
  for (int i = 0; i < 20000; ++i) idx.push_back(rng.uniform(-2.0, top + 2.0));
  return idx;
}

TEST(Converters, RoundingMatchesLroundReference) {
  for (int bits : {1, 4, 6, 8}) {
    const double v_min = 0.05, v_max = 0.95;
    const Dac dac(bits, v_min, v_max);
    const LogAdc adc(bits, 1e-9, 1e-3);
    const std::uint32_t levels = dac.levels();
    const double top = static_cast<double>(levels - 1);
    for (const double idx : rounding_probes(levels)) {
      EXPECT_EQ(detail::clamp_code(idx, levels), lround_code(idx, levels))
          << "bits=" << bits << " idx=" << idx;
      // An input near the index, through each encoder's own arithmetic;
      // the reference repeats that arithmetic up to the rounding.
      const double v = v_min + idx / top * (v_max - v_min);
      EXPECT_EQ(dac.encode(v),
                lround_code((v - v_min) / (v_max - v_min) * top, levels))
          << "bits=" << bits << " v=" << v;
      const double span = adc.log_i_max() - adc.log_i_min();
      const double i_a = std::exp(adc.log_i_min() + idx / top * span);
      const std::uint32_t want =
          i_a <= 0.0
              ? 0u
              : lround_code((std::log(i_a) - adc.log_i_min()) / span * top,
                            levels);
      EXPECT_EQ(adc.encode(i_a), want) << "bits=" << bits << " i=" << i_a;
    }
    for (const double i_a :
         {0.0, -0.0, -1e-6, -std::numeric_limits<double>::infinity()})
      EXPECT_EQ(adc.encode(i_a), 0u) << "bits=" << bits << " i=" << i_a;
  }
}

// The threshold read against the formula it tabulates: read_log(i) must
// carry the bits of decode_log(encode(i)) on every input, above all at
// each code threshold and its ulp neighbours, where a threshold one ulp
// off would show.
TEST(Converters, ThresholdReadMatchesEncodeDecode) {
  const double inf = std::numeric_limits<double>::infinity();
  const LikelihoodArrayConfig array_defaults;
  const double array_peak_a = array_defaults.peak_current_a *
                              static_cast<double>(array_defaults.total_columns);
  const std::array<std::array<double, 2>, 2> ranges{{
      {1e-9, 1e-3},
      {array_peak_a * array_defaults.adc_floor_fraction, array_peak_a},
  }};
  for (int bits : {1, 3, 4, 6, 8, 10, 12}) {
    for (const auto& range : ranges) {
      const LogAdc adc(bits, range[0], range[1]);
      SCOPED_TRACE(::testing::Message() << "bits=" << bits << " range=["
                                        << range[0] << ", " << range[1]
                                        << "]");
      ASSERT_EQ(adc.thresholds().size(), adc.levels() - 1);
      std::vector<double> probes{0.0,
                                 -0.0,
                                 -1.0,
                                 std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::quiet_NaN(),
                                 inf,
                                 -inf};
      for (const double t : adc.thresholds()) {
        double below = t, above = t;
        probes.push_back(t);
        for (int u = 0; u < 3; ++u) {
          below = std::nextafter(below, -inf);
          above = std::nextafter(above, inf);
          probes.push_back(below);
          probes.push_back(above);
        }
      }
      // Log-uniform currents over the range and two decades beyond each
      // end.
      core::Rng rng(static_cast<std::uint64_t>(bits) * 131 + 7);
      const double lo = std::log(range[0]) - 2.0 * std::log(10.0);
      const double hi = std::log(range[1]) + 2.0 * std::log(10.0);
      for (int i = 0; i < (1 << 20); ++i)
        probes.push_back(std::exp(rng.uniform(lo, hi)));

      std::size_t mismatches = 0;
      for (const double i_a : probes) {
        const double want = adc.decode_log(adc.encode(i_a));
        const double got = adc.read_log(i_a);
        if (std::bit_cast<std::uint64_t>(got) !=
            std::bit_cast<std::uint64_t>(want)) {
          if (mismatches++ < 5)
            ADD_FAILURE() << "i=" << i_a << " read_log=" << got
                          << " decode_log(encode)=" << want;
        }
      }
      EXPECT_EQ(mismatches, 0u);
      // Each threshold is the first current of its code.
      for (std::uint32_t k = 1; k < adc.levels(); ++k) {
        const double t = adc.thresholds()[k - 1];
        EXPECT_GE(adc.encode(t), k);
        EXPECT_LT(adc.encode(std::nextafter(t, -inf)), k);
      }
    }
  }
}

TEST(Converters, LogAdcRejectsUntabulatedConfigs) {
  EXPECT_NO_THROW(LogAdc(LogAdc::kMaxBits, 1e-9, 1e-3));
  for (int bits : {0, LogAdc::kMaxBits + 1, 24})
    EXPECT_THROW(LogAdc(bits, 1e-9, 1e-3), std::invalid_argument) << bits;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(LogAdc(6, 1e-9, inf), std::invalid_argument);
  EXPECT_THROW(LogAdc(6, 0.0, 1e-3), std::invalid_argument);
  EXPECT_THROW(LogAdc(6, 1e-3, 1e-3), std::invalid_argument);
  // The DAC keeps its own, wider bound.
  EXPECT_NO_THROW(Dac(24, 0.0, 1.0));
}

class ConverterBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(ConverterBitsTest, DacErrorHalvesPerBit) {
  const int bits = GetParam();
  const Dac coarse(bits, 0.0, 1.0);
  const Dac fine(bits + 1, 0.0, 1.0);
  core::Rng rng(bits);
  double worst_coarse = 0.0, worst_fine = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform();
    worst_coarse = std::max(worst_coarse, std::abs(coarse.quantize(v) - v));
    worst_fine = std::max(worst_fine, std::abs(fine.quantize(v) - v));
  }
  EXPECT_NEAR(worst_coarse / worst_fine, 2.0, 0.25);
}

TEST_P(ConverterBitsTest, LogAdcRelativeErrorBounded) {
  const int bits = GetParam();
  const LogAdc adc(bits, 1e-9, 1e-3);
  const double step =
      (adc.log_i_max() - adc.log_i_min()) / (std::pow(2.0, bits) - 1.0);
  core::Rng rng(bits + 100);
  for (int i = 0; i < 500; ++i) {
    const double log_i = rng.uniform(adc.log_i_min(), adc.log_i_max());
    const double i_a = std::exp(log_i);
    EXPECT_LE(std::abs(adc.read_log(i_a) - log_i), 0.5 * step + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(BitSweep, ConverterBitsTest,
                         ::testing::Values(3, 4, 5, 6, 8, 10));

TEST(Noise, DisabledPassesThrough) {
  core::Rng rng(5);
  NoiseParams p;
  p.enabled = false;
  EXPECT_DOUBLE_EQ(noisy_current(1e-6, p, rng), 1e-6);
}

TEST(Noise, VarianceMatchesModel) {
  core::Rng rng(7);
  NoiseParams p;  // defaults
  const double i = 1e-6;
  core::RunningStats s;
  for (int k = 0; k < 20000; ++k) s.add(noisy_current(i, p, rng));
  const double expected_var =
      p.shot_coeff_a * i + p.thermal_floor_a * p.thermal_floor_a;
  EXPECT_NEAR(s.mean(), i, 3e-10);
  EXPECT_NEAR(s.variance(), expected_var, 0.05 * expected_var);
}

TEST(Noise, NeverNegative) {
  core::Rng rng(9);
  NoiseParams p;
  p.thermal_floor_a = 1e-6;  // huge floor vs tiny current
  for (int k = 0; k < 1000; ++k)
    EXPECT_GE(noisy_current(1e-9, p, rng), 0.0);
}

TEST(GaussianFit, RecoversSyntheticParameters) {
  std::vector<double> xs, ys;
  for (double v = 0.0; v <= 1.0; v += 0.01) {
    xs.push_back(v);
    ys.push_back(4e-6 * std::exp(-(v - 0.42) * (v - 0.42) / (2 * 0.07 * 0.07)));
  }
  const auto f = fit_gaussian(xs, ys);
  EXPECT_NEAR(f.amplitude, 4e-6, 1e-8);
  EXPECT_NEAR(f.center, 0.42, 1e-4);
  EXPECT_NEAR(f.sigma, 0.07, 1e-4);
  EXPECT_NEAR(f.r2, 1.0, 1e-6);
}

TEST(GaussianFit, RejectsNonBumpData) {
  std::vector<double> xs, ys;
  for (double v = 0.0; v <= 1.0; v += 0.05) {
    xs.push_back(v);
    ys.push_back(std::exp(2.0 * v));  // convex growth, not a bump
  }
  const auto f = fit_gaussian(xs, ys);
  EXPECT_LE(f.r2, 0.5);
}

class AllocateColumnsTest
    : public ::testing::TestWithParam<std::pair<std::vector<double>, int>> {};

TEST_P(AllocateColumnsTest, ExactTotalAndProportionality) {
  const auto& [weights, total] = GetParam();
  const auto alloc = allocate_columns(weights, total);
  int sum = 0;
  double wsum = 0.0;
  for (double w : weights) wsum += w;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    sum += alloc[i];
    EXPECT_GE(alloc[i], 1);
    // Within one column of the proportional share (plus the 1 floor).
    const double share = weights[i] / wsum * total;
    EXPECT_NEAR(alloc[i], share, std::max(2.0, 0.35 * share));
  }
  EXPECT_EQ(sum, total);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AllocateColumnsTest,
    ::testing::Values(
        std::make_pair(std::vector<double>{1, 1, 1, 1}, 100),
        std::make_pair(std::vector<double>{1, 2, 3, 4}, 57),
        std::make_pair(std::vector<double>{0.01, 0.99}, 10),
        std::make_pair(std::vector<double>{5, 0.0, 5}, 11),
        std::make_pair(std::vector<double>{1}, 7)));

TEST(AllocateColumns, RequiresEnoughColumns) {
  EXPECT_THROW(allocate_columns({1, 1, 1}, 2), std::invalid_argument);
}

class LikelihoodArrayTest : public ::testing::Test {
 protected:
  static std::vector<VoltageComponent> three_components() {
    return {{{0.3, 0.5, 0.5}, {0.06, 0.06, 0.06}, 0.5},
            {{0.6, 0.4, 0.5}, {0.08, 0.06, 0.08}, 0.3},
            {{0.5, 0.7, 0.4}, {0.05, 0.08, 0.06}, 0.2}};
  }

  /// Ideal current of one point, through its code-cube key.
  static double ideal_current(const CimLikelihoodArray& arr,
                              const core::Vec3& p) {
    const std::uint32_t key = arr.code_key(p);
    double out = 0.0;
    arr.ideal_currents_by_key({&key, 1}, {&out, 1});
    return out;
  }

  /// A batch of reads as the per-pose likelihood path issues them: keys,
  /// one batched ideal-current call, then noise + log-ADC per read in
  /// index order, booked as reads.
  static void read_batch(const CimLikelihoodArray& arr,
                         const std::vector<core::Vec3>& pts, core::Rng& rng,
                         std::vector<double>& out) {
    std::vector<std::uint32_t> keys;
    for (const auto& p : pts) keys.push_back(arr.code_key(p));
    out.resize(pts.size());
    arr.ideal_currents_by_key(keys, out);
    for (double& reading : out) reading = arr.read_log(reading, rng);
    arr.record_reads(pts.size());
  }
};

TEST_F(LikelihoodArrayTest, CurrentPeaksAtComponentCenters) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 60;
  cfg.mismatch_sigma_vt_v = 0.0;
  cfg.noise.enabled = false;
  core::Rng rng(11);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  const double at_center = ideal_current(arr, {0.3, 0.5, 0.5});
  const double off_center = ideal_current(arr, {0.45, 0.6, 0.6});
  EXPECT_GT(at_center, off_center);
}

TEST_F(LikelihoodArrayTest, ColumnAllocationFollowsWeights) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 100;
  core::Rng rng(13);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  const auto& cols = arr.columns_per_component();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_NEAR(cols[0], 50, 2);
  EXPECT_NEAR(cols[1], 30, 2);
  EXPECT_NEAR(cols[2], 20, 2);
  EXPECT_EQ(cols[0] + cols[1] + cols[2], 100);
}

TEST_F(LikelihoodArrayTest, TracksDigitalMixtureShape) {
  // Noise-free array current should correlate strongly with the ideal
  // unit-peak mixture intensity over the voltage window.
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 90;
  cfg.dac_bits = 8;
  cfg.mismatch_sigma_vt_v = 0.0;
  cfg.noise.enabled = false;
  core::Rng rng(17);
  const auto comps = three_components();
  const CimLikelihoodArray arr(cfg, comps, rng);

  core::Rng prng(19);
  std::vector<double> hw, model;
  for (int k = 0; k < 300; ++k) {
    const core::Vec3 p{prng.uniform(0.15, 0.85), prng.uniform(0.15, 0.85),
                       prng.uniform(0.15, 0.85)};
    hw.push_back(ideal_current(arr, p));
    double m = 0.0;
    for (const auto& c : comps) {
      double inv_sum = 0.0;
      for (int d = 0; d < 3; ++d) {
        const double u = (p[d] - c.center_v[d]) / c.sigma_v[d];
        inv_sum += std::exp(0.5 * u * u);
      }
      m += c.weight / inv_sum;
    }
    model.push_back(m);
  }
  // The physical bump's sech-like tails depart from the ideal
  // Gaussian kernel, costing a little correlation (see DESIGN.md).
  EXPECT_GT(core::pearson_correlation(hw, model), 0.95);
}

TEST_F(LikelihoodArrayTest, MismatchDegradesAndVerifyRestores) {
  const auto comps = three_components();
  auto field_error = [&](double mismatch, bool verify) {
    LikelihoodArrayConfig cfg;
    cfg.total_columns = 60;
    cfg.dac_bits = 8;
    cfg.mismatch_sigma_vt_v = mismatch;
    cfg.program_verify = verify;
    cfg.noise.enabled = false;
    core::Rng rng(23);
    const CimLikelihoodArray arr(cfg, comps, rng);
    LikelihoodArrayConfig ref_cfg = cfg;
    ref_cfg.mismatch_sigma_vt_v = 0.0;
    core::Rng rng2(23);
    const CimLikelihoodArray ref(ref_cfg, comps, rng2);
    double err = 0.0;
    core::Rng prng(29);
    for (int k = 0; k < 150; ++k) {
      const core::Vec3 p{prng.uniform(0.2, 0.8), prng.uniform(0.2, 0.8),
                         prng.uniform(0.2, 0.8)};
      const double a = ideal_current(arr, p), b = ideal_current(ref, p);
      err += std::abs(a - b) / (std::abs(b) + 1e-12);
    }
    return err / 150.0;
  };
  const double with_verify = field_error(0.03, true);
  const double without_verify = field_error(0.03, false);
  EXPECT_LT(with_verify, without_verify);
}

TEST_F(LikelihoodArrayTest, LogLikelihoodMonotoneInCurrent) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 60;
  cfg.noise.enabled = false;
  core::Rng rng(31);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  core::Rng nrng(33);
  const double near = arr.read_log_likelihood({0.3, 0.5, 0.5}, nrng);
  const double far = arr.read_log_likelihood({0.85, 0.15, 0.85}, nrng);
  EXPECT_GT(near, far);
}

TEST_F(LikelihoodArrayTest, EvaluationCounterAdvances) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 30;
  core::Rng rng(37);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  const auto before = arr.evaluation_count();
  const auto computed = arr.ideal_current_count();
  core::Rng nrng(38);
  arr.read_log_likelihood({0.5, 0.5, 0.5}, nrng);
  arr.read_log_likelihood({0.4, 0.5, 0.5}, nrng);
  EXPECT_EQ(arr.evaluation_count(), before + 2);
  EXPECT_EQ(arr.ideal_current_count(), computed + 2);
  // A batch of n counts n reads, whatever its interleave tail.
  for (std::size_t n : {0u, 1u, 8u, 13u}) {
    const std::vector<core::Vec3> pts(n, core::Vec3{0.5, 0.4, 0.6});
    std::vector<double> out;
    const auto at = arr.evaluation_count();
    const auto computed_at = arr.ideal_current_count();
    read_batch(arr, pts, nrng, out);
    EXPECT_EQ(arr.evaluation_count(), at + n);
    EXPECT_EQ(arr.ideal_current_count(), computed_at + n);
  }
  std::vector<double> wrong(2);
  const std::vector<std::uint32_t> three(3);
  EXPECT_THROW(arr.ideal_currents_by_key(three, wrong),
               std::invalid_argument);
}

// Serial reference for the array's read: per-column, per-axis current LUTs
// built from the public device models in the constructor's rng order, and
// the harmonic composition 1 / (1/Ix + 1/Iy + 1/Iz) summed column by
// column. Supports program_verify = false only (the trim is private).
class ReferenceArray {
 public:
  ReferenceArray(const LikelihoodArrayConfig& cfg,
                 const std::vector<VoltageComponent>& comps, core::Rng& rng)
      : dac_(cfg.dac_bits, cfg.v_margin_v, cfg.vdd_v - cfg.v_margin_v) {
    const SupplyParams supply{cfg.vdd_v};
    const InverterProgrammer programmer(cfg.nmos, cfg.pmos, supply);
    std::vector<double> weights;
    for (const auto& c : comps) weights.push_back(c.weight);
    const auto alloc = allocate_columns(weights, cfg.total_columns);
    for (std::size_t k = 0; k < comps.size(); ++k) {
      std::array<InverterProgrammer::Programming, 3> prog;
      for (int axis = 0; axis < 3; ++axis)
        prog[static_cast<std::size_t>(axis)] = programmer.solve(
            core::clamp(comps[k].center_v[axis], cfg.v_margin_v,
                        cfg.vdd_v - cfg.v_margin_v),
            std::max(comps[k].sigma_v[axis], 1e-3));
      for (int rep = 0; rep < alloc[k]; ++rep) {
        SixTransistorInverter inv(cfg.nmos, cfg.pmos, supply);
        std::array<std::vector<double>, 3> lut;
        for (int axis = 0; axis < 3; ++axis) {
          auto& branch = inv.branch(axis);
          const auto& p = prog[static_cast<std::size_t>(axis)];
          branch.apply_mismatch(cfg.mismatch_sigma_vt_v, rng);
          branch.program(p.delta_vt_n_v, p.delta_vt_p_v);
          const double peak = branch.peak_current();
          if (peak > 0.0)
            branch.set_size_factor(cfg.peak_current_a * 3.0 / peak);
          for (std::uint32_t code = 0; code < dac_.levels(); ++code)
            lut[static_cast<std::size_t>(axis)].push_back(
                branch.current(dac_.decode(code)));
        }
        columns_.push_back(std::move(lut));
      }
    }
  }

  double ideal_current(const core::Vec3& p) const {
    const std::array<std::uint32_t, 3> codes{dac_.encode(p.x),
                                             dac_.encode(p.y),
                                             dac_.encode(p.z)};
    double total = 0.0;
    for (const auto& col : columns_) total += column_current(col, codes);
    return total;
  }

  /// Column reads that met a non-conducting branch so far.
  int off_branch_hits() const { return off_hits_; }

 private:
  double column_current(const std::array<std::vector<double>, 3>& col,
                        const std::array<std::uint32_t, 3>& codes) const {
    double inv_sum = 0.0;
    for (std::size_t axis = 0; axis < 3; ++axis) {
      const double i = col[axis][codes[axis]];
      if (i <= 0.0) {
        ++off_hits_;
        return 0.0;
      }
      inv_sum += 1.0 / i;
    }
    return 1.0 / inv_sum;
  }

  Dac dac_;
  std::vector<std::array<std::vector<double>, 3>> columns_;
  mutable int off_hits_ = 0;
};

TEST_F(LikelihoodArrayTest, BatchedReadMatchesSerialReferenceBitForBit) {
  // Narrow bumps at the rails, on nA-scale columns, shut their branches
  // off at the far codes (below the branch's conduction floor), so the
  // all-minimum / all-maximum points read non-conducting entries.
  const std::vector<VoltageComponent> comps{
      {{0.95, 0.95, 0.95}, {0.03, 0.03, 0.03}, 0.4},
      {{0.05, 0.05, 0.05}, {0.03, 0.03, 0.03}, 0.3},
      {{0.5, 0.7, 0.4}, {0.05, 0.08, 0.06}, 0.3}};
  int off_hits = 0;
  for (int dac_bits : {1, 4, 6, 8}) {
    for (int cols : {1, 60, 500}) {
      LikelihoodArrayConfig cfg;
      cfg.dac_bits = dac_bits;
      cfg.total_columns = cols;
      cfg.program_verify = false;
      cfg.peak_current_a = 1.0e-9;
      const std::vector<VoltageComponent> used(
          comps.begin(),
          comps.begin() + std::min<std::ptrdiff_t>(cols, 3));
      core::Rng rng_a(41), rng_b(41);
      const CimLikelihoodArray arr(cfg, used, rng_a);
      const ReferenceArray ref(cfg, used, rng_b);
      core::Rng prng(43);
      for (std::size_t n : {1u, 7u, 8u, 9u, 80u}) {
        std::vector<core::Vec3> pts(n);
        for (auto& p : pts)
          p = {prng.uniform(0.0, 1.0), prng.uniform(0.0, 1.0),
               prng.uniform(0.0, 1.0)};
        pts.front() = {0.0, 0.0, 0.0};             // all-minimum codes
        if (n > 1) pts.back() = {1.0, 1.0, 1.0};   // all-maximum codes
        std::vector<std::uint32_t> keys;
        for (const auto& p : pts) keys.push_back(arr.code_key(p));
        std::vector<double> out(n);
        arr.ideal_currents_by_key(keys, out);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(out[i], ref.ideal_current(pts[i]))
              << "dac_bits=" << dac_bits << " cols=" << cols << " n=" << n
              << " i=" << i;
      }
      off_hits += ref.off_branch_hits();
    }
  }
  ASSERT_GT(off_hits, 0) << "no non-conducting branch was read";
}

TEST_F(LikelihoodArrayTest, EveryBatchLengthMatchesOneKeyCalls) {
  // A batch runs in interleaved groups of 8, then one group each of 4, 2
  // and 1 for its tail: every length from 1 to 19 covers each mix of
  // groups at least once, and every key must keep its one-key bits.
  for (int dac_bits : {1, 6, 8}) {
    LikelihoodArrayConfig cfg;
    cfg.dac_bits = dac_bits;
    cfg.total_columns = 60;
    core::Rng rng(97);
    const CimLikelihoodArray arr(cfg, three_components(), rng);
    core::Rng krng(101);
    for (std::size_t n = 1; n <= 19; ++n) {
      std::vector<std::uint32_t> keys(n);
      for (auto& key : keys)
        key = static_cast<std::uint32_t>(
            krng.uniform_int(0, arr.key_count() - 1));
      keys.front() = 0;
      if (n > 1) keys.back() = arr.key_count() - 1;
      std::vector<double> batch(n);
      arr.ideal_currents_by_key(keys, batch);
      for (std::size_t i = 0; i < n; ++i) {
        double one = 0.0;
        arr.ideal_currents_by_key({&keys[i], 1}, {&one, 1});
        EXPECT_EQ(batch[i], one)
            << "dac_bits=" << dac_bits << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(LikelihoodArrayTest, BatchedLogReadsMatchPointReadsAndRngStream) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 60;
  core::Rng rng(47);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  core::Rng prng(53);
  std::vector<core::Vec3> pts(19);
  for (auto& p : pts)
    p = {prng.uniform(0.1, 0.9), prng.uniform(0.1, 0.9),
         prng.uniform(0.1, 0.9)};
  core::Rng batch_rng(59), point_rng(59);
  std::vector<double> batch;
  read_batch(arr, pts, batch_rng, batch);
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_EQ(batch[i], arr.read_log_likelihood(pts[i], point_rng)) << i;
  // Same stream position, including Box-Muller's cached spare.
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(batch_rng.normal(), point_rng.normal());
    EXPECT_EQ(batch_rng(), point_rng());
  }
}

TEST_F(LikelihoodArrayTest, ConcurrentBatchedReadsMatchSerialPass) {
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 60;
  core::Rng rng(61);
  const CimLikelihoodArray arr(cfg, three_components(), rng);
  constexpr std::size_t kScans = 24;
  std::vector<std::vector<core::Vec3>> scans(kScans);
  core::Rng prng(67);
  std::size_t total_points = 0;
  for (std::size_t s = 0; s < kScans; ++s) {
    scans[s].resize(5 + (7 * s) % 41);
    for (auto& p : scans[s])
      p = {prng.uniform(0.1, 0.9), prng.uniform(0.1, 0.9),
           prng.uniform(0.1, 0.9)};
    total_points += scans[s].size();
  }
  const auto read_scan = [&](std::size_t s, std::vector<double>& out) {
    core::Rng scan_rng = core::Rng::stream(71, s);
    read_batch(arr, scans[s], scan_rng, out);
  };
  std::vector<std::vector<double>> serial(kScans);
  for (std::size_t s = 0; s < kScans; ++s) read_scan(s, serial[s]);

  for (int threads : {2, 8}) {
    core::ThreadPool pool(threads);
    std::vector<std::vector<double>> parallel(kScans);
    const auto before = arr.evaluation_count();
    pool.parallel_for(kScans, 1, [&](std::size_t b, std::size_t e, int) {
      for (std::size_t s = b; s < e; ++s) read_scan(s, parallel[s]);
    });
    EXPECT_EQ(arr.evaluation_count(), before + total_points);
    for (std::size_t s = 0; s < kScans; ++s)
      EXPECT_EQ(parallel[s], serial[s]) << "threads=" << threads << " s=" << s;
  }
}

TEST_F(LikelihoodArrayTest, KeyedIdealCurrentsMatchPointReads) {
  for (int dac_bits : {1, 4, 6, 8}) {
    LikelihoodArrayConfig cfg;
    cfg.dac_bits = dac_bits;
    cfg.total_columns = 60;
    core::Rng rng(73);
    const CimLikelihoodArray arr(cfg, three_components(), rng);
    EXPECT_EQ(arr.key_count(), std::uint32_t{1} << (3 * dac_bits));
    core::Rng prng(79);
    std::vector<core::Vec3> pts(21);
    for (auto& p : pts)
      p = {prng.uniform(0.0, 1.0), prng.uniform(0.0, 1.0),
           prng.uniform(0.0, 1.0)};
    pts[0] = {0.0, 0.0, 0.0};
    pts[1] = {1.0, 1.0, 1.0};
    pts[2] = {0.0, 1.0, 0.5};
    std::vector<std::uint32_t> keys;
    for (const auto& p : pts) {
      keys.push_back(arr.code_key(p));
      EXPECT_LT(keys.back(), arr.key_count());
    }
    EXPECT_EQ(keys[0], 0u);
    EXPECT_EQ(keys[1], arr.key_count() - 1);
    // One key per call runs the kernel's one-read tail; the batch runs
    // interleaved groups. Both sum each read in column order.
    std::vector<double> by_point(pts.size()), by_key(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
      by_point[i] = ideal_current(arr, pts[i]);
    const auto reads = arr.evaluation_count();
    const auto ideal = arr.ideal_current_count();
    arr.ideal_currents_by_key(keys, by_key);
    EXPECT_EQ(by_key, by_point) << "dac_bits=" << dac_bits;
    // Keyed currents are computed, not read: the caller books reads.
    EXPECT_EQ(arr.evaluation_count(), reads);
    EXPECT_EQ(arr.ideal_current_count(), ideal + keys.size());
    arr.record_reads(5);
    EXPECT_EQ(arr.evaluation_count(), reads + 5);
    // read_log is the noise + log-ADC step of read_log_likelihood.
    core::Rng a(83), b(83);
    for (std::size_t i = 0; i < pts.size(); ++i)
      EXPECT_EQ(arr.read_log(by_key[i], a), arr.read_log_likelihood(pts[i], b));
    EXPECT_EQ(a(), b());
  }
}

TEST_F(LikelihoodArrayTest, RejectsDacWiderThanTheCodeCube) {
  core::Rng rng(89);
  for (int dac_bits : {0, 9, 12}) {
    LikelihoodArrayConfig cfg;
    cfg.dac_bits = dac_bits;
    cfg.total_columns = 3;
    try {
      const CimLikelihoodArray arr(cfg, three_components(), rng);
      ADD_FAILURE() << "dac_bits=" << dac_bits << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("dac_bits must lie in [1, 8]"),
                std::string::npos)
          << e.what();
    }
  }
  LikelihoodArrayConfig widest;
  widest.dac_bits = CimLikelihoodArray::kMaxDacBits;
  widest.total_columns = 3;
  EXPECT_NO_THROW(CimLikelihoodArray(widest, three_components(), rng));
}

TEST_F(LikelihoodArrayTest, RejectsBadAdcConfig) {
  // Each bad ADC field is named at the boundary, instead of surfacing as
  // the log ADC's generic complaint about the range derived from it.
  core::Rng rng(91);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    int adc_bits;
    double peak_current_a, adc_floor_fraction;
    const char* field;
  };
  const LikelihoodArrayConfig d;
  const Case cases[] = {
      {0, d.peak_current_a, d.adc_floor_fraction, "adc_bits"},
      {LogAdc::kMaxBits + 1, d.peak_current_a, d.adc_floor_fraction,
       "adc_bits"},
      {-3, d.peak_current_a, d.adc_floor_fraction, "adc_bits"},
      {d.adc_bits, 0.0, d.adc_floor_fraction, "peak_current_a"},
      {d.adc_bits, -1e-6, d.adc_floor_fraction, "peak_current_a"},
      {d.adc_bits, nan, d.adc_floor_fraction, "peak_current_a"},
      {d.adc_bits, inf, d.adc_floor_fraction, "peak_current_a"},
      {d.adc_bits, d.peak_current_a, 0.0, "adc_floor_fraction"},
      {d.adc_bits, d.peak_current_a, -1e-6, "adc_floor_fraction"},
      {d.adc_bits, d.peak_current_a, 1.0, "adc_floor_fraction"},
      {d.adc_bits, d.peak_current_a, 2.0, "adc_floor_fraction"},
      {d.adc_bits, d.peak_current_a, nan, "adc_floor_fraction"},
  };
  for (const Case& c : cases) {
    LikelihoodArrayConfig cfg;
    cfg.total_columns = 3;
    cfg.adc_bits = c.adc_bits;
    cfg.peak_current_a = c.peak_current_a;
    cfg.adc_floor_fraction = c.adc_floor_fraction;
    try {
      const CimLikelihoodArray arr(cfg, three_components(), rng);
      ADD_FAILURE() << "adc_bits=" << c.adc_bits
                    << " peak_current_a=" << c.peak_current_a
                    << " adc_floor_fraction=" << c.adc_floor_fraction
                    << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
  for (int adc_bits : {1, LogAdc::kMaxBits}) {
    LikelihoodArrayConfig cfg;
    cfg.total_columns = 3;
    cfg.adc_bits = adc_bits;
    EXPECT_NO_THROW(CimLikelihoodArray(cfg, three_components(), rng))
        << adc_bits;
  }
}

TEST_F(LikelihoodArrayTest, RejectsBadReadNoise) {
  // A NaN or negative read-noise sigma would only throw at the first
  // noisy read, mid-update inside a pool worker: the constructor names
  // the field instead.
  core::Rng rng(97);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const NoiseParams defaults;
  struct Case {
    double shot_coeff_a, thermal_floor_a;
    const char* field;
  };
  const Case cases[] = {
      {-1e-3, defaults.thermal_floor_a, "noise.shot_coeff_a"},
      {nan, defaults.thermal_floor_a, "noise.shot_coeff_a"},
      {inf, defaults.thermal_floor_a, "noise.shot_coeff_a"},
      {defaults.shot_coeff_a, nan, "noise.thermal_floor_a"},
      {defaults.shot_coeff_a, inf, "noise.thermal_floor_a"},
      {defaults.shot_coeff_a, -2e-9, "noise.thermal_floor_a"},
  };
  for (const Case& c : cases) {
    LikelihoodArrayConfig cfg;
    cfg.total_columns = 3;
    cfg.noise.shot_coeff_a = c.shot_coeff_a;
    cfg.noise.thermal_floor_a = c.thermal_floor_a;
    try {
      const CimLikelihoodArray arr(cfg, three_components(), rng);
      ADD_FAILURE() << "shot_coeff_a=" << c.shot_coeff_a
                    << " thermal_floor_a=" << c.thermal_floor_a
                    << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
  LikelihoodArrayConfig zero;
  zero.total_columns = 3;
  zero.noise.shot_coeff_a = 0.0;
  zero.noise.thermal_floor_a = 0.0;
  const CimLikelihoodArray arr(zero, three_components(), rng);
  core::Rng nrng(101);
  EXPECT_TRUE(std::isfinite(arr.read_log_likelihood({0.5, 0.5, 0.5}, nrng)));
}

TEST_F(LikelihoodArrayTest, IdealCurrentCacheReturnsKernelBits) {
  for (int dac_bits : {1, 4, 6, 8}) {
    LikelihoodArrayConfig cfg;
    cfg.dac_bits = dac_bits;
    cfg.total_columns = 30;
    core::Rng rng(103);
    const CimLikelihoodArray arr(cfg, three_components(), rng);
    SCOPED_TRACE(::testing::Message() << "dac_bits=" << dac_bits);
    const std::size_t cap = arr.cache_capacity();
    EXPECT_EQ(cap, std::min<std::size_t>(CimLikelihoodArray::kCacheSets *
                                             CimLikelihoodArray::kCacheWays,
                                         arr.key_count()));
    // Twice the capacity in distinct keys (the whole cube when it is
    // smaller), spread over the cube by an odd stride.
    const std::size_t n = std::min<std::size_t>(2 * cap, arr.key_count());
    std::vector<std::uint32_t> keys(n);
    for (std::size_t i = 0; i < n; ++i)
      keys[i] = static_cast<std::uint32_t>((i * 769) % arr.key_count());
    std::vector<double> want(n);
    arr.ideal_currents_by_key(keys, want);

    // An empty cache misses every key, and a lookup advances no counter.
    const auto ideal = arr.ideal_current_count();
    const auto reads = arr.evaluation_count();
    constexpr double kMissing = CimLikelihoodArray::kMissingCurrent;
    std::vector<double> got(n);
    ASSERT_EQ(arr.lookup_cached_currents(keys, got), n);
    EXPECT_EQ(got, std::vector<double>(n, kMissing));

    // Once inserted past capacity, at most `cap` keys hit, every hit is
    // the kernel's bits, and the newest insert is never the one evicted.
    arr.cache_currents(keys, want);
    const std::size_t misses = arr.lookup_cached_currents(keys, got);
    EXPECT_GE(misses, n - cap);
    EXPECT_LT(misses, n);
    std::size_t marked = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (got[i] == kMissing) {
        ++marked;
      } else {
        EXPECT_EQ(got[i], want[i]) << i;
      }
    }
    EXPECT_EQ(marked, misses);
    EXPECT_EQ(got.back(), want.back());

    // A key already cached keeps its current: an insert racing another
    // thread's insert of the same key is skipped.
    const std::uint32_t last = keys.back();
    const double other = 0.5;
    arr.cache_currents({&last, 1}, {&other, 1});
    double hit = kMissing;
    EXPECT_EQ(arr.lookup_cached_currents({&last, 1}, {&hit, 1}), 0u);
    EXPECT_EQ(hit, want.back());
    EXPECT_EQ(arr.ideal_current_count(), ideal);
    EXPECT_EQ(arr.evaluation_count(), reads);
  }
}

TEST_F(LikelihoodArrayTest, RejectsBadConfig) {
  core::Rng rng(39);
  LikelihoodArrayConfig cfg;
  cfg.total_columns = 2;  // fewer than components
  EXPECT_THROW(CimLikelihoodArray(cfg, three_components(), rng),
               std::invalid_argument);
  EXPECT_THROW(CimLikelihoodArray(LikelihoodArrayConfig{}, {}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace cimnav::circuit
