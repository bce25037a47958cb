// Unit tests for the SRAM-embedded RNG and the 8T CIM macro: gate packing,
// the macro itself, the column kernel's rng contract and the distribution
// of its read noise. Kernel equivalence (bitwise against the portable
// oracle) lives in the conformance harness — tests/conformance/ sweeps
// randomized geometry/input/noise/dispatch cases, so hand-written
// equivalence tests do not belong here.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "cimsram/backend.hpp"
#include "cimsram/cim_macro.hpp"
#include "cimsram/sram_rng.hpp"
#include "core/rng.hpp"
#include "conformance/stat_tolerances.hpp"
#include "core/stats.hpp"

namespace cimnav::cimsram {
namespace {

using core::Rng;
namespace tol = core::tol;

TEST(SramRng, BitsAreRandomAfterCalibration) {
  Rng process(3), noise(5);
  SramRng rng(SramRngParams{}, process);
  rng.calibrate(4096, noise);
  const double bias = rng.measure_bias(20000, noise);
  EXPECT_NEAR(bias, 0.5, tol::kBitBiasTol);
}

TEST(SramRng, CalibrationReducesBias) {
  SramRngParams p;
  p.comparator_offset_sigma_a = 4e-10;  // strong offset -> visible bias
  Rng process(7), noise(9);
  SramRng rng(p, process);
  const double before = rng.measure_bias(8000, noise);
  rng.calibrate(8192, noise);
  const double after = rng.measure_bias(8000, noise);
  EXPECT_LT(std::abs(after - 0.5), std::abs(before - 0.5) + 0.01);
  EXPECT_NEAR(after, 0.5, tol::kBitBiasCalibratedTol);
}

TEST(SramRng, MoreRowsReduceRelativeOffset) {
  // The paper's Fig. 3(b) physics, part 1: the systematic bundle offset
  // relative to the total leakage shrinks as 1/sqrt(rows).
  auto relative_offset = [](int rows) {
    double total = 0.0;
    const int trials = 24;
    for (int t = 0; t < trials; ++t) {
      SramRngParams p;
      p.rows = rows;
      p.comparator_offset_sigma_a = 0.0;
      Rng process(100 + static_cast<std::uint64_t>(t));
      SramRng rng(p, process);
      const double mean_leak = p.leak_nominal_a * rows *
                               p.columns_per_side * 2.0;
      total += std::abs(rng.systematic_offset_a()) / mean_leak;
    }
    return total / trials;
  };
  EXPECT_LT(relative_offset(256), 0.5 * relative_offset(16));
}

TEST(SramRng, MoreRowsFilterMismatchIntoBias) {
  // Part 2: with supply-jitter noise proportional to total current, the
  // shrinking relative offset turns into raw bias approaching 1/2.
  auto mean_abs_bias = [](int rows) {
    double total = 0.0;
    const int trials = 24;
    for (int t = 0; t < trials; ++t) {
      SramRngParams p;
      p.rows = rows;
      p.comparator_offset_sigma_a = 0.0;
      p.supply_jitter_coeff = 0.02;  // jitter-dominated instance
      Rng process(100 + static_cast<std::uint64_t>(t)), noise(7);
      SramRng rng(p, process);
      total += std::abs(rng.measure_bias(3000, noise) - 0.5);
    }
    return total / trials;
  };
  EXPECT_LT(mean_abs_bias(256), mean_abs_bias(16));
}

TEST(SramRng, BitsAreSeriallyUncorrelated) {
  Rng process(11), noise(13);
  SramRng rng(SramRngParams{}, process);
  rng.calibrate(4096, noise);
  std::vector<double> bits;
  for (int i = 0; i < 20000; ++i)
    bits.push_back(rng.next_bit(noise) ? 1.0 : 0.0);
  // Lag-1 autocorrelation should vanish.
  std::vector<double> a(bits.begin(), bits.end() - 1);
  std::vector<double> b(bits.begin() + 1, bits.end());
  EXPECT_NEAR(core::pearson_correlation(a, b), 0.0, tol::kAutocorrTol);
}

TEST(SramRng, BernoulliResolutionControlsP) {
  Rng process(17), noise(19);
  SramRng rng(SramRngParams{}, process);
  rng.calibrate(4096, noise);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    ones += rng.bernoulli(0.25, 8, noise) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.25, tol::kBitBiasTol);
}

TEST(SramRng, DropoutMaskHasExpectedDensity) {
  Rng process(23), noise(29);
  SramRng rng(SramRngParams{}, process);
  rng.calibrate(4096, noise);
  const auto mask = rng.dropout_mask(10000, noise);
  int ones = 0;
  for (auto b : mask) ones += b;
  EXPECT_NEAR(ones / 10000.0, 0.5, tol::kBitBiasTol);
}

TEST(SramRng, CountsGeneratedBits) {
  Rng process(31), noise(37);
  SramRng rng(SramRngParams{}, process);
  const auto before = rng.bits_generated();
  rng.dropout_mask(100, noise);
  EXPECT_EQ(rng.bits_generated(), before + 100);
}

TEST(Lfsr, BalancedAndDeterministic) {
  Lfsr a(0x1234), b(0x1234);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const bool bit = a.next_bit();
    EXPECT_EQ(bit, b.next_bit());
    ones += bit ? 1 : 0;
  }
  EXPECT_NEAR(ones / 10000.0, 0.5, 0.03);
}

TEST(Lfsr, ZeroSeedIsRescued) {
  Lfsr l(0);
  bool any_one = false;
  for (int i = 0; i < 64; ++i) any_one = any_one || l.next_bit();
  EXPECT_TRUE(any_one);
}

// Shared helpers for the macro tests.
std::vector<double> random_weights(int n_out, int n_in, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(static_cast<std::size_t>(n_out) *
                        static_cast<std::size_t>(n_in));
  for (auto& v : w) v = rng.normal(0.0, 0.3);
  return w;
}
std::vector<double> random_input(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform();
  return x;
}
std::vector<double> reference_matvec(const std::vector<double>& w, int n_out,
                                     int n_in, const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(n_out), 0.0);
  for (int o = 0; o < n_out; ++o)
    for (int i = 0; i < n_in; ++i)
      y[static_cast<std::size_t>(o)] +=
          w[static_cast<std::size_t>(o) * n_in + static_cast<std::size_t>(i)] *
          x[static_cast<std::size_t>(i)];
  return y;
}

TEST(CimMacroTest, IdealMatchesFloatWithinQuantError) {
  const int n_out = 16, n_in = 48;
  const auto w = random_weights(n_out, n_in, 3);
  const auto x = random_input(n_in, 5);
  CimMacroConfig cfg;
  cfg.input_bits = 8;
  cfg.weight_bits = 8;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 255.0);
  const auto y = matvec(macro, x, {}, {}, nullptr);
  const auto ref = reference_matvec(w, n_out, n_in, x);
  for (int o = 0; o < n_out; ++o) {
    EXPECT_NEAR(y[static_cast<std::size_t>(o)], ref[static_cast<std::size_t>(o)],
                0.05);
  }
}

struct BitsCase {
  int bits;
  double tolerance;
};

class MacroPrecisionTest : public ::testing::TestWithParam<BitsCase> {};

TEST_P(MacroPrecisionTest, ErrorShrinksWithPrecision) {
  const int n_out = 12, n_in = 40;
  Rng wrng(7);
  std::vector<double> w(static_cast<std::size_t>(n_out * n_in));
  for (auto& v : w) v = wrng.normal(0.0, 0.3);
  std::vector<double> x(static_cast<std::size_t>(n_in));
  for (auto& v : x) v = wrng.uniform();

  CimMacroConfig cfg;
  cfg.input_bits = GetParam().bits;
  cfg.weight_bits = GetParam().bits;
  cfg.adc_bits = 10;  // isolate input/weight quantization
  const CimMacro macro(w, n_out, n_in, cfg,
                       1.0 / ((1 << GetParam().bits) - 1));
  const auto y = matvec(macro, x, {}, {}, nullptr);
  double err = 0.0, mag = 0.0;
  for (int o = 0; o < n_out; ++o) {
    double ref = 0.0;
    for (int i = 0; i < n_in; ++i)
      ref += w[static_cast<std::size_t>(o * n_in + i)] *
             x[static_cast<std::size_t>(i)];
    err += std::abs(y[static_cast<std::size_t>(o)] - ref);
    mag += std::abs(ref);
  }
  EXPECT_LT(err / mag, GetParam().tolerance);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MacroPrecisionTest,
                         ::testing::Values(BitsCase{4, 0.30},
                                           BitsCase{6, 0.08},
                                           BitsCase{8, 0.02},
                                           BitsCase{10, 0.006}));

TEST(CimMacroTest, InputMaskZerosContribution) {
  const int n_out = 8, n_in = 16;
  const auto w = random_weights(n_out, n_in, 11);
  std::vector<double> x(static_cast<std::size_t>(n_in), 0.5);
  CimMacroConfig cfg;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
  std::vector<std::uint8_t> none(static_cast<std::size_t>(n_in), 0);
  const auto y = matvec(macro, x, none, {}, nullptr);
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(CimMacroTest, OutputMaskSkipsColumns) {
  const int n_out = 8, n_in = 16;
  const auto w = random_weights(n_out, n_in, 13);
  const auto x = random_input(n_in, 17);
  CimMacroConfig cfg;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n_out), 1);
  mask[3] = 0;
  const auto y = matvec(macro, x, {}, mask, nullptr);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
  const auto full = matvec(macro, x, {}, {}, nullptr);
  for (int o = 0; o < n_out; ++o) {
    if (o == 3) continue;
    EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(o)],
                     full[static_cast<std::size_t>(o)]);
  }
}

TEST(CimMacroTest, RowSubsetsAddUpExactlyInIdealMode) {
  // The delta rule's foundation: W x|_A + W x|_B == W x when A and B
  // partition the active rows (exact for the noise-free quantized macro).
  const int n_out = 10, n_in = 32;
  const auto w = random_weights(n_out, n_in, 19);
  const auto x = random_input(n_in, 23);
  CimMacroConfig cfg;
  cfg.analog_noise = false;
  cfg.adc_bits = 12;  // effectively lossless column readout
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);

  std::vector<std::uint8_t> rows_a(static_cast<std::size_t>(n_in), 0);
  std::vector<std::uint8_t> rows_b(static_cast<std::size_t>(n_in), 0);
  for (int i = 0; i < n_in; ++i)
    (i % 2 == 0 ? rows_a : rows_b)[static_cast<std::size_t>(i)] = 1;
  Rng rng(29);
  const auto ya = matvec(macro, x, rows_a, {}, &rng);
  const auto yb = matvec(macro, x, rows_b, {}, &rng);
  const auto yfull = matvec(macro, x, {}, {}, &rng);
  for (int o = 0; o < n_out; ++o) {
    EXPECT_NEAR(ya[static_cast<std::size_t>(o)] + yb[static_cast<std::size_t>(o)],
                yfull[static_cast<std::size_t>(o)], 1e-9);
  }
}

TEST(CimMacroTest, AnalogNoiseScalesWithActiveRows) {
  const int n_out = 1, n_in = 64;
  std::vector<double> w(static_cast<std::size_t>(n_in), 0.3);
  std::vector<double> x(static_cast<std::size_t>(n_in), 0.8);
  CimMacroConfig cfg;
  cfg.adc_bits = 14;  // make quantization negligible vs noise
  cfg.noise_coeff = 0.5;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
  Rng rng(31);
  core::RunningStats few, many;
  std::vector<std::uint8_t> rows_few(static_cast<std::size_t>(n_in), 0);
  rows_few[0] = rows_few[1] = rows_few[2] = rows_few[3] = 1;
  for (int k = 0; k < 400; ++k) {
    many.add(matvec(macro, x, {}, {}, &rng)[0]);
    few.add(matvec(macro, x, rows_few, {}, &rng)[0]);
  }
  EXPECT_GT(many.stddev(), few.stddev());
}

TEST(CimMacroTest, CoarseAdcAddsError) {
  const int n_out = 6, n_in = 40;
  const auto w = random_weights(n_out, n_in, 37);
  const auto x = random_input(n_in, 41);
  auto rel_err = [&](int adc_bits) {
    CimMacroConfig cfg;
    cfg.analog_noise = false;
    cfg.adc_bits = adc_bits;
    const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
    Rng rng(43);
    const auto y = matvec(macro, x, {}, {}, &rng);
    const auto ref = matvec(macro, x, {}, {}, nullptr);
    double e = 0.0, m = 0.0;
    for (int o = 0; o < n_out; ++o) {
      e += std::abs(y[static_cast<std::size_t>(o)] -
                    ref[static_cast<std::size_t>(o)]);
      m += std::abs(ref[static_cast<std::size_t>(o)]);
    }
    return e / m;
  };
  EXPECT_GT(rel_err(3), rel_err(6));
  EXPECT_GT(rel_err(6), rel_err(10) - 1e-12);
}

TEST(CimMacroTest, StatsTrackActivity) {
  const int n_out = 8, n_in = 16;
  const auto w = random_weights(n_out, n_in, 47);
  const auto x = random_input(n_in, 53);
  CimMacroConfig cfg;
  cfg.input_bits = 4;
  cfg.weight_bits = 4;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 15.0);
  Rng rng(59);
  matvec(macro, x, {}, {}, &rng);
  const auto& s = macro.stats();
  EXPECT_EQ(s.matvec_calls, 1u);
  // cycles = 2 signs * 3 planes * 4 input bits = 24
  EXPECT_EQ(s.analog_cycles, 24u);
  EXPECT_EQ(s.wordline_pulses, 24u * 16u);
  EXPECT_EQ(s.adc_conversions, 24u * 8u);
  EXPECT_EQ(s.nominal_macs, static_cast<std::uint64_t>(n_in) * n_out);
  // Every pulse drives the full array width, masked columns included.
  EXPECT_EQ(s.wordline_col_drives,
            s.wordline_pulses * static_cast<std::uint64_t>(n_out));

  // Masked call counts only active rows/cols.
  std::vector<std::uint8_t> in_mask(static_cast<std::size_t>(n_in), 1);
  in_mask[0] = in_mask[1] = 0;
  std::vector<std::uint8_t> out_mask(static_cast<std::size_t>(n_out), 1);
  out_mask[7] = 0;
  macro.reset_stats();
  matvec(macro, x, in_mask, out_mask, &rng);
  const auto m = macro.stats();
  EXPECT_EQ(m.wordline_pulses, 24u * 14u);
  EXPECT_EQ(m.adc_conversions, 24u * 7u);
  EXPECT_EQ(m.wordline_col_drives,
            m.wordline_pulses * static_cast<std::uint64_t>(n_out));

  // Aggregation operators: snapshot sums and deltas.
  const auto sum = s + m;
  EXPECT_EQ(sum.adc_conversions, s.adc_conversions + m.adc_conversions);
  EXPECT_EQ(sum.wordline_col_drives,
            s.wordline_col_drives + m.wordline_col_drives);
  const auto delta = s - m;  // one column fewer converted per cycle
  EXPECT_EQ(delta.adc_conversions, 24u);
}

TEST(CimMacroTest, RejectsBadArguments) {
  CimMacroConfig cfg;
  EXPECT_THROW(CimMacro({1.0}, 1, 2, cfg, 1.0), std::invalid_argument);
  // Bit widths are checked before the constructor derives the weight grid
  // from 1 << (weight_bits - 1) (a negative shift at weight_bits = 0).
  const auto w = random_weights(16, 16, 251);
  for (const int bits : {0, 13}) {
    CimMacroConfig bad = cfg;
    bad.weight_bits = bits;
    EXPECT_THROW(CimMacro(w, 16, 16, bad, 1.0), std::invalid_argument)
        << "weight_bits=" << bits;
  }
  CimMacroConfig bad_input = cfg;
  bad_input.input_bits = 0;
  EXPECT_THROW(CimMacro(w, 16, 16, bad_input, 1.0), std::invalid_argument);
  CimMacroConfig bad_adc = cfg;
  bad_adc.adc_bits = 17;
  EXPECT_THROW(CimMacro(w, 16, 16, bad_adc, 1.0), std::invalid_argument);
  EXPECT_THROW(CimMacro(w, 16, 16, cfg, 0.0), std::invalid_argument);
  // noise_coeff must be finite and non-negative: a NaN sigma reads 0 on
  // the AVX2 kernel body and NaN on the scalar one.
  for (const double coeff : {std::nan(""), HUGE_VAL, -0.03}) {
    CimMacroConfig bad_noise = cfg;
    bad_noise.noise_coeff = coeff;
    EXPECT_THROW(CimMacro(w, 16, 16, bad_noise, 1.0), std::invalid_argument)
        << "noise_coeff=" << coeff;
  }
  CimMacroConfig noiseless = cfg;
  noiseless.noise_coeff = 0.0;
  EXPECT_NO_THROW(CimMacro(w, 16, 16, noiseless, 1.0));
  const CimMacro macro({0.5, -0.5}, 1, 2, cfg, 1.0);
  Rng rng(61);
  EXPECT_THROW(matvec(macro, {1.0}, {}, {}, &rng), std::invalid_argument);
  EXPECT_THROW(matvec(macro, {1.0, 1.0}, {1, 1, 1}, {}, &rng),
               std::invalid_argument);
  EXPECT_THROW(matvec(macro, {1.0, 1.0}, {}, {1, 1}, &rng),
               std::invalid_argument);
}

TEST(CimMacroTest, GatedMatvecValidatesRowGateWidth) {
  // Regression: the engine core used to index a caller-provided packed row
  // gate without checking its width; a short gate read out of bounds.
  const int n_out = 4, n_in = 100;  // 100 rows -> 2 packed gate words
  const auto w = random_weights(n_out, n_in, 71);
  const auto x = random_input(n_in, 73);
  CimMacroConfig cfg;
  cfg.input_bits = 4;
  cfg.weight_bits = 4;
  const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 15.0);
  ASSERT_EQ(macro.gate_words(), 2);
  Rng rng(79);
  EncodedInput enc;
  macro.encode_input(x, enc);
  std::vector<double> y;

  std::vector<std::uint64_t> short_gate(1, ~std::uint64_t{0});
  EXPECT_THROW(macro.matvec_encoded(enc, short_gate, {}, &rng, y),
               std::invalid_argument);
  std::vector<std::uint64_t> long_gate(3, ~std::uint64_t{0});
  EXPECT_THROW(macro.matvec_encoded(enc, long_gate, {}, &rng, y),
               std::invalid_argument);

  // A correctly-sized all-ones gate matches the unmasked product exactly
  // in the ideal sense: same active rows, same stats accounting.
  std::vector<std::uint64_t> gate;
  pack_row_mask({}, n_in, gate);
  macro.reset_stats();
  macro.matvec_encoded(enc, gate, {}, &rng, y);
  EXPECT_EQ(y.size(), static_cast<std::size_t>(n_out));
  EXPECT_EQ(macro.stats().wordline_pulses,
            macro.stats().analog_cycles * static_cast<std::uint64_t>(n_in));
}

// ---------------------------------------------------------------------------
// Gate packing edge cases.
// ---------------------------------------------------------------------------

TEST(PackRowMask, EmptyMaskActivatesExactlyNRows) {
  std::vector<std::uint64_t> gate;
  pack_row_mask({}, 100, gate);  // not a multiple of 64
  ASSERT_EQ(gate.size(), 2u);
  int active = 0;
  for (std::uint64_t g : gate) active += std::popcount(g);
  EXPECT_EQ(active, 100);
  // Bits at and above n_rows must stay clear (they would read as phantom
  // active rows in the engine's popcount).
  EXPECT_EQ(gate[1] >> (100 - 64), 0u);
}

TEST(PackRowMask, PartialWordMaskSetsExactBits) {
  std::vector<std::uint8_t> mask(70, 0);
  mask[0] = mask[63] = mask[64] = mask[69] = 1;
  std::vector<std::uint64_t> gate;
  pack_row_mask(mask, 70, gate);
  ASSERT_EQ(gate.size(), 2u);
  EXPECT_EQ(gate[0], (std::uint64_t{1} << 0) | (std::uint64_t{1} << 63));
  EXPECT_EQ(gate[1], (std::uint64_t{1} << 0) | (std::uint64_t{1} << 5));
}

TEST(PackRowMask, WrongSizeThrows) {
  std::vector<std::uint64_t> gate;
  std::vector<std::uint8_t> mask(8, 1);
  EXPECT_THROW(pack_row_mask(mask, 9, gate), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Column kernel rng contract.
//
// run_columns and its portable body scalar_run_columns advance the
// caller's stream identically: an ideal read, or a null rng, consumes no
// draw; every other read consumes exactly one, ADC-only reads included.
// ---------------------------------------------------------------------------

TEST(ColumnKernel, RunColumnsConsumesOneDrawPerNonIdealRead) {
  for (const auto kernel : {&run_columns, &scalar_run_columns}) {
    const int n_out = 9, n_in = 70;
    const auto w = random_weights(n_out, n_in, 83);
    const auto x = random_input(n_in, 89);
    for (const bool analog : {true, false}) {
      CimMacroConfig cfg;
      cfg.analog_noise = analog;
      const CimMacro macro(w, n_out, n_in, cfg, 1.0 / 63.0);
      EncodedInput enc;
      macro.encode_input(x, enc);
      std::vector<std::uint64_t> gate;
      pack_row_mask({}, n_in, gate);
      std::vector<std::uint64_t> gated(enc.planes.size());
      for (std::size_t i = 0; i < gated.size(); ++i)
        gated[i] = enc.planes[i] & gate[i % gate.size()];
      std::vector<double> y(static_cast<std::size_t>(n_out));
      // Delta read: rows 0..9 flipped on, the last row flipped off.
      std::vector<std::uint64_t> add(gated.size(), 0), rem(gated.size(), 0);
      const std::size_t words = gate.size();
      for (std::size_t b = 0; b < gated.size() / words; ++b) {
        add[b * words] = enc.planes[b * words] & 0x3FFu;
        rem[b * words + 1] =
            enc.planes[b * words + 1] & (std::uint64_t{1} << (n_in - 1 - 64));
      }
      const std::int32_t word_list[] = {0, 1};

      const auto read = [&](bool delta, bool ideal, Rng* rng) {
        if (delta)
          kernel(macro.view(), add.data(), rem.data(), word_list, 2, 11,
                 nullptr, 0, n_out, ideal, rng, y.data());
        else
          kernel(macro.view(), gated.data(), nullptr, nullptr, 0,
                 static_cast<std::uint64_t>(n_in), nullptr, 0, n_out, ideal,
                 rng, y.data());
      };
      for (const bool delta : {false, true}) {
        Rng rng(97), expected(97);
        read(delta, /*ideal=*/true, &rng);
        read(delta, /*ideal=*/false, nullptr);
        EXPECT_EQ(rng(), expected()) << "an ideal read consumed a draw";
        read(delta, /*ideal=*/false, &rng);
        expected();
        EXPECT_EQ(rng(), expected())
            << "scalar=" << (kernel == &scalar_run_columns)
            << " analog=" << analog << " delta=" << delta
            << ": a non-ideal read must consume exactly one draw";
      }
    }
  }
}

// The read noise is N(0, sigma^2) per cycle. A hand-built view makes every
// column a two-cycle read (planes = input_bits = 1, so wtab = {+1, -1})
// whose sign planes each drive 64 of 128 rows: both counts sit at mid-scale,
// sixteen sigma from either ADC rail, so no draw clamps. A 12-bit ADC puts
// 128 codes in one sigma, so each column's output in count units is the
// difference of its two cycles' draws, N(0, 2 sigma^2), up to a rounding
// variance of step^2 / 6 (5e-6 of it). 2,000 reads of 2,000 columns give
// 4 x 10^6 differences of 8 x 10^6 draws, from one fixed seed; each bound
// is five standard errors of its estimate.
TEST(ColumnKernel, ReadNoiseIsNormalWithTheConfiguredSigma) {
  constexpr int kCols = 2000, kReads = 2000, kRows = 128;
  constexpr double kSigma = 4.0;  // counts
  std::vector<std::uint64_t> weights;
  for (int j = 0; j < kCols; ++j)
    weights.insert(weights.end(), {~0ull, 0ull, 0ull, ~0ull});
  const std::vector<std::uint64_t> planes = {~0ull, ~0ull};
  MacroView v;
  v.weight_bits = weights.data();
  v.n_in = kRows;
  v.n_out = kCols;
  v.words = 2;
  v.planes = 1;
  v.input_bits = 1;
  v.adc_bits = 12;
  v.noise_coeff = kSigma / std::sqrt(static_cast<double>(kRows));
  const double adc_step = kRows / 4095.0;
  std::vector<double> y(kCols);
  Rng rng(2024);
  double sum = 0.0, sum_sq = 0.0;
  long tail = 0;
  const double tail_edge = 2.0 * std::sqrt(2.0) * kSigma;
  for (int r = 0; r < kReads; ++r) {
    scalar_run_columns(v, planes.data(), nullptr, nullptr, 0, kRows, nullptr,
                       0, kCols, /*ideal=*/false, &rng, y.data());
    for (const double d : y) {
      sum += d;
      sum_sq += d * d;
      if (std::abs(d) > tail_edge) ++tail;
    }
  }
  const double n = static_cast<double>(kCols) * kReads;
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  const double want_var = 2.0 * kSigma * kSigma + adc_step * adc_step / 6.0;
  EXPECT_NEAR(mean, 0.0, 5.0 * std::sqrt(want_var / n));
  EXPECT_NEAR(var / want_var, 1.0, 5.0 * std::sqrt(2.0 / n));
  // Two-sided 2-sigma tail of a normal: 4.550%.
  constexpr double kTail = 0.0455003;
  EXPECT_NEAR(static_cast<double>(tail) / n, kTail,
              5.0 * std::sqrt(kTail * (1.0 - kTail) / n));
}

}  // namespace
}  // namespace cimnav::cimsram
