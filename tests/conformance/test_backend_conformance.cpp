// Column-kernel conformance sweep (see conformance.hpp next to this file
// and docs/conformance.md): cimsram::run_columns against the scalar
// oracle, one gtest parameter per input family.
//
// The binary also accepts
//   --repro="geom=... family=... mode=... dispatch=... seed=0x... tier=..."
// (the single-line repro printed by a failing check) to re-run exactly
// one case against run_columns and exit 0/1 — bypassing gtest entirely.
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cimsram/backend.hpp"
#include "conformance/conformance.hpp"

namespace conf = cimnav::cimsram::conformance;
using cimnav::cimsram::MacroView;

namespace {

// ------------------------------------------------------------- sweep

class ConformanceSweep : public ::testing::TestWithParam<conf::InputFamily> {
};

TEST_P(ConformanceSweep, AllCasesPass) {
  const auto cases = conf::cases_for(GetParam(), conf::tier_from_env());
  ASSERT_FALSE(cases.empty());
  int checks = 0;
  for (const auto& c : cases) {
    const auto r = conf::run_case(c);
    EXPECT_TRUE(r.pass) << r.failure;
    checks += r.checks;
  }
  EXPECT_GT(checks, 0);
}

INSTANTIATE_TEST_SUITE_P(Kernel, ConformanceSweep,
                         ::testing::ValuesIn(conf::families()),
                         [](const auto& info) {
                           return std::string(conf::to_string(info.param));
                         });

// -------------------------------------------------------- case table

TEST(ConformanceTable, CoversEveryBackendGeometryAndAllAxes) {
  const auto cases = conf::cases_for(conf::Tier::kQuick);
  ASSERT_FALSE(cases.empty());
  std::set<int> fams, modes, dispatches;
  std::set<std::pair<int, int>> geoms;
  for (const auto& c : cases) {
    fams.insert(static_cast<int>(c.family));
    modes.insert(static_cast<int>(c.mode));
    dispatches.insert(static_cast<int>(c.dispatch));
    geoms.insert({c.geom.n_in, c.geom.n_out});
  }
  EXPECT_EQ(fams.size(), 4u);
  EXPECT_EQ(modes.size(), 3u);
  EXPECT_EQ(dispatches.size(), 6u);
  EXPECT_GE(geoms.size(), 4u);
}

TEST(ConformanceTable, ReproRoundTripsEveryCase) {
  for (const auto& c : conf::cases_for(conf::Tier::kQuick)) {
    const auto back = conf::CaseSpec::parse_repro(c.repro());
    EXPECT_EQ(back.geom.n_in, c.geom.n_in);
    EXPECT_EQ(back.geom.n_out, c.geom.n_out);
    EXPECT_EQ(back.family, c.family);
    EXPECT_EQ(back.mode, c.mode);
    EXPECT_EQ(back.dispatch, c.dispatch);
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.tier, c.tier);
  }
  EXPECT_THROW(conf::CaseSpec::parse_repro("geom=97x24"),
               std::invalid_argument);
  // Geometry is rows x columns of one macro; there is no shard field.
  EXPECT_THROW(conf::CaseSpec::parse_repro("geom=97x24 shard=0x0 seed=0x1"),
               std::invalid_argument);
  EXPECT_THROW(conf::CaseSpec::parse_repro("geom=97x24 seed=0x1 mode=warp"),
               std::invalid_argument);
  // There is one kernel under test, so a backend field is rejected.
  EXPECT_THROW(
      conf::CaseSpec::parse_repro("backend=reference geom=97x24 seed=0x1"),
      std::invalid_argument);
}

// ---------------------------------------------------- broken kernels
//
// The acceptance gate for the harness itself: a deliberately broken
// column kernel, passed to run_case as the subject, must be caught by
// its own tier and by no other, and the repro line of its first failure,
// parsed back and run against the same kernel, must fail again. Each
// wraps the shipped kernel, so the defect is the only difference.

/// Nudges the first column by one scaled LSB on ideal reads: the ideal
/// bitwise tier must catch it.
void broken_bitwise(const MacroView& v, const std::uint64_t* planes,
                    const std::uint64_t* rem, const std::int32_t* word_list,
                    int n_words, std::uint64_t active_rows,
                    const std::uint8_t* out_mask, int col_begin, int col_end,
                    bool ideal, cimnav::core::Rng* rng, double* y) {
  cimnav::cimsram::run_columns(v, planes, rem, word_list, n_words,
                               active_rows, out_mask, col_begin, col_end,
                               ideal, rng, y);
  if (ideal) y[col_begin] += v.weight_scale * v.input_scale;
}

/// Inflates the disturbance sigma by 1.8x on noisy dense reads only. The
/// ideal, ADC-only and delta paths are untouched; the statistical tier's
/// stddev-ratio bound must catch it.
void broken_noise(const MacroView& v, const std::uint64_t* planes,
                  const std::uint64_t* rem, const std::int32_t* word_list,
                  int n_words, std::uint64_t active_rows,
                  const std::uint8_t* out_mask, int col_begin, int col_end,
                  bool ideal, cimnav::core::Rng* rng, double* y) {
  MacroView loud = v;
  if (word_list == nullptr) loud.noise_coeff = v.noise_coeff * 1.8;
  cimnav::cimsram::run_columns(loud, planes, rem, word_list, n_words,
                               active_rows, out_mask, col_begin, col_end,
                               ideal, rng, y);
}

/// Dense reads run untouched; the differential read drops the last listed
/// packed word from the scan — the classic sparse-gate bookkeeping bug a
/// delta kernel can have while every dense tier stays bit-perfect. The
/// delta tier must catch it.
void broken_delta(const MacroView& v, const std::uint64_t* planes,
                  const std::uint64_t* rem, const std::int32_t* word_list,
                  int n_words, std::uint64_t active_rows,
                  const std::uint8_t* out_mask, int col_begin, int col_end,
                  bool ideal, cimnav::core::Rng* rng, double* y) {
  cimnav::cimsram::run_columns(v, planes, rem, word_list,
                               n_words > 1 ? n_words - 1 : n_words,
                               active_rows, out_mask, col_begin, col_end,
                               ideal, rng, y);
}

/// Runs the quick table against `kernel`: some case of `own_tier` must
/// fail (the first with `expected_label`), no other case may, and the
/// first failure's repro must reproduce it.
void expect_caught_only_by(conf::ColumnKernel kernel,
                           const std::function<bool(const conf::CaseSpec&)>&
                               own_tier,
                           const char* expected_label) {
  int own = 0;
  std::string first_failure;
  for (const auto& c : conf::cases_for(conf::Tier::kQuick)) {
    const auto r = conf::run_case(c, kernel);
    if (r.pass) continue;
    if (own_tier(c)) {
      ++own;
      if (first_failure.empty()) first_failure = r.failure;
    } else {
      ADD_FAILURE() << "caught outside its tier: " << r.failure;
    }
  }
  EXPECT_GT(own, 0) << "its own tier missed the defect";
  ASSERT_NE(first_failure.find(expected_label), std::string::npos)
      << first_failure;
  const auto at = first_failure.find("repro: ");
  ASSERT_NE(at, std::string::npos);
  const auto spec = conf::CaseSpec::parse_repro(first_failure.substr(at + 7));
  EXPECT_FALSE(conf::run_case(spec, kernel).pass);
  EXPECT_TRUE(conf::run_case(spec).pass) << "run_columns must pass it";
}

TEST(ConformanceCatchesBrokenBackends, BitwiseTierCatchesIdealDefect) {
  expect_caught_only_by(
      &broken_bitwise,
      [](const conf::CaseSpec& c) {
        return c.mode == conf::NoiseMode::kIdeal;
      },
      "ideal/");
}

TEST(ConformanceCatchesBrokenBackends, DeltaAxisCatchesDeltaDefect) {
  expect_caught_only_by(
      &broken_delta,
      [](const conf::CaseSpec& c) {
        return c.dispatch == conf::Dispatch::kDelta;
      },
      "delta/");
}

TEST(ConformanceCatchesBrokenBackends, StatisticalTierCatchesNoiseDefect) {
  expect_caught_only_by(
      &broken_noise,
      [](const conf::CaseSpec& c) {
        return c.mode == conf::NoiseMode::kAnalog &&
               c.dispatch == conf::Dispatch::kBatch;
      },
      "analog/stddev");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--repro=", 0) == 0) {
      try {
        const auto spec = conf::CaseSpec::parse_repro(arg.substr(8));
        const auto r = conf::run_case(spec);
        if (r.pass)
          std::printf("PASS (%d checks): %s\n", r.checks,
                      spec.repro().c_str());
        else
          std::printf("FAIL: %s\n", r.failure.c_str());
        return r.pass ? 0 : 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
