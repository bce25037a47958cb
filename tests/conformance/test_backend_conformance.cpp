// Backend conformance sweep (see conformance.hpp next to this file and
// docs/conformance.md). One gtest parameter per (backend x input family):
// the parameter list is built from cimsram::backend_names() at static
// init, so registering a new backend makes it inherit every family shard
// of the suite with no test code written.
//
// The binary also accepts
//   --repro="backend=... geom=... shard=... family=... mode=... \
//            dispatch=... seed=0x... tier=..."
// (the single-line repro printed by a failing check) to re-run exactly
// one case and exit 0/1 — bypassing gtest entirely.
#include <cctype>
#include <cstdio>
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
using cimnav::cimsram::BackendCaps;
using cimnav::cimsram::ComputeBackend;
using cimnav::cimsram::MacroView;

namespace {

// ------------------------------------------------------------- sweep

struct SweepParam {
  std::string backend;
  conf::InputFamily family;
};

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (const auto& b : cimnav::cimsram::backend_names())
    for (auto f : conf::families()) out.push_back({b, f});
  return out;
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string n = info.param.backend;
  n += '_';
  n += conf::to_string(info.param.family);
  for (char& ch : n)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return n;
}

class ConformanceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConformanceSweep, AllCasesPass) {
  const auto& p = GetParam();
  const auto cases = conf::cases_for(p.backend, p.family,
                                     conf::tier_from_env());
  ASSERT_FALSE(cases.empty());
  int checks = 0;
  for (const auto& c : cases) {
    const auto r = conf::run_case(c);
    EXPECT_TRUE(r.pass) << r.failure;
    checks += r.checks;
  }
  EXPECT_GT(checks, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ConformanceSweep,
                         ::testing::ValuesIn(sweep_params()), sweep_name);

// -------------------------------------------------------- case table

TEST(ConformanceTable, CoversEveryBackendShardGridsAndAllAxes) {
  const auto names = cimnav::cimsram::backend_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "reference");
  int sharded_geoms = 0;
  for (const auto& g : conf::geometries(conf::Tier::kQuick))
    if (g.sharded()) ++sharded_geoms;
  EXPECT_GE(sharded_geoms, 2);
  for (const auto& b : names) {
    const auto cases = conf::cases_for(b, conf::Tier::kQuick);
    ASSERT_FALSE(cases.empty()) << b;
    // All four axes must vary within one backend's table.
    std::set<int> fams, modes, dispatches;
    std::set<std::pair<int, int>> geoms;
    for (const auto& c : cases) {
      fams.insert(static_cast<int>(c.family));
      modes.insert(static_cast<int>(c.mode));
      dispatches.insert(static_cast<int>(c.dispatch));
      geoms.insert({c.geom.n_in, c.geom.max_rows});
    }
    EXPECT_EQ(fams.size(), 4u) << b;
    EXPECT_EQ(modes.size(), 3u) << b;
    EXPECT_EQ(dispatches.size(), 5u) << b;
    EXPECT_GE(geoms.size(), 4u) << b;
  }
}

TEST(ConformanceTable, ReproRoundTripsEveryCase) {
  for (const auto& c : conf::cases_for("bitsliced", conf::Tier::kQuick)) {
    const auto back = conf::CaseSpec::parse_repro(c.repro());
    EXPECT_EQ(back.backend, c.backend);
    EXPECT_EQ(back.geom.n_in, c.geom.n_in);
    EXPECT_EQ(back.geom.n_out, c.geom.n_out);
    EXPECT_EQ(back.geom.max_rows, c.geom.max_rows);
    EXPECT_EQ(back.geom.max_cols, c.geom.max_cols);
    EXPECT_EQ(back.family, c.family);
    EXPECT_EQ(back.mode, c.mode);
    EXPECT_EQ(back.dispatch, c.dispatch);
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.tier, c.tier);
  }
  EXPECT_THROW(conf::CaseSpec::parse_repro("backend=reference"),
               std::invalid_argument);
  EXPECT_THROW(
      conf::CaseSpec::parse_repro(
          "backend=reference geom=97x24 seed=0x1 mode=warp"),
      std::invalid_argument);
}

// --------------------------------------------------- broken backends
//
// The acceptance gate for the harness itself: a deliberately broken
// backend registered through the public register_backend hook must be
// caught — a bitwise defect by the ideal tier, a noise-model defect by
// the statistical tier. Registered inside the test bodies, the toys
// never join the INSTANTIATE sweep above (its parameter list was
// materialized at static init).

/// Delegates to "reference", then nudges the first column by one scaled
/// LSB. Ideal path wrong -> bitwise tier must catch it.
class BrokenBitwiseBackend final : public ComputeBackend {
 public:
  std::string_view name() const override { return "broken_bitwise"; }
  void run_columns(const MacroView& v, const std::uint64_t* planes,
                   std::uint64_t active_rows, const std::uint8_t* out_mask,
                   int col_begin, int col_end, bool ideal, cimnav::core::Rng* rng,
                   double* y) const override {
    cimnav::cimsram::backend("reference")
        .run_columns(v, planes, active_rows, out_mask, col_begin, col_end,
                     ideal, rng, y);
    y[col_begin] += v.weight_scale * v.input_scale;
  }
};

/// Inflates the disturbance sigma by 1.8x on the noisy path only. The
/// ideal and ADC-only paths are untouched (bitwise tiers pass); the
/// statistical tier's stddev-ratio bound must catch it.
class BrokenNoiseBackend final : public ComputeBackend {
 public:
  std::string_view name() const override { return "broken_noise"; }
  void run_columns(const MacroView& v, const std::uint64_t* planes,
                   std::uint64_t active_rows, const std::uint8_t* out_mask,
                   int col_begin, int col_end, bool ideal, cimnav::core::Rng* rng,
                   double* y) const override {
    MacroView loud = v;
    if (!ideal && v.analog_noise) loud.noise_coeff = v.noise_coeff * 1.8;
    cimnav::cimsram::backend("reference")
        .run_columns(loud, planes, active_rows, out_mask, col_begin, col_end,
                     ideal, rng, y);
  }
};

/// Dense reads delegate to "reference" untouched; the differential read
/// drops the last listed packed word from the scan — the classic
/// sparse-gate bookkeeping bug a delta kernel can have while every dense
/// tier stays bit-perfect. The delta dispatch axis must catch it.
class BrokenDeltaBackend final : public ComputeBackend {
 public:
  std::string_view name() const override { return "broken_delta"; }
  void run_columns(const MacroView& v, const std::uint64_t* planes,
                   std::uint64_t active_rows, const std::uint8_t* out_mask,
                   int col_begin, int col_end, bool ideal, cimnav::core::Rng* rng,
                   double* y) const override {
    cimnav::cimsram::backend("reference")
        .run_columns(v, planes, active_rows, out_mask, col_begin, col_end,
                     ideal, rng, y);
  }
  void run_columns_delta(const MacroView& v, const std::uint64_t* gated_add,
                         const std::uint64_t* gated_rem,
                         const std::int32_t* word_list, int n_words,
                         std::uint64_t active_rows,
                         const std::uint8_t* out_mask, int col_begin,
                         int col_end, bool ideal, cimnav::core::Rng* rng,
                         double* y) const override {
    cimnav::cimsram::backend("reference")
        .run_columns_delta(v, gated_add, gated_rem, word_list,
                           n_words > 1 ? n_words - 1 : n_words, active_rows,
                           out_mask, col_begin, col_end, ideal, rng, y);
  }
};

const BrokenBitwiseBackend& broken_bitwise() {
  static const BrokenBitwiseBackend b;
  static const bool once = cimnav::cimsram::register_backend(&b);
  (void)once;
  return b;
}

const BrokenDeltaBackend& broken_delta() {
  static const BrokenDeltaBackend b;
  static const bool once = cimnav::cimsram::register_backend(&b);
  (void)once;
  return b;
}

const BrokenNoiseBackend& broken_noise() {
  static const BrokenNoiseBackend b;
  static const bool once = cimnav::cimsram::register_backend(&b);
  (void)once;
  return b;
}

TEST(ConformanceCatchesBrokenBackends, BitwiseTierCatchesIdealDefect) {
  broken_bitwise();
  int ideal_failures = 0;
  std::string first_failure;
  for (const auto& c : conf::cases_for("broken_bitwise", conf::Tier::kQuick)) {
    if (c.mode != conf::NoiseMode::kIdeal) continue;
    const auto r = conf::run_case(c);
    if (!r.pass) {
      ++ideal_failures;
      if (first_failure.empty()) first_failure = r.failure;
    }
  }
  EXPECT_GT(ideal_failures, 0)
      << "ideal bitwise tier missed a one-LSB output defect";
  ASSERT_NE(first_failure.find("repro: "), std::string::npos);

  // The embedded repro line must reproduce the failure on its own.
  const auto spec = conf::CaseSpec::parse_repro(
      first_failure.substr(first_failure.find("repro: ") + 7));
  EXPECT_FALSE(conf::run_case(spec).pass);
}

TEST(ConformanceCatchesBrokenBackends, DeltaAxisCatchesDeltaDefect) {
  broken_delta();
  int delta_failures = 0, other_failures = 0;
  std::string first_failure;
  for (const auto& c : conf::cases_for("broken_delta", conf::Tier::kQuick)) {
    const auto r = conf::run_case(c);
    if (r.pass) continue;
    if (c.dispatch == conf::Dispatch::kDelta) {
      ++delta_failures;
      if (first_failure.empty()) first_failure = r.failure;
    } else {
      ++other_failures;
    }
  }
  EXPECT_GT(delta_failures, 0)
      << "delta dispatch axis missed a dropped-word delta defect";
  EXPECT_EQ(other_failures, 0)
      << "a delta-only defect must not trip the dense tiers";
  ASSERT_NE(first_failure.find("repro: "), std::string::npos);

  const auto spec = conf::CaseSpec::parse_repro(
      first_failure.substr(first_failure.find("repro: ") + 7));
  EXPECT_FALSE(conf::run_case(spec).pass);
}

TEST(ConformanceCatchesBrokenBackends, StatisticalTierCatchesNoiseDefect) {
  broken_noise();
  int analog_failures = 0, bitwise_failures = 0;
  std::string first_failure;
  for (const auto& c : conf::cases_for("broken_noise", conf::Tier::kQuick)) {
    const auto r = conf::run_case(c);
    if (r.pass) continue;
    if (c.mode == conf::NoiseMode::kAnalog &&
        c.dispatch == conf::Dispatch::kBatch) {
      ++analog_failures;
      if (first_failure.empty()) first_failure = r.failure;
    } else if (c.mode != conf::NoiseMode::kAnalog) {
      ++bitwise_failures;
    }
  }
  EXPECT_GT(analog_failures, 0)
      << "statistical tier missed a 1.8x noise-sigma defect";
  EXPECT_EQ(bitwise_failures, 0)
      << "a noise-only defect must not trip the deterministic tiers";
  ASSERT_NE(first_failure.find("analog/stddev"), std::string::npos)
      << first_failure;

  const auto spec = conf::CaseSpec::parse_repro(
      first_failure.substr(first_failure.find("repro: ") + 7));
  EXPECT_FALSE(conf::run_case(spec).pass);
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
