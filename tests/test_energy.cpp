// Unit tests for the energy models: the Fig. 2(i) likelihood comparison
// and the Sec. III-D TOPS/W model, including the paper's headline numbers.
#include <gtest/gtest.h>

#include <cstdint>

#include "cimsram/cim_macro.hpp"
#include "energy/likelihood_energy.hpp"
#include "energy/macro_energy.hpp"
#include "energy/tech.hpp"

namespace cimnav::energy {
namespace {

TEST(LikelihoodEnergy, PaperOperatingPointFig2i) {
  // 500 columns emulating 100 mixture components at 4 bits, 45 nm:
  // the paper reports 374 fJ and a 25x advantage over the 8-bit digital
  // GMM processor. The model must land close without hard-coding.
  const auto cim = cim_likelihood_energy(500, 4, 4);
  EXPECT_NEAR(cim.total_j * 1e15, 374.0, 15.0);
  const auto digital = digital_gmm_likelihood_energy(100);
  const double ratio = digital.total_j / cim.total_j;
  EXPECT_GT(ratio, 20.0);
  EXPECT_LT(ratio, 30.0);
}

TEST(LikelihoodEnergy, DigitalScalesLinearlyWithComponents) {
  const auto e50 = digital_gmm_likelihood_energy(50);
  const auto e100 = digital_gmm_likelihood_energy(100);
  EXPECT_NEAR(e100.total_j / e50.total_j, 2.0, 1e-9);
}

TEST(LikelihoodEnergy, CimColumnsDominateAtScale) {
  const auto e = cim_likelihood_energy(500, 4, 4);
  EXPECT_GT(e.columns_j, e.dac_j + e.adc_j);
  // Converter overhead amortizes: halving columns does not halve total.
  const auto e2 = cim_likelihood_energy(250, 4, 4);
  EXPECT_GT(e2.total_j, 0.5 * e.total_j);
}

TEST(LikelihoodEnergy, AdcEnergyGrowsExponentially) {
  const auto e4 = cim_likelihood_energy(500, 4, 4);
  const auto e8 = cim_likelihood_energy(500, 4, 8);
  EXPECT_NEAR(e8.adc_j / e4.adc_j, 16.0, 1e-9);
}

TEST(LikelihoodEnergy, RejectsBadArgs) {
  EXPECT_THROW(digital_gmm_likelihood_energy(0), std::invalid_argument);
  EXPECT_THROW(cim_likelihood_energy(0, 4, 4), std::invalid_argument);
}

McWorkloadModel paper_workload(int bits) {
  McWorkloadModel w;
  w.layers = {{144, 64}, {64, 32}, {32, 4}};
  w.iterations = 30;
  w.dropout_p = 0.5;
  w.input_bits = bits;
  w.adc_bits = 6;
  return w;
}

TEST(MacroEnergy, PaperHeadlineTopsPerWatt) {
  // Sec. III-D: 3.04 TOPS/W at 4 bits, ~2 TOPS/W at 6 bits for 30
  // MC-Dropout iterations at 1 GHz / 0.85 V / 16 nm.
  const auto r4 = mc_dropout_energy(paper_workload(4));
  const auto r6 = mc_dropout_energy(paper_workload(6));
  EXPECT_NEAR(r4.tops_per_watt, 3.04, 0.3);
  EXPECT_NEAR(r6.tops_per_watt, 2.0, 0.25);
  // The 4b/6b ratio tracks the input-bit-serial cycle count (~1.5).
  EXPECT_NEAR(r4.tops_per_watt / r6.tops_per_watt, 1.5, 0.08);
}

TEST(MacroEnergy, EfficiencyFallsWithIterations) {
  auto w10 = paper_workload(4);
  w10.iterations = 10;
  auto w100 = paper_workload(4);
  w100.iterations = 100;
  EXPECT_GT(mc_dropout_energy(w10).tops_per_watt,
            mc_dropout_energy(w100).tops_per_watt);
}

TEST(MacroEnergy, ComputeReuseImprovesEfficiency) {
  for (int bits : {4, 6, 8}) {
    auto base = paper_workload(bits);
    auto reuse = base;
    reuse.compute_reuse = true;
    EXPECT_GT(mc_dropout_energy(reuse).tops_per_watt,
              mc_dropout_energy(base).tops_per_watt)
        << bits << " bits";
  }
}

TEST(MacroEnergy, OrderingGainCompoundsWithReuse) {
  auto reuse = paper_workload(4);
  reuse.compute_reuse = true;
  auto ordered = reuse;
  ordered.ordering_gain = 0.7;
  EXPECT_GT(mc_dropout_energy(ordered).tops_per_watt,
            mc_dropout_energy(reuse).tops_per_watt);
}

TEST(MacroEnergy, SramRngCheaperThanLfsr) {
  auto on_sram = paper_workload(4);
  auto lfsr = paper_workload(4);
  lfsr.rng_on_sram = false;
  const auto a = mc_dropout_energy(on_sram);
  const auto b = mc_dropout_energy(lfsr);
  EXPECT_LT(a.rng_energy_j, b.rng_energy_j);
  EXPECT_GE(a.tops_per_watt, b.tops_per_watt);
}

TEST(MacroEnergy, LatencyCountsCycles) {
  const SramCim16nm tech;
  EXPECT_NEAR(layer_latency_s(4, tech), 4e-9, 1e-15);
  EXPECT_NEAR(layer_latency_s(8, tech), 8e-9, 1e-15);
}

TEST(MacroEnergy, LayerEnergyScalesWithActivity) {
  const double full = layer_energy_j(128, 64, 4, 6);
  const double half_rows = layer_energy_j(64, 64, 4, 6);
  const double half_cols = layer_energy_j(128, 32, 4, 6);
  EXPECT_GT(full, half_rows);
  EXPECT_GT(full, half_cols);
  EXPECT_DOUBLE_EQ(layer_energy_j(0, 0, 4, 6), 0.0);
}

TEST(MacroEnergy, DropoutReducesExpectedEnergy) {
  auto dense = paper_workload(4);
  dense.dropout_p = 0.0;
  auto dropped = paper_workload(4);
  dropped.dropout_p = 0.5;
  EXPECT_LT(mc_dropout_energy(dropped).energy_j,
            mc_dropout_energy(dense).energy_j);
}

TEST(MacroEnergy, StatsEnergyMatchesLayerModelOnEquivalentActivity) {
  // One analytic layer evaluation (R rows, C cols, b input-bit cycles)
  // corresponds to a MacroStats snapshot with b*R word-line pulses and
  // b*C column readouts; the measured-activity pricing must agree.
  const int rows = 96, cols = 48, bits = 4, adc = 6;
  cimsram::MacroStats s;
  s.wordline_pulses = static_cast<std::uint64_t>(bits) * rows;
  s.adc_conversions = static_cast<std::uint64_t>(bits) * cols;
  EXPECT_DOUBLE_EQ(macro_stats_energy_j(s, adc),
                   layer_energy_j(rows, cols, bits, adc));
  // Aggregated snapshots price linearly.
  EXPECT_DOUBLE_EQ(macro_stats_energy_j(s + s, adc),
                   2.0 * macro_stats_energy_j(s, adc));
  EXPECT_THROW(macro_stats_energy_j(s, 0), std::invalid_argument);
}

TEST(MacroEnergy, WordlineEnergyScalesWithDrivenColumnSpan) {
  // A pulse on a 64-column macro drives half the wire of a pulse on the
  // 128-column reference array, so it must cost half the word-line
  // energy. ADC activity is zeroed to isolate the word-line term.
  const SramCim16nm tech;
  cimsram::MacroStats narrow, reference;
  narrow.wordline_pulses = 1000;
  narrow.wordline_col_drives = 1000 * 64;
  reference.wordline_pulses = 1000;
  reference.wordline_col_drives =
      1000 * static_cast<std::uint64_t>(tech.wordline_ref_cols);
  EXPECT_DOUBLE_EQ(macro_stats_energy_j(narrow, 6),
                   0.5 * macro_stats_energy_j(reference, 6));
  // At the reference width, span pricing reproduces the flat price.
  EXPECT_DOUBLE_EQ(macro_stats_energy_j(reference, 6),
                   1000.0 * tech.wordline_j);
  // Snapshots without the span counter fall back to flat pricing.
  cimsram::MacroStats flat;
  flat.wordline_pulses = 1000;
  EXPECT_DOUBLE_EQ(macro_stats_energy_j(flat, 6), 1000.0 * tech.wordline_j);
}

TEST(MacroEnergy, RejectsBadWorkloads) {
  McWorkloadModel w;
  EXPECT_THROW(mc_dropout_energy(w), std::invalid_argument);
  w.layers = {{10, 10}};
  w.iterations = 0;
  EXPECT_THROW(mc_dropout_energy(w), std::invalid_argument);
  w.iterations = 1;
  w.ordering_gain = 0.0;
  EXPECT_THROW(mc_dropout_energy(w), std::invalid_argument);
}

}  // namespace
}  // namespace cimnav::energy
