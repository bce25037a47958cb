#include "energy/macro_energy.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cimnav::energy {

double layer_energy_j(int active_rows, int active_cols, int input_bits,
                      int adc_bits, const SramCim16nm& tech) {
  CIMNAV_REQUIRE(active_rows >= 0 && active_cols >= 0, "activity must be >= 0");
  CIMNAV_REQUIRE(input_bits >= 1, "need at least one input bit");
  const double adc_j =
      tech.adc6_j * std::pow(2.0, static_cast<double>(adc_bits - 6));
  const double per_cycle =
      static_cast<double>(active_rows) * tech.wordline_j +
      static_cast<double>(active_cols) * (tech.bitline_j + adc_j +
                                          tech.shift_add_j);
  return static_cast<double>(input_bits) * per_cycle;
}

double macro_stats_energy_j(const cimsram::MacroStats& stats, int adc_bits,
                            const SramCim16nm& tech) {
  CIMNAV_REQUIRE(adc_bits >= 1, "need at least one adc bit");
  const double adc_j =
      tech.adc6_j * std::pow(2.0, static_cast<double>(adc_bits - 6));
  // Word-line drive scales with the wire span (the physical array width
  // each pulse crosses): wordline_j is calibrated at wordline_ref_cols
  // columns, and wordline_col_drives accumulates (pulses x driven
  // columns), so narrow arrays are charged proportionally less.
  // Snapshots without the span counter (hand-built stats) fall back to
  // flat per-pulse pricing at the reference width.
  const double wordline_j =
      stats.wordline_col_drives > 0
          ? static_cast<double>(stats.wordline_col_drives) *
                (tech.wordline_j / tech.wordline_ref_cols)
          : static_cast<double>(stats.wordline_pulses) * tech.wordline_j;
  return wordline_j + static_cast<double>(stats.adc_conversions) *
                          (tech.bitline_j + adc_j + tech.shift_add_j);
}

double layer_latency_s(int input_bits, const SramCim16nm& tech) {
  CIMNAV_REQUIRE(input_bits >= 1, "need at least one input bit");
  return static_cast<double>(input_bits) / tech.clock_hz;
}

McEnergyReport mc_dropout_energy(const McWorkloadModel& w,
                                 const SramCim16nm& tech) {
  CIMNAV_REQUIRE(!w.layers.empty(), "need at least one layer");
  CIMNAV_REQUIRE(w.iterations >= 1, "need at least one iteration");
  CIMNAV_REQUIRE(w.dropout_p >= 0.0 && w.dropout_p < 1.0,
                 "dropout p must lie in [0, 1)");
  CIMNAV_REQUIRE(w.ordering_gain > 0.0 && w.ordering_gain <= 1.0,
                 "ordering gain must lie in (0, 1]");

  const double keep = 1.0 - w.dropout_p;
  McEnergyReport r;

  double mask_bits = 0.0;
  for (std::size_t l = 0; l < w.layers.size(); ++l) {
    const auto& dims = w.layers[l];
    // Expected active neurons under dropout (hidden sites drop rows of
    // the next layer and columns of this one; the output layer keeps all
    // columns).
    const double active_rows = static_cast<double>(dims.rows) *
                               (l == 0 ? 1.0 : keep);
    const double active_cols =
        static_cast<double>(dims.cols) *
        (l + 1 < w.layers.size() ? keep : 1.0);

    const bool is_reuse_locus = w.compute_reuse && l == 1 &&
                                w.layers.size() >= 2;
    const bool frozen_first = w.compute_reuse && l == 0;

    for (int t = 0; t < w.iterations; ++t) {
      double rows_this_iter = active_rows;
      double cols_this_iter = active_cols;
      if (frozen_first) {
        // Layer 0 is mask-independent: computed once, reused T-1 times.
        if (t > 0) continue;
        rows_this_iter = static_cast<double>(dims.rows);
        cols_this_iter = static_cast<double>(dims.cols);
      } else if (is_reuse_locus && t > 0) {
        // Delta evaluation over the expected mask flips. The accumulator
        // keeps every column live (so it survives output-mask changes).
        rows_this_iter = 2.0 * w.dropout_p * keep *
                         static_cast<double>(dims.rows) * w.ordering_gain;
        cols_this_iter = static_cast<double>(dims.cols);
      } else if (is_reuse_locus) {
        cols_this_iter = static_cast<double>(dims.cols);
      }
      r.energy_j += layer_energy_j(static_cast<int>(std::lround(rows_this_iter)),
                                   static_cast<int>(std::lround(cols_this_iter)),
                                   w.input_bits, w.adc_bits, tech);
      r.latency_s += layer_latency_s(w.input_bits, tech);
    }

    // Dropout bits: one per maskable neuron per iteration (hidden sites).
    if (l + 1 < w.layers.size())
      mask_bits += static_cast<double>(dims.cols) *
                   static_cast<double>(w.iterations);

    // Useful ops: one inference's worth (the prediction the application
    // consumes), independent of how many MC iterations produced it.
    r.ops += 2.0 * active_rows * active_cols;
  }

  r.rng_energy_j =
      mask_bits * (w.rng_on_sram ? tech.rng_bit_j : tech.lfsr_bit_j);
  r.energy_j += r.rng_energy_j;
  r.tops_per_watt = r.ops / r.energy_j / 1.0e12;
  return r;
}

}  // namespace cimnav::energy
