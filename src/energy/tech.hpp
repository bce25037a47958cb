// Technology parameter tables for the energy models.
//
// Every calibrated constant in the reproduction lives here, with its
// provenance. Two nodes matter: the 45 nm inverter-array localization
// front-end (paper Fig. 2i: 374 fJ per likelihood, 25x vs an 8-bit digital
// GMM processor) and the 16 nm SRAM MC-Dropout macro (paper Sec. III-D:
// 3.04 TOPS/W @ 4 b, ~2 TOPS/W @ 6 b, 1 GHz, 0.85 V, 30 MC iterations).
//
// Digital per-op energies follow the energy-efficient-accelerator figures
// of merit popularized by Horowitz (ISSCC'14), scaled to the node; analog
// constants are chosen so that the *model structure* (how energy scales
// with columns, bits, components and iterations) lands on the paper's
// reported operating points. The headline ratios then *emerge* from the
// model rather than being hard-coded (see bench_fig2i_energy and
// bench_tops_per_watt).
#pragma once

namespace cimnav::energy {

/// 45 nm digital datapath (the "8-bit GMM processor" baseline).
struct Digital45nm {
  double mac8_j = 20e-15;   ///< 8-bit multiply-accumulate [J]
  double add8_j = 5e-15;    ///< 8-bit add [J]
  double lut_read_j = 25e-15;  ///< small-SRAM LUT read (exp/log) [J]
};

/// 45 nm floating-gate inverter array (likelihood engine, Fig. 2a).
struct InverterArray45nm {
  double vdd_v = 1.0;
  /// Average bump current of one conducting column during evaluation [A].
  /// The peak is ~1 uA; averaged over the applied operating points the
  /// effective draw is about half of that.
  double avg_column_current_a = 0.48e-6;
  double evaluation_window_s = 1.5e-9;  ///< settle + read time
  /// DAC energy per conversion at 4 bits [J]; scales linearly with bits.
  double dac4_j = 2.0e-15;
  /// Logarithmic ADC energy per conversion at 4 bits [J]; SAR-style 2^b
  /// scaling is applied relative to 4 bits.
  double log_adc4_j = 8.0e-15;
};

/// 16 nm SRAM CIM macro (MC-Dropout engine, Fig. 3a).
///
/// Architecture assumed by the paper's numbers: input-bit-serial
/// evaluation (one analog cycle per input bit), multi-bit weights merged
/// in the column via binary-weighted charge combination, one ADC
/// conversion per active column per cycle. Per-cycle energy is then
/// nearly precision-independent, which is exactly why the reported
/// efficiency falls only ~1.5x from 4 b to 6 b (cycles scale with input
/// bits) instead of the ~2.5x a fully bit-sliced datapath would show.
struct SramCim16nm {
  double clock_hz = 1.0e9;
  double vdd_v = 0.85;
  /// Word-line pulse energy per active row per cycle [J], calibrated for
  /// an array wordline_ref_cols columns wide.
  double wordline_j = 9.2e-15;
  /// Array width the word-line constant is calibrated at. A word line is
  /// a wire across the whole array, so pulse energy scales with the
  /// driven column count: a 64-column macro pays wordline_j * 64 / 128
  /// per pulse. Used by macro_stats_energy_j when the activity snapshot
  /// carries MacroStats::wordline_col_drives.
  double wordline_ref_cols = 128.0;
  /// Bit-line / column compute-and-sample energy per active column per
  /// cycle [J] (charge redistribution across the weight-bit caps).
  double bitline_j = 142.0e-15;
  /// Column ADC conversion [J] at the reference 6-bit resolution; 2^b
  /// SAR scaling applied relative to 6 bits.
  double adc6_j = 318.0e-15;
  /// Digital shift-add and accumulation per conversion [J].
  double shift_add_j = 50.0e-15;
  /// SRAM-embedded CCI RNG energy per dropout bit [J] (precharge +
  /// regeneration of one cross-coupled pair; orders cheaper than an LFSR
  /// fed through clock distribution, which is the point of Fig. 3b).
  double rng_bit_j = 0.4e-15;
  /// Conventional LFSR + distribution energy per bit [J] (baseline).
  double lfsr_bit_j = 5.0e-15;
};

}  // namespace cimnav::energy
