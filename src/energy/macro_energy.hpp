// Energy/throughput model of the 16 nm SRAM MC-Dropout macro (paper
// Sec. III-D): TOPS/W versus precision and MC iteration count, with and
// without compute reuse and sample ordering.
//
// Architecture (see tech.hpp): input-bit-serial cycles, weight bits merged
// in-column, one ADC conversion per active column per cycle. For a layer
// with R active rows and C active columns at b input bits:
//
//   cycles        = b
//   E_layer       = b * [ R * e_wl + C * (e_bl + e_adc(adc_bits) + e_sa) ]
//
// Compute reuse replaces a dense evaluation (R = all active rows) by a
// delta evaluation over the flipped rows only; sample ordering shrinks the
// expected flip count below the 2 p (1-p) N binomial mean.
#pragma once

#include <cstdint>
#include <vector>

#include "cimsram/cim_macro.hpp"
#include "energy/tech.hpp"

namespace cimnav::energy {

/// One dense layer's dimensions for the workload model.
struct LayerDims {
  int rows = 0;  ///< input neurons
  int cols = 0;  ///< output neurons
};

/// Energy of one analog evaluation of a layer with the given activity.
double layer_energy_j(int active_rows, int active_cols, int input_bits,
                      int adc_bits, const SramCim16nm& tech = {});

/// Energy of a *measured* activity snapshot: a cimsram::MacroStats
/// aggregate (one macro or a whole CimMlp via total_stats()) priced with
/// the same per-event costs as the analytic model. wordline_pulses are
/// word-line events and adc_conversions are column readouts (bit line +
/// ADC + shift-add), so this is the functional simulator's ground truth
/// counterpart to layer_energy_j. Word-line pulses are priced by wire
/// span: snapshots carrying MacroStats::wordline_col_drives charge
/// wordline_j scaled by (driven columns / tech.wordline_ref_cols) per
/// pulse, so a macro narrower than the reference width pays less per
/// pulse; span-free snapshots fall back to the flat reference-width
/// price.
double macro_stats_energy_j(const cimsram::MacroStats& stats, int adc_bits,
                            const SramCim16nm& tech = {});

/// Latency (seconds) of one evaluation: input_bits cycles at the clock.
double layer_latency_s(int input_bits, const SramCim16nm& tech = {});

/// Workload description of one full MC-Dropout prediction.
struct McWorkloadModel {
  std::vector<LayerDims> layers;
  int iterations = 30;
  double dropout_p = 0.5;
  int input_bits = 4;
  int adc_bits = 6;
  bool compute_reuse = false;
  /// Mean consecutive flip count at the reuse layer, as a fraction of the
  /// binomial expectation 2 p (1-p) N (1.0 = random order, < 1 with
  /// greedy ordering). Ignored unless compute_reuse.
  double ordering_gain = 1.0;
  bool rng_on_sram = true;  ///< CCI RNG vs LFSR for the dropout bits
};

/// Energy/throughput summary of one MC-Dropout prediction.
///
/// TOPS/W follows the paper's convention for "efficiency at T MC-Dropout
/// iterations": the *useful* work is one network inference (2 MACs per
/// weight), while the energy covers all T Monte-Carlo iterations plus
/// dropout-bit generation. The T-fold Monte-Carlo penalty therefore
/// depresses TOPS/W directly — which is exactly what compute reuse and
/// sample ordering claw back.
struct McEnergyReport {
  double energy_j = 0.0;        ///< total energy of the T-iteration prediction
  double rng_energy_j = 0.0;    ///< contribution of dropout-bit generation
  double latency_s = 0.0;       ///< serialized analog latency
  double ops = 0.0;             ///< useful ops = 2 * MACs of one inference
  double tops_per_watt = 0.0;   ///< ops / energy / 1e12
};

/// Evaluates the model. With compute_reuse, layer 0 runs dense once and
/// layer 1 is the reuse locus: iteration 1 runs dense, iterations 2..T
/// run delta evaluations over the expected flip count.
McEnergyReport mc_dropout_energy(const McWorkloadModel& workload,
                                 const SramCim16nm& tech = {});

}  // namespace cimnav::energy
