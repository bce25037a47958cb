// The column kernel of the CIM macro.
//
// The kernel evaluates the bit-serial column readout of an 8T-SRAM
// array: given the gated input bit planes of one read, it produces the
// analog partial sums of a column range, applies the ADC model and the
// shift-add reduction, and writes scaled outputs. Everything *around* the
// kernel — quantization, bit-plane encoding, row gating, delta-item
// dispatch, stats — lives in CimMacro, which calls run_columns directly.
//
// Two functions share one signature and compute the same bits:
//
//  * run_columns         — the shipped kernel: packed-word popcounts with
//    a vectorized noise + ADC stage (AVX2 where the CPU supports it,
//    runtime-dispatched), otherwise scalar_run_columns.
//  * scalar_run_columns  — its portable body: the same lane-parallel
//    ziggurat noise and the same fused ADC rounding in scalar code. It is
//    run_columns' ideal path and non-AVX2 body, and the oracle the
//    conformance harness (tests/conformance/) checks run_columns against
//    bit for bit.
//
// A noisy read's noise is keyed off ONE draw of the caller's stream, so a
// seed gives the same results on every host.
#pragma once

#include <cstdint>

#include "core/rng.hpp"

namespace cimnav::cimsram {

/// Geometry + weight storage view of one macro, passed to the column
/// kernel. `weight_bits` holds the packed weight planes, contiguous per
/// column: weight_bits[((j*2 + sign)*planes + p)*words + w].
struct MacroView {
  const std::uint64_t* weight_bits = nullptr;
  int n_in = 0;       ///< physical rows (sets the ADC input range)
  int n_out = 0;      ///< physical columns
  int words = 0;      ///< packed 64-bit words per bit plane
  int planes = 0;     ///< weight magnitude planes (weight_bits - 1)
  int input_bits = 0;
  int adc_bits = 0;
  bool analog_noise = true;
  double noise_coeff = 0.0;
  /// Final output scaling y = acc * weight_scale * input_scale, applied in
  /// that order (two rounded products).
  double weight_scale = 1.0;
  double input_scale = 1.0;
};

// Shared contract of both kernels. They evaluate columns
// [col_begin, col_end) of one read; `out_mask` (nullable, n_out entries)
// gates columns — masked columns are written as 0.0. `rng` drives the
// analog disturbance (ignored when `ideal` or when the view disables
// noise). The ideal path is exact integer arithmetic in double, so any
// evaluation order produces the same bits on it.
//
// Dense read (`word_list == nullptr`): `gated_planes` holds input_bits x
// words packed words (encoding & row gate); `gated_rem` and `n_words`
// are ignored.
//
// Differential delta read (compute reuse, `word_list != nullptr`): ONE
// macro operation evaluates a signed partial sum. Word lines whose mask
// bit flipped ON drive the columns through `gated_planes` (encoding &
// add-gate); word lines that flipped OFF drive the complementary
// bit-lines through `gated_rem`. The column ADC performs a correlated
// double sample per cycle: each rail converts through the dense unsigned
// quantizer (bit-for-bit the dense read's code lattice, so delta
// accumulation tracks a dense re-read without drift), and the op emits
// the signed code difference — values in [-levels, +levels]. Either
// buffer may be nullptr (no flips in that direction); its rail reads
// zero, so a one-sided op degenerates to exactly the dense gated read
// over the flipped rows. `word_list` (`n_words` entries, sorted
// ascending, each in [0, view.words)) lists the union of packed words
// holding flipped rows; every unlisted word must be zero in BOTH buffers
// across all planes, so the scan cost tracks the flipped words, not the
// layer width.
//
// `active_rows` — the word lines actually driven (|A| + |D| on a delta
// read) — sets the noise sigma, noise_coeff * sqrt(active_rows).

/// The shipped kernel. An ideal read, or a null `rng`, runs the exact
/// reduction and consumes no draw. Every other read consumes exactly one
/// draw from `*rng` (ADC-only reads included), which keys the call's
/// noise: eight xoshiro256++ lanes feeding a 512-layer ziggurat, one
/// 8-aligned slice of draws per live column in column order.
void run_columns(const MacroView& view, const std::uint64_t* gated_planes,
                 const std::uint64_t* gated_rem,
                 const std::int32_t* word_list, int n_words,
                 std::uint64_t active_rows, const std::uint8_t* out_mask,
                 int col_begin, int col_end, bool ideal, core::Rng* rng,
                 double* y);

/// The portable body of run_columns: the same contract, rng use and bits
/// on every host.
void scalar_run_columns(const MacroView& view,
                        const std::uint64_t* gated_planes,
                        const std::uint64_t* gated_rem,
                        const std::int32_t* word_list, int n_words,
                        std::uint64_t active_rows,
                        const std::uint8_t* out_mask, int col_begin,
                        int col_end, bool ideal, core::Rng* rng, double* y);

}  // namespace cimnav::cimsram
