// 8T-SRAM compute-in-memory macro (paper Fig. 3a) — execution architecture.
//
// Physical model. A macro stores a quantized weight matrix and computes
// output = W x by bit-serial, bit-sliced analog accumulation: weights are
// signed integers split into differential (positive/negative) columns of
// weight_bits-1 binary planes; inputs are unsigned integers applied one
// bit per cycle on the read word lines; each cycle every active column
// develops an analog partial sum proportional to the number of
// (input bit & weight bit) coincidences, read by a per-column ADC over the
// full row range and shift-added digitally. MC-Dropout masks map onto the
// ports: an input mask gates word lines (CL AND) and an output mask gates
// whole columns (RL AND), so dropped neurons cost neither word-line energy
// nor ADC conversions. Analog non-ideality is a Gaussian disturbance per
// column sum with sigma = noise_coeff * sqrt(active_rows), plus the ADC's
// quantization.
//
// Execution architecture (this header): CimMacro is one programmed
// array. Its compute surface is three primitives — encode_input,
// matvec_encoded (dense read) and matvec_delta_batch (delta read) —
// which CimMlp, the MC-Dropout engine, the VO pipeline and the energy
// model call directly. Encoding, row gating, delta-item dispatch and
// stats live here; both reads end in one call of the column kernel
// run_columns (backend.hpp: the gated coincidence counts, noise and ADC
// for a column range).
//
// Both reads are physical macro operations. encode_input quantizes and
// bit-plane-expands an input once into an EncodedInput that any number of
// row gates can replay; matvec_encoded gates it and reads every column
// (a null rng selects the ideal, noise-free read); matvec_delta_batch
// runs differential reads for compute reuse, fanned over a
// core::ThreadPool with one noise stream per item, so results are
// bit-identical at any thread count. The free matvec() helper composes
// encode + dense read for one-shot callers. Reading many samples is the
// caller's loop over concurrent matvec_encoded calls (CimMlp's window
// engines, the conformance harness).
//
// The hot path is allocation-free: row gates are packed 64-bit words and
// all scratch lives in a per-thread workspace. Activity counters are
// atomic, may be updated from concurrent workers, and aggregate across
// layers via the MacroStats operators.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "cimsram/backend.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace cimnav::cimsram {

/// Static configuration of a macro instance.
struct CimMacroConfig {
  int input_bits = 6;    ///< bit-serial activation precision (unsigned)
  int weight_bits = 6;   ///< signed weight precision (magnitude bits = w-1)
  int adc_bits = 6;      ///< per-column partial-sum ADC resolution
  bool analog_noise = true;
  /// Column-sum disturbance sigma in row-count units per sqrt(active row);
  /// finite and non-negative.
  double noise_coeff = 0.03;
};

/// Cumulative activity counters for energy/throughput accounting.
struct MacroStats {
  std::uint64_t matvec_calls = 0;
  std::uint64_t wordline_pulses = 0;   ///< (active rows) x cycles
  /// Sum over word-line pulses of the columns each pulse drives (the
  /// physical array width n_out, not the mask-gated column count): a word
  /// line spans the whole array, so its drive energy scales with the wire
  /// length and a narrow layer is cheaper per pulse than a wide one; see
  /// energy::macro_stats_energy_j, which prices pulses through this span
  /// (and falls back to flat per-pulse pricing when the counter is zero,
  /// e.g. for hand-built snapshots).
  std::uint64_t wordline_col_drives = 0;
  std::uint64_t adc_conversions = 0;
  std::uint64_t analog_cycles = 0;     ///< input-bit x plane x sign cycles
  std::uint64_t nominal_macs = 0;      ///< active_in x active_out per call

  /// Aggregation across macros (snapshot semantics).
  MacroStats& operator+=(const MacroStats& o);
  /// Activity delta between two snapshots of one counter set.
  MacroStats& operator-=(const MacroStats& o);
  friend MacroStats operator+(MacroStats a, const MacroStats& b) {
    return a += b;
  }
  friend MacroStats operator-(MacroStats a, const MacroStats& b) {
    return a -= b;
  }
};

/// RAII thread-local capture of macro accounting: while an instance is
/// alive on a thread, every accounting event that thread performs (on any
/// macro) is ALSO added, non-atomically, into `*sink` — the
/// macros' own lifetime counters keep advancing unchanged, so captured
/// per-item stats sum back to the counter delta exactly. Captures nest;
/// the innermost sink wins and the previous one is restored on
/// destruction (a null sink suspends capture for the scope).
///
/// This is how the dense-window VO path attributes stage-B activity to
/// individual frames exactly: a read accounts on the worker that runs
/// it, so a capture scoped around one (frame, iteration) work item sees
/// precisely that item's accounting.
class ScopedStatsCapture {
 public:
  // Out-of-line on purpose: every access to the thread-local sink lives
  // in cim_macro.cpp next to its definition (GCC 12's UBSan mis-reports
  // cross-TU inline TLS stores as null-pointer stores).
  explicit ScopedStatsCapture(MacroStats* sink);
  ~ScopedStatsCapture();
  ScopedStatsCapture(const ScopedStatsCapture&) = delete;
  ScopedStatsCapture& operator=(const ScopedStatsCapture&) = delete;

  /// The calling thread's current capture sink (nullptr when none).
  static MacroStats* active_sink();

 private:
  MacroStats* prev_;
  static thread_local MacroStats* active_sink_;
};

/// Quantized input expanded into packed word-line bit planes: bit b of
/// input row i lives at planes[b * words + i/64] bit i%64. Encoding is
/// mask-independent, so one EncodedInput serves every dropout mask of a
/// frame (the amortization MC-Dropout batching relies on).
struct EncodedInput {
  std::vector<std::uint64_t> planes;
};

/// Per-thread scratch of the zero-allocation read path (cim_macro.cpp).
struct MacroWorkspace;

/// Packs a 0/1 per-row mask (empty = all active) into word-line gate words.
/// Bits at and above n_rows are left clear.
void pack_row_mask(const std::vector<std::uint8_t>& mask, int n_rows,
                   std::vector<std::uint64_t>& gate);

/// One pooled delta-dispatch work item (compute reuse): a differential
/// read of `enc` — the `n_add` word lines in `add_rows` (mask bits that
/// flipped on) drive positively, the `n_rem` lines in `rem_rows` (bits
/// that flipped off) drive the complementary bit-lines — writing the net
/// signed partial sum W x|A - W x|D to `y` (n_out values) in ONE macro
/// operation. Analog noise comes from `*rng`. When `stats` is non-null
/// the item's exact accounting is mirrored there (ScopedStatsCapture
/// semantics) so callers can attribute energy per-chain / per-frame; a
/// null `stats` suspends any capture enclosing the batch call for the
/// item's read. Items of one batch must carry distinct `rng` objects —
/// they may run on different workers concurrently. At least one list must
/// be non-empty.
struct DeltaItem {
  const EncodedInput* enc = nullptr;
  const std::size_t* add_rows = nullptr;
  std::size_t n_add = 0;
  const std::size_t* rem_rows = nullptr;
  std::size_t n_rem = 0;
  core::Rng* rng = nullptr;
  double* y = nullptr;
  MacroStats* stats = nullptr;
};

/// A programmed CIM macro holding one layer's weight matrix.
class CimMacro {
 public:
  /// Quantizes and stores `weights` (row-major, n_out x n_in) on a
  /// per-tensor symmetric grid. The input scale maps real activations
  /// onto the unsigned input grid:
  /// q_x = clamp(round(x / input_scale), 0, 2^input_bits - 1), evaluated
  /// as x * (1 / input_scale) with a precomputed reciprocal — exact ties
  /// may land one code away from the exact-division grid (irrelevant
  /// under the analog noise model, and the ADC clamp bounds it). Throws
  /// std::invalid_argument on bad dims, bit widths outside the modeled
  /// ranges, a non-finite or negative noise_coeff or a non-positive input
  /// scale.
  CimMacro(const std::vector<double>& weights, int n_out, int n_in,
           const CimMacroConfig& config, double input_scale);

  CimMacro(const CimMacro&) = delete;
  CimMacro& operator=(const CimMacro&) = delete;

  int n_in() const { return n_in_; }
  int n_out() const { return n_out_; }
  /// Packed 64-bit words per word-line bit plane (= ceil(n_in / 64)).
  int gate_words() const { return words_; }
  double input_scale() const { return input_scale_; }
  const CimMacroConfig& config() const { return config_; }

  /// Quantizes and bit-plane-expands `x` once; the encoding can then be
  /// replayed against any number of row gates / output masks.
  void encode_input(const std::vector<double>& x, EncodedInput& enc) const;

  /// Gated dense read on a pre-packed row gate (gate_words() words; bits
  /// past n_in must be clear) and an optional 0/1 output mask (empty = all
  /// columns). `rng` drives the analog disturbance; nullptr selects the
  /// ideal read — the same quantization grids with no noise, no ADC and
  /// an exact accumulator. `y` is resized to n_out. Safe to call
  /// concurrently on one macro (scratch is per thread).
  void matvec_encoded(const EncodedInput& enc,
                      const std::vector<std::uint64_t>& row_gate,
                      const std::vector<std::uint8_t>& out_mask,
                      core::Rng* rng, std::vector<double>& y) const;

  /// Differential delta reads (ONE macro op per DeltaItem): each item
  /// drives only the word lines whose mask bit flipped — `add_rows`
  /// positively, `rem_rows` on the complementary bit-lines — and converts
  /// the net count with a single signed ADC conversion per cycle (codes
  /// in [-levels, +levels]), writing W x|A - W x|D to the item's `y`. The
  /// kernel's sparse scan reads only the touched packed words, so the
  /// cost tracks the flips, not the layer width; MacroStats prices
  /// exactly the |A| + |D| driven lines and ONE conversion set. Items fan
  /// over `pool` (nullptr = serial, same results): every item carries its
  /// own noise stream, so any partitioning onto workers is bit-identical
  /// to the serial item loop. A one-item call is the serial delta read.
  /// Allocation-free in steady state.
  void matvec_delta_batch(const DeltaItem* items, std::size_t n_items,
                          core::ThreadPool* pool = nullptr) const;

  /// The programmed array as the column kernel sees it (weight planes,
  /// geometry, ADC and noise model); valid while the macro lives.
  MacroView view() const;

  /// Snapshot of the cumulative activity counters (thread-safe).
  MacroStats stats() const;
  /// Clears the activity counters (stats are mutable bookkeeping).
  void reset_stats() const;

 private:
  /// One differential op: packs both flip lists into zeroed gates, lists
  /// the touched words, gates the encoding over them, runs the column
  /// kernel's delta read once and accounts one op with active_rows =
  /// n_add + n_rem (all columns converted once).
  void run_delta(const DeltaItem& item, MacroWorkspace& ws) const;

  std::uint64_t count_active_cols(const std::uint8_t* out_mask) const;
  std::uint64_t cycles_per_call() const;
  void account(std::uint64_t calls, std::uint64_t active_rows,
               std::uint64_t active_cols) const;

  CimMacroConfig config_;
  int n_in_ = 0;
  int n_out_ = 0;
  int words_ = 0;   // packed words per plane
  int planes_ = 0;  // weight magnitude planes (weight_bits - 1)
  double weight_scale_ = 1.0;
  double input_scale_ = 1.0;
  double inv_input_scale_ = 1.0;  // hoists the division out of quantize
  /// Weight bit planes, contiguous per column:
  /// bits_[((j * 2 + sign) * planes_ + p) * words_ + w].
  std::vector<std::uint64_t> bits_;

  mutable std::atomic<std::uint64_t> stat_calls_{0};
  mutable std::atomic<std::uint64_t> stat_wordline_{0};
  mutable std::atomic<std::uint64_t> stat_wl_cols_{0};
  mutable std::atomic<std::uint64_t> stat_adc_{0};
  mutable std::atomic<std::uint64_t> stat_cycles_{0};
  mutable std::atomic<std::uint64_t> stat_macs_{0};
};

/// Dense convenience read over the macro primitives: encodes `x`, packs
/// `in_mask` (0/1 per row, empty = all active) and runs matvec_encoded
/// with `out_mask` and `rng` (nullptr = ideal read).
std::vector<double> matvec(const CimMacro& macro,
                           const std::vector<double>& x,
                           const std::vector<std::uint8_t>& in_mask,
                           const std::vector<std::uint8_t>& out_mask,
                           core::Rng* rng);

}  // namespace cimnav::cimsram
