// Pluggable execution backends for the CIM macro column kernel.
//
// A ComputeBackend evaluates the bit-serial column readout of an 8T-SRAM
// array: given the gated input bit planes of one call, it produces the
// analog partial sums of a column range, applies the ADC model and the
// shift-add reduction, and writes scaled outputs. Everything *around* the
// kernel — quantization, bit-plane encoding, row gating, delta-item
// dispatch, stats — is backend-independent and lives in CimMacro; reading
// many samples is the caller's loop over CimMacro's single-read
// primitives. The backend seam is exactly the (plane & gate &
// weight-plane) coincidence evaluation future SIMD/CUDA engines slot into.
//
// Two backends ship in-tree:
//
//  * "reference"  — the scalar popcount kernel, kept bit-compatible with
//    the pre-backend engine: analog-noise draws are consumed sequentially
//    from the caller's stream via Rng::normal_fast, one per (sign, plane,
//    input-bit) cycle in cycle order.
//  * "bitsliced"  — packed-word popcounts with a vectorized noise + ADC
//    stage (AVX2 where the CPU supports it, runtime-dispatched; scalar
//    std::popcount otherwise). Bit-identical to "reference" on the ideal
//    path; on the noisy path it draws its Gaussians from a lane-parallel
//    ziggurat seeded off the caller's stream, so results are
//    distribution-matched (same noise model) but not draw-for-draw equal.
//
// Backends are stateless singletons selected by name through
// CimMacroConfig::backend and the small registry below, so tests and
// benches can sweep them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"

namespace cimnav::cimsram {

/// Geometry + weight storage view of one macro (or one shard), passed to
/// the backend kernel. `weight_bits` holds the packed weight planes,
/// contiguous per column: weight_bits[((j*2 + sign)*planes + p)*words + w].
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
  /// that order (two rounded products, matching the pre-backend engine).
  /// Composite macros pass 1.0/1.0 and scale after their shard reduction.
  double weight_scale = 1.0;
  double input_scale = 1.0;
};

/// Capability flags a backend declares about itself. The conformance
/// harness (conformance.hpp) reads these to pick the strictest check a
/// backend can satisfy; they are descriptive, never behavioral.
struct BackendCaps {
  /// The noisy path consumes the caller's rng stream draw-for-draw like
  /// the reference kernel (one Rng::normal_fast per cycle in cycle
  /// order), so noisy outputs are bitwise-comparable against
  /// "reference", not merely distribution-matched.
  bool draw_compatible_noise = false;
  /// The kernel uses SIMD on this host (informational, for bench rows).
  bool vectorized = false;
};

/// Column-kernel interface. Implementations must be stateless and
/// thread-safe: one instance serves every macro concurrently.
class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;

  /// Registry key ("reference", "bitsliced", ...).
  virtual std::string_view name() const = 0;

  /// Self-declared capabilities (see BackendCaps). The conservative
  /// default claims nothing: new backends inherit the statistical noisy
  /// check until they opt into the stricter draw-compatible tier.
  virtual BackendCaps caps() const { return {}; }

  /// Evaluates columns [col_begin, col_end). `gated_planes` holds
  /// input_bits x words packed words (encoding & row gate); `out_mask`
  /// (nullable, n_out entries) gates columns — masked columns are written
  /// as 0.0. `rng` drives the analog disturbance (ignored when `ideal` or
  /// when the view disables noise). The ideal path must be bit-identical
  /// across backends: counts are integers and the shift-add reduction is
  /// exact in double, so any evaluation order yields the same sum.
  virtual void run_columns(const MacroView& view,
                           const std::uint64_t* gated_planes,
                           std::uint64_t active_rows,
                           const std::uint8_t* out_mask, int col_begin,
                           int col_end, bool ideal, core::Rng* rng,
                           double* y) const = 0;

  /// Differential delta read for delta dispatch (compute reuse): ONE
  /// macro operation evaluates a signed partial sum. Word lines whose
  /// mask bit flipped ON drive the columns through `gated_add`
  /// (input_bits x words packed words, encoding & add-gate); word lines
  /// that flipped OFF drive the complementary bit-lines through
  /// `gated_rem`. The column ADC performs a correlated double sample per
  /// cycle: each rail converts through the dense unsigned quantizer
  /// (bit-for-bit the dense read's code lattice, so delta accumulation
  /// tracks a dense re-read without drift), and the op emits the signed
  /// code difference — values in [-levels, +levels]. Either buffer may
  /// be nullptr (no flips in that direction); its rail reads zero, so a
  /// one-sided op degenerates to exactly the dense gated read over the
  /// flipped rows.
  ///
  /// `word_list` (`n_words` entries, sorted ascending, each in
  /// [0, view.words)) lists the union of packed words holding flipped
  /// rows; every unlisted word must be zero in BOTH buffers across all
  /// planes, so the coincidence scan cost tracks the flipped words, not
  /// the layer width. `active_rows` = |A| + |D| — the word lines actually
  /// driven — sets the noise sigma and is what MacroStats pricing uses.
  /// Noise follows the backend's own contract (reference: one sequential
  /// normal_fast per cycle per active column; bitsliced: one root draw
  /// per call), one disturbance per conversion like any other read.
  ///
  /// The ideal path is exact signed integer arithmetic in double, so it
  /// is bit-identical across backends — the conformance ground truth for
  /// the delta dispatch shape. The default implementation runs the
  /// reference kernel (draw-sequential noise).
  virtual void run_columns_delta(const MacroView& view,
                                 const std::uint64_t* gated_add,
                                 const std::uint64_t* gated_rem,
                                 const std::int32_t* word_list, int n_words,
                                 std::uint64_t active_rows,
                                 const std::uint8_t* out_mask, int col_begin,
                                 int col_end, bool ideal, core::Rng* rng,
                                 double* y) const;
};

/// Looks up a backend by name; "auto" resolves to the fastest backend for
/// this CPU ("bitsliced"). Throws std::invalid_argument for unknown names.
const ComputeBackend& backend(std::string_view name);

/// Registered backend names, "reference" first (stable sweep order).
std::vector<std::string> backend_names();

/// Extension hook for out-of-tree backends (SIMD variants, CUDA, ...).
/// The instance must outlive every macro using it; re-registering an
/// existing name replaces the mapping and returns false.
bool register_backend(const ComputeBackend* backend);

}  // namespace cimnav::cimsram
