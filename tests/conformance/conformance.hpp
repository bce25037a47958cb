// Backend conformance harness (the ggml test-backend-ops pattern): a
// table-driven sweep of randomized op cases that EVERY registered compute
// backend — and every ShardedMacro grid configuration — must pass against
// the "reference" kernel. Registering a new backend (AVX-512 VPOPCNTDQ,
// CUDA, ...) is a pure register_backend call: the case table is built
// from backend_names() at runtime, so the new kernel inherits the whole
// suite (test_backend_conformance.cpp next to this file) and the
// bench_micro timing sweep rows with zero test code written. Built as the
// cimnav_conformance library, which needs no GTest.
//
// The harness drives only the MacroLike primitives: a batch is its own
// loop over matvec_encoded (sample s noisy reads draw from
// Rng::stream(root, s)), run serially or as concurrent reads of one
// shared macro over a ThreadPool; a delta read is a matvec_delta_batch.
//
// Case axes (the cross product is pruned per noise mode, see the table
// builder in conformance.cpp):
//
//   geometry   monolithic and sharded layer shapes, including ragged
//              dims and 64-aligned row/column shard splits;
//   input      dense / sparse+row-masked / extreme-magnitude (clamp
//              paths) / bit-plane edge codes with column masks;
//   noise mode ideal / ADC-only (analog_noise off, coarse ADC) /
//              analog (noise-dominated);
//   dispatch   single read / harness batch loop / the same loop pooled /
//              multi-job keyed streams / differential delta reads
//              (compute reuse).
//
// Check tiers:
//
//   bitwise      the ideal path must be bit-identical across backends
//                (exact integer reduction), sharded grids bit-identical
//                to the monolithic macro, concurrent pooled reads and the
//                pooled delta fan-out bit-identical to serial (the delta
//                axis gates ShardedMacro's shard-affine reorder), and the
//                deterministic ADC-only path bit-identical cross-backend
//                on tie-free geometries (odd physical row counts — even
//                row counts can land counts exactly on an ADC half-code
//                boundary, where FMA contraction differences make
//                floor(x + 0.5) legitimately host-dependent);
//   statistical  the analog path must be distribution-matched against
//                reference: per-column Welford moment bounds plus
//                KS-style quantile checks over keyed rng streams, with
//                tolerances from core/stat_tolerances.hpp. A backend
//                whose caps() declare draw_compatible_noise is held to
//                bitwise identity on the noisy path instead.
//
// Every failure embeds a single-line repro (seed, geometry, backend,
// family, mode, dispatch) that parse_repro turns back into the exact
// case — tests/conformance/test_backend_conformance accepts it via
// --repro="...".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cimsram/sharded_macro.hpp"

namespace cimnav::cimsram::conformance {

/// Input-vector family of a case (what the generator feeds the macro).
enum class InputFamily {
  kDense,        ///< uniform activations, no masks
  kSparse,       ///< mostly-zero activations + random row mask
  kExtreme,      ///< clamp-path magnitudes (negative, huge, denormal)
  kBitplaneEdge, ///< exact power-of-two / all-ones codes + column masks
};

/// Which execution path the case exercises. Delta-dispatch cases reuse
/// kAdcOnly for their deterministic tier (noise off, coarse ADC) and
/// kAnalog for the noisy tier.
enum class NoiseMode {
  kIdeal,    ///< null-rng ideal read (exact reduction) -> bitwise tier
  kAdcOnly,  ///< analog_noise off, coarse ADC     -> bitwise tier
  kAnalog,   ///< noise-dominated                  -> statistical tier
};

/// How the case dispatches work.
enum class Dispatch {
  kSingle,    ///< one dense read per sample
  kBatch,     ///< harness loop of reads, one keyed stream per sample
  kPooled,    ///< the same loop over a ThreadPool vs serial (bit-identity)
  kMultiJob,  ///< several jobs with rng streams keyed off one root
  kDelta,     ///< matvec_delta_batch (differential read), 1 and n items
};

/// Sweep depth: kQuick is the CI tier, kFull the nightly tier (more
/// geometries, more statistical reps). Selected via the environment
/// variable CIMNAV_CONFORMANCE_TIER=quick|full (default quick).
enum class Tier { kQuick, kFull };

/// Layer shape of a case. max_rows/max_cols are the make_macro physical
/// bounds: 0/0 builds a monolithic CimMacro, otherwise a ShardedMacro
/// grid (max_rows a multiple of 64).
struct CaseGeometry {
  int n_in = 0;
  int n_out = 0;
  int max_rows = 0;
  int max_cols = 0;
  bool sharded() const { return max_rows > 0 || max_cols > 0; }
};

/// One fully-specified conformance case.
struct CaseSpec {
  std::string backend;
  CaseGeometry geom;
  InputFamily family = InputFamily::kDense;
  NoiseMode mode = NoiseMode::kIdeal;
  Dispatch dispatch = Dispatch::kSingle;
  std::uint64_t seed = 0;
  Tier tier = Tier::kQuick;

  /// Single-line self-contained repro, e.g.
  ///   backend=bitsliced geom=149x37 shard=0x0 family=sparse mode=analog
  ///   dispatch=batch seed=0x1f3 tier=quick
  std::string repro() const;
  /// Inverse of repro(); throws std::invalid_argument on malformed input.
  static CaseSpec parse_repro(std::string_view line);
};

const char* to_string(InputFamily f);
const char* to_string(NoiseMode m);
const char* to_string(Dispatch d);
const char* to_string(Tier t);

/// All input families (the per-family ctest shards iterate this).
std::vector<InputFamily> families();

/// The geometry axis of a tier (quick: 4 shapes incl. two shard grids;
/// full: adds larger monolithic and grid shapes).
std::vector<CaseGeometry> geometries(Tier tier);

/// The pruned case table for one backend at one tier, and the per-family
/// subset (one ctest shard per backend x family).
std::vector<CaseSpec> cases_for(std::string_view backend, Tier tier);
std::vector<CaseSpec> cases_for(std::string_view backend, InputFamily f,
                                Tier tier);

/// Outcome of one case: `checks` counts elementary comparisons, and on
/// failure `failure` is a single line ending in "repro: <line>".
struct CaseResult {
  bool pass = true;
  int checks = 0;
  std::string failure;
};

/// Runs one case end to end (builds macros, generates inputs, applies
/// the tier's checks). Never throws on a conformance failure — that is a
/// CaseResult with pass == false; programming errors still throw.
CaseResult run_case(const CaseSpec& c);

/// Tier from CIMNAV_CONFORMANCE_TIER ("full" -> kFull, else kQuick).
Tier tier_from_env();

/// The case's input generator, shared with bench_micro's per-family
/// timing rows: fills the activation vector and the (possibly empty)
/// row/column masks for sample `sample_id` of the case.
void make_case_input(const CaseSpec& c, std::uint64_t sample_id,
                     std::vector<double>& x,
                     std::vector<std::uint8_t>& in_mask,
                     std::vector<std::uint8_t>& out_mask);

/// Builds the case's macro (make_macro under the case geometry) with the
/// given backend name ("reference" for the baseline side).
std::unique_ptr<MacroLike> make_case_macro(const CaseSpec& c,
                                           std::string_view backend_name);

}  // namespace cimnav::cimsram::conformance
