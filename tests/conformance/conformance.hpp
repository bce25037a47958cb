// Column-kernel conformance harness (the ggml test-backend-ops pattern):
// a table-driven sweep of randomized op cases in which a *subject* column
// kernel — cimsram::run_columns, the kernel CimMacro ships, by default —
// is checked against the *oracle* cimsram::scalar_run_columns, the
// draw-sequential scalar kernel. Any function with run_columns' signature
// can be the subject, so a new kernel (AVX-512 VPOPCNTDQ, CUDA, ...)
// inherits the whole suite (test_backend_conformance.cpp next to this
// file) by being passed to run_case. Built as the cimnav_conformance
// library, which needs no GTest.
//
// Each case builds one CimMacro and runs both kernels on macro.view()
// with planes the harness gates itself: encoding & row gate for a dense
// read; the add and remove gates plus the touched-word list, derived from
// the flip lists, for a delta read. A batch is the harness's own loop of
// reads (sample s noisy reads draw from Rng::stream(root, s)). The pooled
// and multi-job tiers drive the CimMacro primitives instead — concurrent
// matvec_encoded reads of one shared macro over a ThreadPool, and
// matvec_delta_batch — and the macro tier pins those primitives to
// run_columns on view() bit for bit.
//
// Case axes (the cross product is pruned per noise mode, see the table
// builder in conformance.cpp):
//
//   geometry   layer shapes from one to five gate words, including odd
//              row counts and ragged last words;
//   input      dense / sparse+row-masked / extreme-magnitude (clamp
//              paths) / bit-plane edge codes with column masks;
//   noise mode ideal / ADC-only (analog_noise off, coarse ADC) /
//              analog (noise-dominated);
//   dispatch   single read / harness batch loop / the same loop pooled /
//              multi-job keyed streams / differential delta reads
//              (compute reuse) / CimMacro against its kernel.
//
// Check tiers:
//
//   bitwise      the ideal path must be bit-identical to the oracle
//                (exact integer reduction), and the deterministic ADC-only
//                path too on tie-free geometries (odd physical row counts
//                — even row counts can land counts exactly on an ADC
//                half-code boundary, where FMA contraction differences
//                make floor(x + 0.5) legitimately host-dependent);
//   statistical  the analog path must be distribution-matched against
//                the oracle: per-column Welford moment bounds plus
//                KS-style quantile checks over keyed rng streams, with
//                tolerances from conformance/stat_tolerances.hpp;
//   delta        the differential read's identities (determinism, rail
//                antisymmetry, one-sided = dense) bitwise, bitwise against
//                the oracle on tie-free geometries, and distribution-
//                matched on the noisy path;
//   identity     pooled and multi-job CimMacro reads and the pooled delta
//                fan-out bit-identical to serial;
//   macro        matvec_encoded and matvec_delta_batch bit-identical to
//                run_columns on view() with the same rng, noisy reads
//                included: CimMacro's gating and word lists feed its one
//                kernel.
//
// Every failure embeds a single-line repro (seed, geometry, family,
// mode, dispatch) that parse_repro turns back into the exact case —
// tests/conformance/test_backend_conformance accepts it via
// --repro="...".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cimsram/backend.hpp"
#include "cimsram/cim_macro.hpp"

namespace cimnav::cimsram::conformance {

/// A column kernel with run_columns' signature: the subject of a case.
using ColumnKernel = decltype(&run_columns);

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
  kDelta,     ///< differential reads, 1 and n items
  kMacro,     ///< CimMacro reads against run_columns on its view
};

/// Sweep depth: kQuick is the CI tier, kFull the nightly tier (more
/// geometries, more statistical reps). Selected via the environment
/// variable CIMNAV_CONFORMANCE_TIER=quick|full (default quick).
enum class Tier { kQuick, kFull };

/// Layer shape of a case (rows x columns of one CimMacro).
struct CaseGeometry {
  int n_in = 0;
  int n_out = 0;
};

/// One fully-specified conformance case.
struct CaseSpec {
  CaseGeometry geom;
  InputFamily family = InputFamily::kDense;
  NoiseMode mode = NoiseMode::kIdeal;
  Dispatch dispatch = Dispatch::kSingle;
  std::uint64_t seed = 0;
  Tier tier = Tier::kQuick;

  /// Single-line self-contained repro, e.g.
  ///   geom=149x37 family=sparse mode=analog dispatch=batch seed=0x1f3
  ///   tier=quick
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

/// The geometry axis of a tier (quick: 4 shapes; full: adds 4 larger
/// ones).
std::vector<CaseGeometry> geometries(Tier tier);

/// The pruned case table at one tier, and the per-family subset (one
/// ctest shard per family).
std::vector<CaseSpec> cases_for(Tier tier);
std::vector<CaseSpec> cases_for(InputFamily f, Tier tier);

/// Outcome of one case: `checks` counts elementary comparisons, and on
/// failure `failure` is a single line ending in "repro: <line>".
struct CaseResult {
  bool pass = true;
  int checks = 0;
  std::string failure;
};

/// Runs one case end to end (builds the macro, generates inputs, applies
/// the tier's checks to `subject`). Never throws on a conformance failure
/// — that is a CaseResult with pass == false; programming errors still
/// throw.
CaseResult run_case(const CaseSpec& c, ColumnKernel subject = &run_columns);

/// Tier from CIMNAV_CONFORMANCE_TIER ("full" -> kFull, else kQuick).
Tier tier_from_env();

/// The case's input generator, shared with bench_micro's per-family
/// timing rows: fills the activation vector and the (possibly empty)
/// row/column masks for sample `sample_id` of the case.
void make_case_input(const CaseSpec& c, std::uint64_t sample_id,
                     std::vector<double>& x,
                     std::vector<std::uint8_t>& in_mask,
                     std::vector<std::uint8_t>& out_mask);

/// Builds the case's macro (geometry, weights and noise mode of `c`).
std::unique_ptr<CimMacro> make_case_macro(const CaseSpec& c);

}  // namespace cimnav::cimsram::conformance
