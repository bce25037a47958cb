// MLP inference executed on simulated 8T-SRAM CIM macros (paper Fig. 3a).
//
// Each weight layer is programmed into one cimsram::MacroLike — a
// monolithic CimMacro, or a ShardedMacro grid when the layer exceeds the
// configured physical array bounds (CimMacroConfig::max_rows/max_cols);
// the network code is identical either way. Biases, ReLU and the
// inverted-dropout scaling stay digital (as in the paper's architecture,
// where only the matrix products live in the array). Dropout masks map
// onto the macro's physical ports: the input-site mask gates word lines
// (CL AND), hidden-site masks gate both the producing layer's columns
// (RL AND) and the consuming layer's word lines.
//
// Compute reuse (paper Sec. III-C): consecutive MC-Dropout iterations
// share the same input vector at the first layer, so
// P_i = P_{i-1} + W x|_A - W x|_D, where A/D are the newly
// activated/deactivated input neurons. forward_with_reuse maintains the
// full-column accumulator and issues two sparse row evaluations per
// iteration instead of one dense product. The accumulator keeps all
// columns live so it stays valid when the *output* mask changes between
// iterations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cimsram/cim_macro.hpp"
#include "cimsram/sharded_macro.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace cimnav::nn {

/// CIM-executed snapshot of a trained Mlp.
class CimMlp {
 public:
  /// Programs one macro per layer (sharded when the layer exceeds the
  /// config's physical bounds). Activation scales are calibrated by
  /// running the float reference (with representative dropout masks) on
  /// `calibration_inputs`.
  CimMlp(const Mlp& reference, const cimsram::CimMacroConfig& macro_config,
         const std::vector<Vector>& calibration_inputs, core::Rng& rng);

  /// Number of weight layers (= programmed macros).
  int layer_count() const { return static_cast<int>(macros_.size()); }
  /// The macro executing `layer` (monolithic or sharded; throws on range).
  const cimsram::MacroLike& macro(int layer) const;

  /// Masked (MC-Dropout) forward pass through the analog macros.
  Vector forward(const Vector& x, const std::vector<Mask>& masks,
                 core::Rng& rng) const;

  /// Batched masked forward: one shared input, one mask set per iteration.
  /// The layer-0 input is quantized and bit-plane-expanded exactly once
  /// (its values are iteration-invariant under dropout; only gates flip),
  /// then iterations fan out over `pool` (nullptr = serial). Analog-noise
  /// streams are keyed on the iteration index derived from `noise_root`,
  /// so results are bit-identical at any thread count.
  std::vector<Vector> forward_batch(
      const Vector& x, const std::vector<std::vector<Mask>>& mask_sets,
      std::uint64_t noise_root, core::ThreadPool* pool = nullptr) const;

  /// Allocation-reusing variant: `outs` is resized to the iteration count
  /// and its elements keep their capacity across calls (the MC hot loop
  /// calls this once per prediction).
  void forward_batch(const Vector& x,
                     const std::vector<std::vector<Mask>>& mask_sets,
                     std::uint64_t noise_root, core::ThreadPool* pool,
                     std::vector<Vector>& outs) const;

  /// One frame of a multi-frame MC-Dropout window (forward_window): the
  /// frame's shared input, its per-iteration mask sets, and the root of
  /// its analog-noise streams (iteration t draws from
  /// core::Rng::stream(noise_root, t), exactly like forward_batch).
  struct FrameBatch {
    const Vector* x = nullptr;
    const std::vector<std::vector<Mask>>* mask_sets = nullptr;
    std::uint64_t noise_root = 0;
  };

  /// Reusable buffers for forward_window (inputs encodings, per-item rng
  /// streams and activations). Buffers keep their capacity across calls;
  /// one instance must not be shared by concurrent callers.
  struct WindowScratch {
    std::vector<cimsram::EncodedInput> enc0;
    std::vector<core::Rng> rngs;
    std::vector<std::uint32_t> frame_of;  ///< item -> frame index
    std::vector<std::uint32_t> iter_of;   ///< item -> iteration in frame
    std::vector<Vector> acts;
    /// Per-item macro accounting when the caller asks for frame_stats.
    std::vector<cimsram::MacroStats> item_stats;
  };

  /// Multi-frame batched masked forward — the cross-frame (and, via
  /// bnn::mc_predict_cim_jobs, cross-session) batching entry point. All
  /// (frame, iteration) work items advance through the network
  /// layer-synchronously: one batched macro dispatch per layer fans every
  /// item of the window over `pool`, and each frame's layer-0 input is
  /// quantized and bit-plane-expanded exactly once for all of its
  /// iterations.
  ///
  /// Determinism: each item owns a persistent noise stream keyed
  /// (noise_root, iteration) that it carries across layers, so results
  /// are bit-identical to per-frame forward_batch calls — and hence to
  /// the serial path — at any thread count and any window size.
  ///
  /// `outs[f][t]` receives frame f's iteration-t output (capacity reused).
  ///
  /// When `frame_stats` is non-null, it is resized to frames.size() and
  /// entry f receives the *exact* macro accounting of frame f's items
  /// (captured per item via cimsram::ScopedStatsCapture). The per-frame
  /// entries sum to the window's total_stats() delta: every accounting
  /// event of the window happens inside an item body (encode_layer0 /
  /// encode_input never account).
  void forward_window(const std::vector<FrameBatch>& frames,
                      core::ThreadPool* pool, WindowScratch& scratch,
                      std::vector<std::vector<Vector>>& outs,
                      std::vector<cimsram::MacroStats>* frame_stats =
                          nullptr) const;

  /// Deterministic forward (no dropout, all neurons active).
  Vector forward_deterministic(const Vector& x, core::Rng& rng) const;

  /// Compute-reuse state across the MC iterations of one input frame.
  ///
  /// With input-site dropout, the reuse locus is layer 0: the input values
  /// are iteration-invariant and only the input mask flips, so the
  /// accumulator tracks P_i = P_{i-1} + W x|_A - W x|_D.
  ///
  /// With hidden-site dropout only (the VO configuration), layer 0 is
  /// mask-independent and computed *once* per frame, and the reuse locus
  /// moves to layer 1: the surviving hidden neurons carry fixed values, so
  /// consecutive iterations again differ only by mask flips — the paper's
  /// delta rule applies exactly.
  struct ReuseState {
    Vector frozen_values;  ///< layer-0 input (x) or hidden values (v*s)
    Vector layer0_preact;  ///< cached W1 x (hidden-site mode)
    Vector reuse_acc;      ///< full-column accumulator at the reuse layer
    Mask prev_mask;        ///< mask that produced the accumulator
    /// Bit-plane encoding of frozen_values; delta evaluations replay it
    /// against sparse row gates without re-quantizing.
    cimsram::EncodedInput frozen_enc;
    bool valid = false;
  };

  /// Masked forward reusing products between calls. The first call (state
  /// invalid) performs dense products; subsequent calls evaluate only
  /// changed rows at the reuse layer — one differential delta dispatch
  /// (MacroLike::matvec_delta) per step that only drives word lines whose
  /// mask bits flipped, netting adds against removes in a single signed
  /// op. Reset the state when `x` changes. This is the serial reference
  /// for forward_reuse_window below.
  Vector forward_with_reuse(const Vector& x, const std::vector<Mask>& masks,
                            ReuseState& state, core::Rng& rng) const;

  /// One frame of a chain-parallel compute-reuse window
  /// (forward_reuse_window). The frame's T mask sets are visited along
  /// `order` (nullptr = identity) and cut into refresh chains of
  /// `chain_len` visiting positions (0 = one chain); chain c's analog
  /// noise streams from core::Rng::stream(noise_root, c), exactly like
  /// the serial chain loop over forward_with_reuse.
  struct ReuseFrame {
    const Vector* x = nullptr;
    const std::vector<std::vector<Mask>>* mask_sets = nullptr;
    /// Visiting order over the mask sets (size T); nullptr = identity.
    /// Chains slice visiting *positions*, so any per-chain permutation
    /// stays inside its own chain.
    const std::size_t* order = nullptr;
    std::size_t chain_len = 0;   ///< refresh interval (0 = single chain)
    std::uint64_t noise_root = 0;
    std::vector<Vector>* outs = nullptr;  ///< resized to T, visiting order
    /// Optional *exact* macro accounting for this frame (assigned): every
    /// accounting event happens inside a per-chain captured body, so the
    /// per-frame entries sum to the call's total_stats() delta.
    cimsram::MacroStats* stats = nullptr;
  };

  /// Pooled per-chain state for forward_reuse_window: one grow-only arena
  /// the engine carves per-chain accumulators, row lists and delta
  /// buffers from, so the steady-state reuse path never touches the heap.
  /// One instance must not be shared by concurrent callers.
  struct ReuseScratch {
    std::vector<cimsram::EncodedInput> enc0;  ///< per-frame frozen encoding
    std::vector<std::uint32_t> chain_frame;   ///< chain -> frame index
    std::vector<std::size_t> chain_begin;     ///< chain -> first position
    std::vector<std::size_t> chain_end;       ///< chain -> past-the-end
    std::vector<core::Rng> rngs;              ///< per-chain noise stream
    std::vector<Vector> accs;                 ///< per-chain accumulator
    std::vector<const Mask*> prev;            ///< per-chain previous locus mask
    /// Per-chain frozen-value encodings (hidden-site mode only; the
    /// frozen hidden vector depends on the chain's own layer-0 draws).
    std::vector<cimsram::EncodedInput> frozen_enc;
    std::vector<Vector> acts;                 ///< per-chain tail activation
    std::vector<Vector> deltas;               ///< per-chain delta product
    std::vector<std::vector<std::size_t>> added, removed;
    std::vector<cimsram::DeltaItem> items;    ///< delta batch build buffer
    std::vector<std::size_t> item_chain;      ///< item -> chain
    std::vector<std::uint32_t> live;          ///< chains active this step
    std::vector<cimsram::MacroStats> chain_stats;
  };

  /// Chain-parallel compute reuse across a window of frames (and, via
  /// bnn::mc_predict_cim_jobs, across sessions): every refresh chain of
  /// every frame advances step-synchronously. At chain position k one
  /// pooled dispatch carries every chain's step-k work — the dense
  /// (re)initialization at k = 0, then one differential delta batch
  /// (MacroLike::matvec_delta_batch) netting each chain's added rows
  /// against its removed rows, then the dense tail layers — while each
  /// chain's within-chain accumulation stays a serial index-order sum on
  /// its own noise stream.
  ///
  /// Determinism: a chain's rng is touched by at most one work item per
  /// barrier-separated phase, in exactly the order forward_with_reuse
  /// consumes it (delta phases skip chains with no flipped rows, which
  /// therefore draw nothing — same as the serial path), so every output
  /// is bit-identical to the serial chain loop at any pool size, window
  /// size and frame mix.
  void forward_reuse_window(const std::vector<ReuseFrame>& frames,
                            core::ThreadPool* pool,
                            ReuseScratch& scratch) const;

  /// Aggregate macro activity (sum over layers and shards). Callers
  /// snapshot this around a pass and price the delta through
  /// energy::macro_stats_energy_j — the stage-B half of the closed
  /// loop's energy ledger (bnn::McWorkload carries the deltas; the
  /// window path attributes them per frame, see mc_predict_cim_window).
  cimsram::MacroStats total_stats() const;
  void reset_stats() const;

  /// Inverted-dropout scale 1/(1-p) applied to surviving neurons.
  double dropout_keep_scale() const { return keep_scale_; }
  /// Whether mask site 0 gates the input rows (else hidden sites only).
  bool dropout_on_input() const { return dropout_on_input_; }

 private:
  /// Full masked forward on a pre-encoded layer-0 input (the engine path
  /// behind forward and forward_batch). Writes into `out`, reusing its
  /// capacity — the MC hot loop must not allocate in steady state.
  void forward_encoded(const cimsram::EncodedInput& enc0,
                       const std::vector<Mask>& masks, core::Rng& rng,
                       Vector& out) const;

  /// Encodes the (dropout-scaled) layer-0 input for `x` into `enc`.
  void encode_layer0(const Vector& x, cimsram::EncodedInput& enc) const;

  /// Digital epilogue of one layer, shared by forward_encoded and
  /// forward_window: bias on live columns (masked columns forced to 0),
  /// then ReLU + inverted-dropout scale when `hidden`. The bit-identity
  /// contract between the per-frame and window paths rests on both
  /// running exactly this code.
  void finish_layer(Vector& z, const Vector& bias, const Mask& col_mask,
                    bool hidden) const;

  std::vector<std::unique_ptr<cimsram::MacroLike>> macros_;
  std::vector<Vector> biases_;
  double keep_scale_ = 2.0;
  bool dropout_on_input_ = true;
};

}  // namespace cimnav::nn
