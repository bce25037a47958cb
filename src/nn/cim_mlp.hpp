// MLP inference executed on simulated 8T-SRAM CIM macros (paper Fig. 3a).
//
// Each weight layer is programmed into one cimsram::CimMacro. Biases,
// ReLU and the inverted-dropout scaling stay digital (as in the paper's
// architecture, where only the matrix products live in the array).
// Dropout masks map onto the macro's physical ports: the input-site mask
// gates word lines (CL AND), hidden-site masks gate both the producing
// layer's columns (RL AND) and the consuming layer's word lines.
//
// Compute reuse (paper Sec. III-C): consecutive MC-Dropout iterations
// share the same input vector at the reuse locus, so
// P_i = P_{i-1} + W x|_A - W x|_D, where A/D are the newly
// activated/deactivated neurons. With input-site dropout the locus is
// layer 0 over the input mask. With hidden-site dropout only (the VO
// configuration) layer 0 is mask-independent and read densely once per
// refresh chain, and the locus moves to layer 1 over the first hidden
// mask: the surviving hidden neurons carry fixed values, so consecutive
// iterations again differ only by mask flips. forward_reuse_window keeps
// a full-column accumulator at the locus and issues one differential
// delta read per iteration instead of one dense product; the accumulator
// keeps all columns live so it stays valid when the *output* mask changes
// between iterations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace cimnav::nn {

/// CIM-executed snapshot of a trained Mlp.
class CimMlp {
 public:
  /// Programs one macro per layer. Activation scales are calibrated by
  /// running the float reference (with representative dropout masks) on
  /// `calibration_inputs`.
  CimMlp(const Mlp& reference, const cimsram::CimMacroConfig& macro_config,
         const std::vector<Vector>& calibration_inputs, core::Rng& rng);

  /// Number of weight layers (= programmed macros).
  int layer_count() const { return static_cast<int>(macros_.size()); }
  /// The macro executing `layer` (throws on range).
  const cimsram::CimMacro& macro(int layer) const;

  /// One frame of a multi-frame MC-Dropout window (forward_window): the
  /// frame's shared input, its per-iteration mask sets, and the root of
  /// its analog-noise streams (iteration t draws from
  /// core::Rng::stream(noise_root, t)).
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

  /// Multi-frame batched masked (MC-Dropout) forward — the dense engine
  /// behind every bnn::mc_predict_cim_jobs call without compute reuse.
  /// All (frame, iteration) work items advance through the network
  /// layer-synchronously: one batched macro dispatch per layer fans every
  /// item of the window over `pool` (nullptr = serial), and each frame's
  /// layer-0 input is quantized and bit-plane-expanded exactly once for
  /// all of its iterations (its values are iteration-invariant under
  /// dropout; only gates flip).
  ///
  /// Determinism: each item owns a persistent noise stream keyed
  /// (noise_root, iteration) that it carries across layers, so results
  /// are bit-identical to a serial per-item forward at any thread count
  /// and any window size.
  ///
  /// Throws std::invalid_argument unless every mask set has one mask per
  /// dropout site, each exactly as wide as its site.
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

  /// One frame of a chain-parallel compute-reuse window
  /// (forward_reuse_window). The frame's T mask sets are visited along
  /// `order` (nullptr = identity) and cut into refresh chains of
  /// `chain_len` visiting positions (0 = one chain); chain c's analog
  /// noise streams from core::Rng::stream(noise_root, c).
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
    std::vector<std::uint32_t> live;          ///< chains active this step
    std::vector<cimsram::MacroStats> chain_stats;
  };

  /// Chain-parallel compute reuse across a window of frames (and, via
  /// bnn::mc_predict_cim_jobs, across sessions). Each refresh chain runs
  /// one chain-step kernel: a dense start (the hidden-site layer-0 read,
  /// then the locus accumulator), then per position a digital flip diff,
  /// one differential delta read (a CimMacro::matvec_delta_batch item)
  /// netting the added rows against the removed rows, and the locus
  /// epilogue plus the dense tail layers. Below 16 chains each chain runs
  /// the kernel as one work item, issuing one-item delta batches; from 16
  /// on chains advance step-synchronously, so at chain position k one
  /// pooled matvec_delta_batch carries every chain's step-k delta and one
  /// dispatch runs every chain's tail.
  ///
  /// Determinism: a chain's rng is touched by at most one work item per
  /// barrier-separated phase, always in the order layer 0 -> locus ->
  /// tail (chains with no flipped rows issue no delta read and draw
  /// nothing), so every output is bit-identical under both schedules at
  /// any pool size, window size and frame mix.
  ///
  /// Throws std::invalid_argument on malformed mask sets, like
  /// forward_window.
  void forward_reuse_window(const std::vector<ReuseFrame>& frames,
                            core::ThreadPool* pool,
                            ReuseScratch& scratch) const;

  /// Aggregate macro activity (sum over layers). Callers
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
  /// Encodes the (dropout-scaled) layer-0 input for `x` into `enc`.
  void encode_layer0(const Vector& x, cimsram::EncodedInput& enc) const;

  /// Throws unless `set` holds one mask per dropout site, each as wide
  /// as its site (the input rows, then each hidden layer's outputs).
  void check_mask_set(const std::vector<Mask>& set) const;

  /// Digital epilogue of one layer, shared by forward_window and
  /// forward_reuse_window: bias on live columns (masked columns forced to
  /// 0), then ReLU + inverted-dropout scale when `hidden`.
  void finish_layer(Vector& z, const Vector& bias, const Mask& col_mask,
                    bool hidden) const;

  std::vector<std::unique_ptr<cimsram::CimMacro>> macros_;
  std::vector<Vector> biases_;
  double keep_scale_ = 2.0;
  bool dropout_on_input_ = true;
};

}  // namespace cimnav::nn
