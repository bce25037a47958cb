#include "nn/cim_mlp.hpp"

#include <algorithm>
#include <cmath>

namespace cimnav::nn {
namespace {

constexpr double kScaleHeadroom = 1.05;  // 5% margin on calibrated maxima

}  // namespace

CimMlp::CimMlp(const Mlp& reference,
               const cimsram::CimMacroConfig& macro_config,
               const std::vector<Vector>& calibration_inputs,
               core::Rng& rng) {
  CIMNAV_REQUIRE(!calibration_inputs.empty(), "need calibration inputs");
  const MlpConfig& cfg = reference.config();
  keep_scale_ = 1.0 / (1.0 - cfg.dropout_p);
  dropout_on_input_ = cfg.dropout_on_input;

  const int n_layers = reference.layer_count();
  // Calibrate per-layer input maxima under representative dropout masks
  // (masked activations are inflated by the keep scale, so deterministic
  // calibration would underestimate the range).
  std::vector<double> act_max(static_cast<std::size_t>(n_layers), 1e-12);
  constexpr int kMaskSamples = 8;
  for (const auto& x : calibration_inputs) {
    for (int s = 0; s < kMaskSamples; ++s) {
      auto masks = reference.sample_masks(
          [&] { return rng.bernoulli(cfg.dropout_p); });
      // Replicate the masked forward, recording layer-input maxima.
      std::size_t site = 0;
      Vector a = x;
      if (cfg.dropout_on_input) {
        const Mask& m = masks[site++];
        for (std::size_t i = 0; i < a.size(); ++i)
          a[i] = m[i] ? a[i] * keep_scale_ : 0.0;
      }
      for (int l = 0; l < n_layers; ++l) {
        for (double v : a)
          act_max[static_cast<std::size_t>(l)] =
              std::max(act_max[static_cast<std::size_t>(l)], std::abs(v));
        Vector z = reference.weights(l).matvec(a);
        const Vector& b = reference.biases(l);
        for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
        if (l + 1 < n_layers) {
          for (double& v : z) v = std::max(0.0, v);
          const Mask& m = masks[site++];
          for (std::size_t i = 0; i < z.size(); ++i)
            z[i] = m[i] ? z[i] * keep_scale_ : 0.0;
        }
        a = std::move(z);
      }
    }
  }

  const int max_code = (1 << macro_config.input_bits) - 1;
  macros_.reserve(static_cast<std::size_t>(n_layers));
  biases_.reserve(static_cast<std::size_t>(n_layers));
  for (int l = 0; l < n_layers; ++l) {
    const Matrix& w = reference.weights(l);
    const double scale = act_max[static_cast<std::size_t>(l)] *
                         kScaleHeadroom / static_cast<double>(max_code);
    macros_.push_back(cimsram::make_macro(w.data(), w.rows(), w.cols(),
                                          macro_config, scale));
    biases_.push_back(reference.biases(l));
  }
}

const cimsram::MacroLike& CimMlp::macro(int layer) const {
  CIMNAV_REQUIRE(layer >= 0 && layer < layer_count(), "layer out of range");
  return *macros_[static_cast<std::size_t>(layer)];
}

void CimMlp::encode_layer0(const Vector& x,
                           cimsram::EncodedInput& enc) const {
  CIMNAV_REQUIRE(x.size() ==
                     static_cast<std::size_t>(macros_.front()->n_in()),
                 "input size mismatch");
  if (dropout_on_input_) {
    // Masked inputs are scaled digitally before the DAC (the CL AND gates
    // the word line; the keep scale rides on the digital input code), so
    // the encoded values are mask-independent: dropped rows are simply
    // gated off.
    thread_local Vector scaled;
    scaled.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) scaled[i] = x[i] * keep_scale_;
    macros_.front()->encode_input(scaled, enc);
  } else {
    macros_.front()->encode_input(x, enc);
  }
}

void CimMlp::finish_layer(Vector& z, const Vector& bias,
                          const Mask& col_mask, bool hidden) const {
  for (std::size_t i = 0; i < z.size(); ++i) {
    if (!col_mask.empty() && !col_mask[i]) {
      z[i] = 0.0;
      continue;
    }
    z[i] += bias[i];
  }
  if (hidden) {
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = std::max(0.0, z[i]);
      z[i] = col_mask[i] ? z[i] * keep_scale_ : 0.0;
    }
  }
}

void CimMlp::forward_encoded(const cimsram::EncodedInput& enc0,
                             const std::vector<Mask>& masks, core::Rng& rng,
                             Vector& out) const {
  const int n_layers = layer_count();
  const int expected_sites = (dropout_on_input_ ? 1 : 0) + n_layers - 1;
  CIMNAV_REQUIRE(masks.size() == static_cast<std::size_t>(expected_sites),
                 "mask count mismatch");

  std::size_t site = 0;
  const Mask empty;
  const Mask& in0 = dropout_on_input_ ? masks[site++] : empty;
  if (dropout_on_input_)
    CIMNAV_REQUIRE(in0.size() ==
                       static_cast<std::size_t>(macros_.front()->n_in()),
                   "input mask size mismatch");

  // All scratch is thread-local: the MC hot loop runs this body T times
  // per prediction and must not allocate in steady state.
  thread_local std::vector<std::uint64_t> gate;
  thread_local cimsram::EncodedInput enc_hidden;
  thread_local Vector a, z;

  const Mask* row_mask = &in0;  // rows dropped for the current layer
  for (int l = 0; l < n_layers; ++l) {
    const bool has_hidden_mask = l + 1 < n_layers;
    const Mask& col_mask = has_hidden_mask ? masks[site] : empty;
    const auto& macro = *macros_[static_cast<std::size_t>(l)];
    if (l == 0) {
      cimsram::pack_row_mask(*row_mask, macro.n_in(), gate);
      macro.matvec_encoded(enc0, gate, col_mask, rng, z);
    } else {
      macro.encode_input(a, enc_hidden);
      cimsram::pack_row_mask(*row_mask, macro.n_in(), gate);
      macro.matvec_encoded(enc_hidden, gate, col_mask, rng, z);
    }
    finish_layer(z, biases_[static_cast<std::size_t>(l)], col_mask,
                 has_hidden_mask);
    if (has_hidden_mask) {
      row_mask = &col_mask;
      ++site;
    }
    std::swap(a, z);
  }
  out = a;
}

Vector CimMlp::forward(const Vector& x, const std::vector<Mask>& masks,
                       core::Rng& rng) const {
  thread_local cimsram::EncodedInput enc0;
  encode_layer0(x, enc0);
  Vector out;
  forward_encoded(enc0, masks, rng, out);
  return out;
}

std::vector<Vector> CimMlp::forward_batch(
    const Vector& x, const std::vector<std::vector<Mask>>& mask_sets,
    std::uint64_t noise_root, core::ThreadPool* pool) const {
  std::vector<Vector> outs;
  forward_batch(x, mask_sets, noise_root, pool, outs);
  return outs;
}

void CimMlp::forward_batch(const Vector& x,
                           const std::vector<std::vector<Mask>>& mask_sets,
                           std::uint64_t noise_root, core::ThreadPool* pool,
                           std::vector<Vector>& outs) const {
  outs.resize(mask_sets.size());
  if (mask_sets.empty()) return;
  // The layer-0 values are iteration-invariant (dropout only flips gates),
  // so quantization + bit-plane expansion amortize across all iterations.
  cimsram::EncodedInput enc0;
  encode_layer0(x, enc0);
  const auto body = [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t t = begin; t < end; ++t) {
      core::Rng iter_rng = core::Rng::stream(noise_root, t);
      forward_encoded(enc0, mask_sets[t], iter_rng, outs[t]);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(mask_sets.size(), 1, body);
  } else {
    body(0, mask_sets.size(), 0);
  }
}

void CimMlp::forward_window(const std::vector<FrameBatch>& frames,
                            core::ThreadPool* pool, WindowScratch& scratch,
                            std::vector<std::vector<Vector>>& outs,
                            std::vector<cimsram::MacroStats>* frame_stats)
    const {
  const std::size_t n_frames = frames.size();
  const int n_layers = layer_count();
  const int expected_sites = (dropout_on_input_ ? 1 : 0) + n_layers - 1;
  const int mask_base = dropout_on_input_ ? 1 : 0;

  // Flatten the window into (frame, iteration) work items; each item owns
  // a persistent rng stream it carries across the per-layer dispatches,
  // consumed in the exact order forward_encoded would consume it.
  outs.resize(n_frames);
  scratch.enc0.resize(n_frames);
  scratch.rngs.clear();
  scratch.frame_of.clear();
  scratch.iter_of.clear();
  for (std::size_t f = 0; f < n_frames; ++f) {
    const FrameBatch& fr = frames[f];
    CIMNAV_REQUIRE(fr.x != nullptr && fr.mask_sets != nullptr,
                   "frame batch entries must be populated");
    for (const auto& set : *fr.mask_sets)
      CIMNAV_REQUIRE(set.size() == static_cast<std::size_t>(expected_sites),
                     "mask count mismatch");
    encode_layer0(*fr.x, scratch.enc0[f]);
    outs[f].resize(fr.mask_sets->size());
    for (std::size_t t = 0; t < fr.mask_sets->size(); ++t) {
      scratch.rngs.push_back(core::Rng::stream(fr.noise_root, t));
      scratch.frame_of.push_back(static_cast<std::uint32_t>(f));
      scratch.iter_of.push_back(static_cast<std::uint32_t>(t));
    }
  }
  const std::size_t n_items = scratch.rngs.size();
  scratch.acts.resize(n_items);
  if (frame_stats != nullptr) scratch.item_stats.assign(n_items, {});

  const Mask empty;
  for (int l = 0; l < n_layers; ++l) {
    const auto& macro = *macros_[static_cast<std::size_t>(l)];
    const Vector& bias = biases_[static_cast<std::size_t>(l)];
    const bool has_hidden_mask = l + 1 < n_layers;
    const bool is_last = l + 1 == n_layers;
    const auto body = [&](std::size_t begin, std::size_t end, int) {
      thread_local std::vector<std::uint64_t> gate;
      thread_local cimsram::EncodedInput enc_hidden;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t f = scratch.frame_of[i];
        const std::size_t t = scratch.iter_of[i];
        // Scoped to the item body: a sharded matvec runs its shards
        // serially on this thread, so the capture sees exactly this
        // item's accounting and nothing else.
        const cimsram::ScopedStatsCapture capture(
            frame_stats != nullptr ? &scratch.item_stats[i] : nullptr);
        const std::vector<Mask>& set = (*frames[f].mask_sets)[t];
        const Mask& row_mask =
            l == 0 ? (dropout_on_input_ ? set[0] : empty)
                   : set[static_cast<std::size_t>(mask_base + l - 1)];
        const Mask& col_mask =
            has_hidden_mask ? set[static_cast<std::size_t>(mask_base + l)]
                            : empty;
        core::Rng& rng = scratch.rngs[i];
        Vector& z = is_last ? outs[f][t] : scratch.acts[i];
        if (l == 0) {
          if (dropout_on_input_)
            CIMNAV_REQUIRE(row_mask.size() ==
                               static_cast<std::size_t>(macro.n_in()),
                           "input mask size mismatch");
          cimsram::pack_row_mask(row_mask, macro.n_in(), gate);
          macro.matvec_encoded(scratch.enc0[f], gate, col_mask, rng, z);
        } else {
          macro.encode_input(scratch.acts[i], enc_hidden);
          cimsram::pack_row_mask(row_mask, macro.n_in(), gate);
          macro.matvec_encoded(enc_hidden, gate, col_mask, rng, z);
        }
        finish_layer(z, bias, col_mask, has_hidden_mask);
      }
    };
    if (n_items == 0) continue;
    if (pool != nullptr) {
      pool->parallel_for(n_items, 1, body);
    } else {
      body(0, n_items, 0);
    }
  }

  if (frame_stats != nullptr) {
    frame_stats->assign(n_frames, {});
    for (std::size_t i = 0; i < n_items; ++i)
      (*frame_stats)[scratch.frame_of[i]] += scratch.item_stats[i];
  }
}

Vector CimMlp::forward_deterministic(const Vector& x, core::Rng& rng) const {
  const Mask empty;
  Vector a = x;
  for (int l = 0; l < layer_count(); ++l) {
    Vector z = macros_[static_cast<std::size_t>(l)]->matvec(a, empty, empty,
                                                           rng);
    const Vector& b = biases_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
    if (l + 1 < layer_count())
      for (double& v : z) v = std::max(0.0, v);
    a = std::move(z);
  }
  return a;
}

Vector CimMlp::forward_with_reuse(const Vector& x,
                                  const std::vector<Mask>& masks,
                                  ReuseState& state, core::Rng& rng) const {
  const int n_layers = layer_count();
  const int expected_sites = (dropout_on_input_ ? 1 : 0) + n_layers - 1;
  CIMNAV_REQUIRE(masks.size() == static_cast<std::size_t>(expected_sites),
                 "mask count mismatch");
  const Mask no_col_gate;  // accumulators keep all columns live

  // Applies the delta rule P_i = P_{i-1} + W v|_A - W v|_D at `macro`.
  // frozen_enc holds the bit-plane encoding of the frozen values, so both
  // the dense (re)initialization and the sparse deltas replay it against
  // packed row gates without re-quantizing anything.
  const auto delta_update = [&](const cimsram::MacroLike& macro,
                                const Mask& mask) {
    thread_local std::vector<std::uint64_t> gate;
    thread_local std::vector<std::size_t> added, removed;
    thread_local Vector delta;
    if (!state.valid) {
      cimsram::pack_row_mask(mask, macro.n_in(), gate);
      macro.matvec_encoded(state.frozen_enc, gate, no_col_gate, rng,
                           state.reuse_acc);
    } else {
      CIMNAV_REQUIRE(state.prev_mask.size() == mask.size(),
                     "reuse state mask size mismatch");
      added.clear();
      removed.clear();
      for (std::size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] && !state.prev_mask[i]) added.push_back(i);
        if (!mask[i] && state.prev_mask[i]) removed.push_back(i);
      }
      // Differential delta dispatch: ONE signed macro op nets the added
      // rows against the removed rows — only word lines holding flipped
      // rows are driven (MacroStats prices exactly those). A sharded grid
      // derives per-shard streams from one root draw, so this serial path
      // and the pooled batch agree bit-for-bit at any pool size.
      if (!added.empty() || !removed.empty()) {
        macro.matvec_delta(state.frozen_enc, added.data(), added.size(),
                           removed.data(), removed.size(), rng, delta);
        for (std::size_t i = 0; i < state.reuse_acc.size(); ++i)
          state.reuse_acc[i] += delta[i];
      }
    }
    state.prev_mask = mask;
  };

  // Digital epilogue of a hidden layer: bias, ReLU, dropout gate + scale.
  const auto finish_hidden = [&](Vector z, const Vector& bias,
                                 const Mask& mask) {
    for (std::size_t i = 0; i < z.size(); ++i) {
      if (!mask.empty() && !mask[i]) {
        z[i] = 0.0;
        continue;
      }
      z[i] = std::max(0.0, z[i] + bias[i]) * keep_scale_;
    }
    return z;
  };

  Vector a;              // activation entering the dense tail
  int dense_from = 0;    // first layer index the dense tail runs
  std::size_t site = 0;  // next mask site to consume

  if (dropout_on_input_) {
    // Reuse locus: layer 0 over the input mask.
    const Mask& in_mask = masks[site++];
    CIMNAV_REQUIRE(in_mask.size() == x.size(), "input mask size mismatch");
    if (!state.valid) {
      state.frozen_values.resize(x.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        state.frozen_values[i] = x[i] * keep_scale_;
      macros_[0]->encode_input(state.frozen_values, state.frozen_enc);
    }
    delta_update(*macros_[0], in_mask);
    state.valid = true;

    a = state.reuse_acc;
    const bool has_hidden = n_layers > 1;
    if (has_hidden) {
      a = finish_hidden(std::move(a), biases_[0], masks[site]);
      ++site;
    } else {
      for (std::size_t i = 0; i < a.size(); ++i) a[i] += biases_[0][i];
    }
    dense_from = 1;
  } else {
    // Hidden-site dropout: layer 0 is mask-independent — compute once per
    // frame; the reuse locus is layer 1 over the first hidden mask.
    CIMNAV_REQUIRE(n_layers >= 2,
                   "hidden-site reuse needs at least one hidden layer");
    const Mask& m1 = masks[site++];
    if (!state.valid) {
      const Mask all_rows;
      state.layer0_preact = macros_[0]->matvec(x, all_rows, no_col_gate, rng);
      state.frozen_values.resize(state.layer0_preact.size());
      for (std::size_t i = 0; i < state.layer0_preact.size(); ++i)
        state.frozen_values[i] =
            std::max(0.0, state.layer0_preact[i] + biases_[0][i]) *
            keep_scale_;
      macros_[1]->encode_input(state.frozen_values, state.frozen_enc);
    }
    delta_update(*macros_[1], m1);
    state.valid = true;

    a = state.reuse_acc;
    const bool has_hidden = n_layers > 2;
    const Mask& col_mask = has_hidden ? masks[site] : Mask{};
    if (has_hidden) {
      a = finish_hidden(std::move(a), biases_[1], col_mask);
      ++site;
    } else {
      for (std::size_t i = 0; i < a.size(); ++i) a[i] += biases_[1][i];
    }
    dense_from = 2;
  }

  // Remaining layers run dense (their inputs change every iteration).
  Mask row_mask =
      (dense_from <= n_layers - 1 && site >= 1) ? masks[site - 1] : Mask{};
  for (int l = dense_from; l < n_layers; ++l) {
    const bool has_hidden_mask = l + 1 < n_layers;
    const Mask& col_mask = has_hidden_mask ? masks[site] : Mask{};
    Vector z = macros_[static_cast<std::size_t>(l)]->matvec(a, row_mask,
                                                           col_mask, rng);
    const Vector& b = biases_[static_cast<std::size_t>(l)];
    if (has_hidden_mask) {
      z = finish_hidden(std::move(z), b, col_mask);
      row_mask = col_mask;
      ++site;
    } else {
      for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
    }
    a = std::move(z);
  }
  return a;
}

void CimMlp::forward_reuse_window(const std::vector<ReuseFrame>& frames,
                                  core::ThreadPool* pool,
                                  ReuseScratch& scratch) const {
  const int n_layers = layer_count();
  const int expected_sites = (dropout_on_input_ ? 1 : 0) + n_layers - 1;
  const int mask_base = dropout_on_input_ ? 1 : 0;
  CIMNAV_REQUIRE(expected_sites >= 1, "compute reuse needs a mask site");
  if (!dropout_on_input_)
    CIMNAV_REQUIRE(n_layers >= 2,
                   "hidden-site reuse needs at least one hidden layer");
  // Reuse locus: layer 0 over the input mask, or layer 1 over the first
  // hidden mask — in both modes the locus mask is site 0 of every set.
  const int lc = dropout_on_input_ ? 0 : 1;
  const auto& locus = *macros_[static_cast<std::size_t>(lc)];
  const Mask no_col;  // accumulators keep all columns live

  // Partition every frame's visiting positions into refresh chains.
  const std::size_t n_frames = frames.size();
  scratch.enc0.resize(n_frames);
  scratch.chain_frame.clear();
  scratch.chain_begin.clear();
  scratch.chain_end.clear();
  scratch.rngs.clear();
  bool tracking = false;
  std::size_t max_len = 0;
  for (std::size_t f = 0; f < n_frames; ++f) {
    const ReuseFrame& fr = frames[f];
    CIMNAV_REQUIRE(fr.x != nullptr && fr.mask_sets != nullptr &&
                       fr.outs != nullptr,
                   "reuse frame entries must be populated");
    const std::size_t t_total = fr.mask_sets->size();
    for (const auto& set : *fr.mask_sets) {
      CIMNAV_REQUIRE(set.size() == static_cast<std::size_t>(expected_sites),
                     "mask count mismatch");
      CIMNAV_REQUIRE(set[0].size() == static_cast<std::size_t>(locus.n_in()),
                     "reuse locus mask size mismatch");
    }
    // encode_layer0 builds exactly the frozen encoding the serial path
    // uses: the keep-scaled input with input-site dropout (shared by all
    // of the frame's chains), the raw input otherwise (the per-chain
    // layer-0 dense products replay it at chain start).
    encode_layer0(*fr.x, scratch.enc0[f]);
    fr.outs->resize(t_total);
    const std::size_t chain_len = fr.chain_len > 0 ? fr.chain_len : t_total;
    const std::size_t n_chains =
        t_total == 0 ? 0 : (t_total + chain_len - 1) / chain_len;
    for (std::size_t c = 0; c < n_chains; ++c) {
      scratch.chain_frame.push_back(static_cast<std::uint32_t>(f));
      scratch.chain_begin.push_back(c * chain_len);
      scratch.chain_end.push_back(std::min((c + 1) * chain_len, t_total));
      scratch.rngs.push_back(core::Rng::stream(fr.noise_root, c));
      max_len = std::max(max_len, scratch.chain_end.back() -
                                      scratch.chain_begin.back());
    }
    tracking = tracking || fr.stats != nullptr;
  }
  const std::size_t n_chains = scratch.rngs.size();
  if (n_chains == 0) return;

  // Grow-only per-chain arena (accumulators, row lists, delta buffers):
  // in steady state nothing below allocates.
  scratch.accs.resize(n_chains);
  scratch.prev.resize(n_chains);
  scratch.acts.resize(n_chains);
  scratch.deltas.resize(n_chains);
  scratch.added.resize(n_chains);
  scratch.removed.resize(n_chains);
  if (!dropout_on_input_) scratch.frozen_enc.resize(n_chains);
  if (tracking) scratch.chain_stats.assign(n_chains, {});
  // Flip lists are bounded by the locus row count; reserving the bound
  // keeps the digital-diff loop off the heap even when a fresh mask draw
  // flips more rows than any earlier window did.
  const std::size_t locus_rows = static_cast<std::size_t>(locus.n_in());
  for (std::size_t ch = 0; ch < n_chains; ++ch) {
    scratch.deltas[ch].resize(static_cast<std::size_t>(locus.n_out()));
    scratch.added[ch].reserve(locus_rows);
    scratch.removed[ch].reserve(locus_rows);
  }
  scratch.live.reserve(n_chains);
  scratch.items.reserve(n_chains);
  scratch.item_chain.reserve(n_chains);

  const auto chain_sink = [&](std::size_t ch) -> cimsram::MacroStats* {
    return frames[scratch.chain_frame[ch]].stats != nullptr
               ? &scratch.chain_stats[ch]
               : nullptr;
  };
  const auto frozen_of = [&](std::size_t ch) -> const cimsram::EncodedInput& {
    return dropout_on_input_ ? scratch.enc0[scratch.chain_frame[ch]]
                             : scratch.frozen_enc[ch];
  };
  // The locus mask of chain `ch` at visiting position `k`.
  const auto locus_mask_at = [&](std::size_t ch, std::size_t k)
      -> const Mask& {
    const ReuseFrame& fr = frames[scratch.chain_frame[ch]];
    return (*fr.mask_sets)[fr.order != nullptr ? fr.order[k] : k][0];
  };
  const auto dispatch = [&](std::size_t total, const auto& body) {
    if (total == 0) return;
    if (pool != nullptr) {
      pool->parallel_for(total, 1, body);
    } else {
      body(0, total, 0);
    }
  };

  // Two dispatch strategies, bit-identical by construction (both consume
  // each chain's stream in exactly the serial forward_with_reuse order,
  // and chains never read each other's state):
  //  * few chains — every chain runs its whole serial loop as one work
  //    item; no step barriers, minimal latency (one session's frame);
  //  * many chains (the fleet case) — chains advance step-synchronously,
  //    so at position p ONE pooled dispatch carries every chain's step-p
  //    work and the sparse delta matvecs batch shard-affinely.
  constexpr std::size_t kStepSyncMinChains = 16;
  if (n_chains < kStepSyncMinChains) {
    dispatch(n_chains, [&](std::size_t b, std::size_t e, int) {
      thread_local std::vector<std::uint64_t> gate;
      thread_local cimsram::EncodedInput enc_hidden;
      thread_local Vector pre, fv;
      for (std::size_t ch = b; ch < e; ++ch) {
        const cimsram::ScopedStatsCapture capture(chain_sink(ch));
        const ReuseFrame& fr = frames[scratch.chain_frame[ch]];
        auto& added = scratch.added[ch];
        auto& removed = scratch.removed[ch];
        Vector& acc = scratch.accs[ch];
        Vector& dlt = scratch.deltas[ch];
        for (std::size_t k = scratch.chain_begin[ch];
             k < scratch.chain_end[ch]; ++k) {
          const std::vector<Mask>& set =
              (*fr.mask_sets)[fr.order != nullptr ? fr.order[k] : k];
          const Mask& m = set[0];
          if (k == scratch.chain_begin[ch]) {
            if (!dropout_on_input_) {
              const auto& m0 = *macros_[0];
              cimsram::pack_row_mask(Mask{}, m0.n_in(), gate);
              m0.matvec_encoded(scratch.enc0[scratch.chain_frame[ch]], gate,
                                no_col, scratch.rngs[ch], pre);
              fv.resize(pre.size());
              for (std::size_t j = 0; j < pre.size(); ++j)
                fv[j] = std::max(0.0, pre[j] + biases_[0][j]) * keep_scale_;
              macros_[1]->encode_input(fv, scratch.frozen_enc[ch]);
            }
            cimsram::pack_row_mask(m, locus.n_in(), gate);
            locus.matvec_encoded(frozen_of(ch), gate, no_col,
                                 scratch.rngs[ch], acc);
          } else {
            const Mask& prv = *scratch.prev[ch];
            added.clear();
            removed.clear();
            for (std::size_t r = 0; r < m.size(); ++r) {
              if (m[r] && !prv[r]) added.push_back(r);
              if (!m[r] && prv[r]) removed.push_back(r);
            }
            if (!added.empty() || !removed.empty()) {
              locus.matvec_delta(frozen_of(ch), added.data(), added.size(),
                                 removed.data(), removed.size(),
                                 scratch.rngs[ch], dlt);
              for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += dlt[j];
            }
          }
          scratch.prev[ch] = &m;
          if (lc + 1 == n_layers) {
            Vector& out = (*fr.outs)[k];
            out = acc;
            finish_layer(out, biases_[static_cast<std::size_t>(lc)], no_col,
                         /*hidden=*/false);
          } else {
            Vector& a = scratch.acts[ch];
            a = acc;
            finish_layer(a, biases_[static_cast<std::size_t>(lc)],
                         set[static_cast<std::size_t>(mask_base + lc)],
                         /*hidden=*/true);
            for (int l = lc + 1; l < n_layers; ++l) {
              const bool is_last = l + 1 == n_layers;
              const auto& macro = *macros_[static_cast<std::size_t>(l)];
              const Mask& row_mask =
                  set[static_cast<std::size_t>(mask_base + l - 1)];
              const Mask& col_mask =
                  is_last ? no_col
                          : set[static_cast<std::size_t>(mask_base + l)];
              Vector& z = is_last ? (*fr.outs)[k] : a;
              macro.encode_input(a, enc_hidden);
              cimsram::pack_row_mask(row_mask, macro.n_in(), gate);
              macro.matvec_encoded(enc_hidden, gate, col_mask,
                                   scratch.rngs[ch], z);
              finish_layer(z, biases_[static_cast<std::size_t>(l)], col_mask,
                           /*hidden=*/!is_last);
            }
          }
        }
      }
    });
    if (tracking) {
      for (std::size_t f = 0; f < n_frames; ++f)
        if (frames[f].stats != nullptr) *frames[f].stats = {};
      for (std::size_t ch = 0; ch < n_chains; ++ch) {
        cimsram::MacroStats* sink = frames[scratch.chain_frame[ch]].stats;
        if (sink != nullptr) *sink += scratch.chain_stats[ch];
      }
    }
    return;
  }

  // Step-synchronous chain advance: at position p, each barrier-separated
  // phase touches a chain's rng through at most one work item, in exactly
  // the order the serial forward_with_reuse loop consumes it.
  for (std::size_t p = 0; p < max_len; ++p) {
    scratch.live.clear();
    for (std::size_t ch = 0; ch < n_chains; ++ch)
      if (scratch.chain_begin[ch] + p < scratch.chain_end[ch])
        scratch.live.push_back(static_cast<std::uint32_t>(ch));
    const std::size_t n_live = scratch.live.size();

    if (p == 0) {
      if (!dropout_on_input_) {
        // Chain start, hidden-site mode: every chain's dense layer-0
        // product (its noise comes from the chain's own stream), then the
        // frozen hidden values are encoded once per chain.
        dispatch(n_live, [&](std::size_t b, std::size_t e, int) {
          thread_local std::vector<std::uint64_t> gate;
          thread_local Vector pre, fv;
          for (std::size_t i = b; i < e; ++i) {
            const std::size_t ch = scratch.live[i];
            const cimsram::ScopedStatsCapture capture(chain_sink(ch));
            const auto& m0 = *macros_[0];
            cimsram::pack_row_mask(Mask{}, m0.n_in(), gate);
            m0.matvec_encoded(scratch.enc0[scratch.chain_frame[ch]], gate,
                              no_col, scratch.rngs[ch], pre);
            fv.resize(pre.size());
            for (std::size_t j = 0; j < pre.size(); ++j)
              fv[j] = std::max(0.0, pre[j] + biases_[0][j]) * keep_scale_;
            macros_[1]->encode_input(fv, scratch.frozen_enc[ch]);
          }
        });
      }
      // Dense (re)initialization of every chain's accumulator.
      dispatch(n_live, [&](std::size_t b, std::size_t e, int) {
        thread_local std::vector<std::uint64_t> gate;
        for (std::size_t i = b; i < e; ++i) {
          const std::size_t ch = scratch.live[i];
          const cimsram::ScopedStatsCapture capture(chain_sink(ch));
          const Mask& m = locus_mask_at(ch, scratch.chain_begin[ch]);
          cimsram::pack_row_mask(m, locus.n_in(), gate);
          locus.matvec_encoded(frozen_of(ch), gate, no_col, scratch.rngs[ch],
                               scratch.accs[ch]);
          scratch.prev[ch] = &m;
        }
      });
    } else {
      // Digital diff against the previous visiting position (no analog
      // work, no draws), then ONE pooled differential delta batch: each
      // chain with any flip contributes one signed item netting its adds
      // against its removes. Chains with no flips at all contribute no
      // item and draw nothing — exactly the serial path's skipped call.
      scratch.items.clear();
      scratch.item_chain.clear();
      for (std::size_t i = 0; i < n_live; ++i) {
        const std::size_t ch = scratch.live[i];
        const std::size_t k = scratch.chain_begin[ch] + p;
        const Mask& cur = locus_mask_at(ch, k);
        const Mask& prv = *scratch.prev[ch];
        auto& added = scratch.added[ch];
        auto& removed = scratch.removed[ch];
        added.clear();
        removed.clear();
        for (std::size_t r = 0; r < cur.size(); ++r) {
          if (cur[r] && !prv[r]) added.push_back(r);
          if (!cur[r] && prv[r]) removed.push_back(r);
        }
        scratch.prev[ch] = &cur;
        if (added.empty() && removed.empty()) continue;
        cimsram::DeltaItem it;
        it.enc = &frozen_of(ch);
        it.add_rows = added.data();
        it.n_add = added.size();
        it.rem_rows = removed.data();
        it.n_rem = removed.size();
        it.rng = &scratch.rngs[ch];
        it.y = scratch.deltas[ch].data();
        it.stats = chain_sink(ch);
        scratch.items.push_back(it);
        scratch.item_chain.push_back(ch);
      }
      if (!scratch.items.empty()) {
        locus.matvec_delta_batch(scratch.items.data(), scratch.items.size(),
                                 pool);
        for (std::size_t i = 0; i < scratch.item_chain.size(); ++i) {
          const std::size_t ch = scratch.item_chain[i];
          Vector& acc = scratch.accs[ch];
          const Vector& d = scratch.deltas[ch];
          for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += d[j];
        }
      }
    }

    // Locus epilogue + dense tail. When the locus is the last layer the
    // epilogue is pure digital work (bias only); otherwise it folds into
    // the first tail dispatch.
    if (lc + 1 == n_layers) {
      for (std::size_t i = 0; i < n_live; ++i) {
        const std::size_t ch = scratch.live[i];
        const ReuseFrame& fr = frames[scratch.chain_frame[ch]];
        const std::size_t k = scratch.chain_begin[ch] + p;
        Vector& out = (*fr.outs)[k];
        out = scratch.accs[ch];
        finish_layer(out, biases_[static_cast<std::size_t>(lc)], no_col,
                     /*hidden=*/false);
      }
    } else {
      for (int l = lc + 1; l < n_layers; ++l) {
        const auto& macro = *macros_[static_cast<std::size_t>(l)];
        const Vector& bias = biases_[static_cast<std::size_t>(l)];
        const bool is_last = l + 1 == n_layers;
        dispatch(n_live, [&](std::size_t b, std::size_t e, int) {
          thread_local std::vector<std::uint64_t> gate;
          thread_local cimsram::EncodedInput enc_hidden;
          for (std::size_t i = b; i < e; ++i) {
            const std::size_t ch = scratch.live[i];
            const cimsram::ScopedStatsCapture capture(chain_sink(ch));
            const ReuseFrame& fr = frames[scratch.chain_frame[ch]];
            const std::size_t k = scratch.chain_begin[ch] + p;
            const std::vector<Mask>& set =
                (*fr.mask_sets)[fr.order != nullptr ? fr.order[k] : k];
            if (l == lc + 1) {
              scratch.acts[ch] = scratch.accs[ch];
              finish_layer(scratch.acts[ch],
                           biases_[static_cast<std::size_t>(lc)],
                           set[static_cast<std::size_t>(mask_base + lc)],
                           /*hidden=*/true);
            }
            const Mask& row_mask =
                set[static_cast<std::size_t>(mask_base + l - 1)];
            const Mask& col_mask =
                is_last ? no_col
                        : set[static_cast<std::size_t>(mask_base + l)];
            Vector& z = is_last ? (*fr.outs)[k] : scratch.acts[ch];
            macro.encode_input(scratch.acts[ch], enc_hidden);
            cimsram::pack_row_mask(row_mask, macro.n_in(), gate);
            macro.matvec_encoded(enc_hidden, gate, col_mask,
                                 scratch.rngs[ch], z);
            finish_layer(z, bias, col_mask, /*hidden=*/!is_last);
          }
        });
      }
    }
  }

  if (tracking) {
    for (std::size_t f = 0; f < n_frames; ++f)
      if (frames[f].stats != nullptr) *frames[f].stats = {};
    for (std::size_t ch = 0; ch < n_chains; ++ch) {
      cimsram::MacroStats* sink = frames[scratch.chain_frame[ch]].stats;
      if (sink != nullptr) *sink += scratch.chain_stats[ch];
    }
  }
}

cimsram::MacroStats CimMlp::total_stats() const {
  cimsram::MacroStats total;
  for (const auto& m : macros_) total += m->stats();
  return total;
}

void CimMlp::reset_stats() const {
  for (const auto& m : macros_) m->reset_stats();
}

}  // namespace cimnav::nn
