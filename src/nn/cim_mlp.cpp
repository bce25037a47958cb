#include "nn/cim_mlp.hpp"

#include <algorithm>
#include <cmath>

namespace cimnav::nn {
namespace {

constexpr double kScaleHeadroom = 1.05;  // 5% margin on calibrated maxima

/// Runs `body` over [0, n) on `pool`, or inline when `pool` is nullptr.
template <class Body>
void run_items(core::ThreadPool* pool, std::size_t n, const Body& body) {
  if (n == 0) return;
  if (pool != nullptr) {
    pool->parallel_for(n, 1, body);
  } else {
    body(0, n, 0);
  }
}

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
    macros_.push_back(std::make_unique<cimsram::CimMacro>(
        w.data(), w.rows(), w.cols(), macro_config, scale));
    biases_.push_back(reference.biases(l));
  }
}

const cimsram::CimMacro& CimMlp::macro(int layer) const {
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

void CimMlp::check_mask_set(const std::vector<Mask>& set) const {
  const std::size_t base = dropout_on_input_ ? 1 : 0;
  CIMNAV_REQUIRE(set.size() == base + macros_.size() - 1,
                 "mask count mismatch");
  if (dropout_on_input_)
    CIMNAV_REQUIRE(set[0].size() ==
                       static_cast<std::size_t>(macros_.front()->n_in()),
                   "input mask size mismatch");
  for (std::size_t l = 0; l + 1 < macros_.size(); ++l)
    CIMNAV_REQUIRE(set[base + l].size() ==
                       static_cast<std::size_t>(macros_[l]->n_out()),
                   "hidden mask size mismatch");
}

void CimMlp::forward_window(const std::vector<FrameBatch>& frames,
                            core::ThreadPool* pool, WindowScratch& scratch,
                            std::vector<std::vector<Vector>>& outs,
                            std::vector<cimsram::MacroStats>* frame_stats)
    const {
  const std::size_t n_frames = frames.size();
  const int n_layers = layer_count();
  const int mask_base = dropout_on_input_ ? 1 : 0;

  // Flatten the window into (frame, iteration) work items; each item owns
  // a persistent rng stream it carries across the per-layer dispatches.
  outs.resize(n_frames);
  scratch.enc0.resize(n_frames);
  scratch.rngs.clear();
  scratch.frame_of.clear();
  scratch.iter_of.clear();
  for (std::size_t f = 0; f < n_frames; ++f) {
    const FrameBatch& fr = frames[f];
    CIMNAV_REQUIRE(fr.x != nullptr && fr.mask_sets != nullptr,
                   "frame batch entries must be populated");
    for (const auto& set : *fr.mask_sets) check_mask_set(set);
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
    run_items(pool, n_items, [&](std::size_t begin, std::size_t end, int) {
      thread_local std::vector<std::uint64_t> gate;
      thread_local cimsram::EncodedInput enc_hidden;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t f = scratch.frame_of[i];
        const std::size_t t = scratch.iter_of[i];
        // Scoped to the item body: the item's reads account on this
        // thread, so the capture sees exactly this item's accounting and
        // nothing else.
        const cimsram::ScopedStatsCapture capture(
            frame_stats != nullptr ? &scratch.item_stats[i] : nullptr);
        const std::vector<Mask>& set = (*frames[f].mask_sets)[t];
        const Mask& row_mask =
            l == 0 ? (dropout_on_input_ ? set[0] : empty)
                   : set[static_cast<std::size_t>(mask_base + l - 1)];
        const Mask& col_mask =
            has_hidden_mask ? set[static_cast<std::size_t>(mask_base + l)]
                            : empty;
        const cimsram::EncodedInput* enc = &scratch.enc0[f];
        if (l > 0) {
          macro.encode_input(scratch.acts[i], enc_hidden);
          enc = &enc_hidden;
        }
        Vector& z = has_hidden_mask ? scratch.acts[i] : outs[f][t];
        cimsram::pack_row_mask(row_mask, macro.n_in(), gate);
        macro.matvec_encoded(*enc, gate, col_mask, &scratch.rngs[i], z);
        finish_layer(z, bias, col_mask, has_hidden_mask);
      }
    });
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
    Vector z = cimsram::matvec(*macros_[static_cast<std::size_t>(l)], a, empty,
                               empty, &rng);
    const Vector& b = biases_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += b[i];
    if (l + 1 < layer_count())
      for (double& v : z) v = std::max(0.0, v);
    a = std::move(z);
  }
  return a;
}

void CimMlp::forward_reuse_window(const std::vector<ReuseFrame>& frames,
                                  core::ThreadPool* pool,
                                  ReuseScratch& scratch) const {
  const int n_layers = layer_count();
  const int mask_base = dropout_on_input_ ? 1 : 0;
  CIMNAV_REQUIRE(mask_base + n_layers - 1 >= 1,
                 "compute reuse needs a mask site");
  // Reuse locus: layer 0 over the input mask, or layer 1 over the first
  // hidden mask — in both modes the locus mask is site 0 of every set.
  const int lc = dropout_on_input_ ? 0 : 1;
  const auto& locus = *macros_[static_cast<std::size_t>(lc)];
  const Mask ungated;  // every row / column live (accumulators keep all)

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
    for (const auto& set : *fr.mask_sets) check_mask_set(set);
    // The frozen layer-0 encoding: the keep-scaled input with input-site
    // dropout (shared by all of the frame's chains), the raw input
    // otherwise (each chain's start replays it in its dense layer-0 read).
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

  const auto chain_sink = [&](std::size_t ch) -> cimsram::MacroStats* {
    return frames[scratch.chain_frame[ch]].stats != nullptr
               ? &scratch.chain_stats[ch]
               : nullptr;
  };
  const auto frozen_of = [&](std::size_t ch) -> const cimsram::EncodedInput& {
    return dropout_on_input_ ? scratch.enc0[scratch.chain_frame[ch]]
                             : scratch.frozen_enc[ch];
  };
  // The mask set chain `ch` visits at position `k`.
  const auto set_at = [&](std::size_t ch, std::size_t k)
      -> const std::vector<Mask>& {
    const ReuseFrame& fr = frames[scratch.chain_frame[ch]];
    return (*fr.mask_sets)[fr.order != nullptr ? fr.order[k] : k];
  };
  const auto flipped = [&](std::size_t ch) {
    return !scratch.added[ch].empty() || !scratch.removed[ch].empty();
  };

  // The chain-step kernel: three phases, each consuming only its own
  // chain's rng, in the order layer 0 -> locus -> tail.
  //
  // start — dense (re)initialization at the chain's first position. In
  // hidden-site mode the chain first reads layer 0 densely on its own
  // noise stream and encodes the frozen hidden values.
  const auto start = [&](std::size_t ch) {
    thread_local std::vector<std::uint64_t> gate;
    thread_local Vector pre, fv;
    if (!dropout_on_input_) {
      const auto& m0 = *macros_[0];
      cimsram::pack_row_mask(ungated, m0.n_in(), gate);
      m0.matvec_encoded(scratch.enc0[scratch.chain_frame[ch]], gate, ungated,
                        &scratch.rngs[ch], pre);
      fv.resize(pre.size());
      for (std::size_t j = 0; j < pre.size(); ++j)
        fv[j] = std::max(0.0, pre[j] + biases_[0][j]) * keep_scale_;
      locus.encode_input(fv, scratch.frozen_enc[ch]);
    }
    const Mask& m = set_at(ch, scratch.chain_begin[ch])[0];
    cimsram::pack_row_mask(m, locus.n_in(), gate);
    locus.matvec_encoded(frozen_of(ch), gate, ungated, &scratch.rngs[ch],
                         scratch.accs[ch]);
    scratch.prev[ch] = &m;
  };
  // diff — the locus rows that flipped on / off since the chain's previous
  // position (digital, no draws). Returns whether any row flipped; a chain
  // without flips issues no delta read and so draws nothing.
  const auto diff = [&](std::size_t ch, std::size_t k) {
    const Mask& cur = set_at(ch, k)[0];
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
    return flipped(ch);
  };
  // delta — the differential read of the flips diff found, into the
  // chain's delta buffer, on the chain's own stream and stats sink (a
  // null item sink would suspend the chain's capture scope).
  const auto delta = [&](std::size_t ch) {
    cimsram::DeltaItem it;
    it.enc = &frozen_of(ch);
    it.add_rows = scratch.added[ch].data();
    it.n_add = scratch.added[ch].size();
    it.rem_rows = scratch.removed[ch].data();
    it.n_rem = scratch.removed[ch].size();
    it.rng = &scratch.rngs[ch];
    it.y = scratch.deltas[ch].data();
    it.stats = chain_sink(ch);
    return it;
  };
  // finish — folds position k's delta product into the accumulator (when
  // diff found flips), then the locus epilogue and every dense tail layer.
  const auto finish = [&](std::size_t ch, std::size_t k) {
    thread_local std::vector<std::uint64_t> gate;
    thread_local cimsram::EncodedInput enc_hidden;
    Vector& acc = scratch.accs[ch];
    if (k != scratch.chain_begin[ch] && flipped(ch)) {
      const Vector& d = scratch.deltas[ch];
      for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += d[j];
    }
    const std::vector<Mask>& set = set_at(ch, k);
    Vector& out = (*frames[scratch.chain_frame[ch]].outs)[k];
    const bool locus_hidden = lc + 1 < n_layers;
    Vector& a = locus_hidden ? scratch.acts[ch] : out;
    a = acc;
    finish_layer(a, biases_[static_cast<std::size_t>(lc)],
                 locus_hidden ? set[static_cast<std::size_t>(mask_base + lc)]
                              : ungated,
                 locus_hidden);
    for (int l = lc + 1; l < n_layers; ++l) {
      const bool is_last = l + 1 == n_layers;
      const auto& macro = *macros_[static_cast<std::size_t>(l)];
      const Mask& col_mask =
          is_last ? ungated : set[static_cast<std::size_t>(mask_base + l)];
      Vector& z = is_last ? out : a;
      macro.encode_input(a, enc_hidden);
      cimsram::pack_row_mask(set[static_cast<std::size_t>(mask_base + l - 1)],
                             macro.n_in(), gate);
      macro.matvec_encoded(enc_hidden, gate, col_mask, &scratch.rngs[ch], z);
      finish_layer(z, biases_[static_cast<std::size_t>(l)], col_mask,
                   !is_last);
    }
  };

  // Two schedules of the same kernel, bit-identical by construction
  // (chains never read each other's state):
  //  * few chains (one session's frame) — each chain runs
  //    start -> (diff -> delta -> finish)* as one work item, with no step
  //    barriers, each delta a one-item CimMacro::matvec_delta_batch;
  //  * many chains (the fleet case) — chains advance step-synchronously:
  //    position 0 is one dispatch of start + finish; every later position
  //    is one pooled differential batch (CimMacro::matvec_delta_batch)
  //    over the chains with flips, then one dispatch of finish.
  constexpr std::size_t kStepSyncMinChains = 16;
  if (n_chains < kStepSyncMinChains) {
    run_items(pool, n_chains, [&](std::size_t b, std::size_t e, int) {
      for (std::size_t ch = b; ch < e; ++ch) {
        const cimsram::ScopedStatsCapture capture(chain_sink(ch));
        start(ch);
        finish(ch, scratch.chain_begin[ch]);
        for (std::size_t k = scratch.chain_begin[ch] + 1;
             k < scratch.chain_end[ch]; ++k) {
          if (diff(ch, k)) {
            const cimsram::DeltaItem it = delta(ch);
            locus.matvec_delta_batch(&it, 1, nullptr);
          }
          finish(ch, k);
        }
      }
    });
  } else {
    for (std::size_t p = 0; p < max_len; ++p) {
      scratch.live.clear();
      for (std::size_t ch = 0; ch < n_chains; ++ch)
        if (scratch.chain_begin[ch] + p < scratch.chain_end[ch])
          scratch.live.push_back(static_cast<std::uint32_t>(ch));
      if (p > 0) {
        scratch.items.clear();
        for (const std::uint32_t ch : scratch.live) {
          if (diff(ch, scratch.chain_begin[ch] + p))
            scratch.items.push_back(delta(ch));
        }
        if (!scratch.items.empty())
          locus.matvec_delta_batch(scratch.items.data(), scratch.items.size(),
                                   pool);
      }
      run_items(pool, scratch.live.size(),
                [&](std::size_t b, std::size_t e, int) {
                  for (std::size_t i = b; i < e; ++i) {
                    const std::size_t ch = scratch.live[i];
                    const cimsram::ScopedStatsCapture capture(
                        chain_sink(ch));
                    if (p == 0) start(ch);
                    finish(ch, scratch.chain_begin[ch] + p);
                  }
                });
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
