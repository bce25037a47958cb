#include "cimsram/sharded_macro.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/error.hpp"

namespace cimnav::cimsram {
namespace {

MacroWorkspace& tls_workspace() {
  thread_local MacroWorkspace ws;
  return ws;
}

std::vector<int> split_offsets(int total, int bound) {
  std::vector<int> off{0};
  if (bound <= 0 || bound >= total) {
    off.push_back(total);
    return off;
  }
  for (int o = bound; o < total; o += bound) off.push_back(o);
  off.push_back(total);
  return off;
}

}  // namespace

ShardedMacro::ShardedMacro(const std::vector<double>& weights, int n_out,
                           int n_in, const CimMacroConfig& config,
                           double input_scale)
    : config_(config), n_in_(n_in), n_out_(n_out), input_scale_(input_scale) {
  // Validated before anything below divides by the scale or shifts by
  // weight_bits.
  validate_macro_config(config, input_scale);
  inv_input_scale_ = 1.0 / input_scale;
  CIMNAV_REQUIRE(n_in > 0 && n_out > 0, "matrix dims must be positive");
  CIMNAV_REQUIRE(weights.size() == static_cast<std::size_t>(n_in) *
                                       static_cast<std::size_t>(n_out),
                 "weight size mismatch");
  CIMNAV_REQUIRE(config.max_rows == 0 || config.max_rows % 64 == 0,
                 "shard row bound must be a multiple of 64 (word-aligned "
                 "encoding/gate slices)");
  CIMNAV_REQUIRE(config.max_cols >= 0, "shard column bound must be >= 0");
  words_ = (n_in + 63) / 64;
  row_off_ = split_offsets(n_in, config.max_rows);
  col_off_ = split_offsets(n_out, config.max_cols);

  // The logical tensor's symmetric quantization grid, forced onto every
  // shard so partial sums share one integer lattice.
  const int mag_max = (1 << (config.weight_bits - 1)) - 1;
  double w_max = 0.0;
  for (double w : weights) w_max = std::max(w_max, std::abs(w));
  weight_scale_ = w_max > 0.0 ? w_max / static_cast<double>(mag_max) : 1.0;

  const int rr = grid_rows(), cc = grid_cols();
  shards_.reserve(static_cast<std::size_t>(rr) * static_cast<std::size_t>(cc));
  std::vector<double> slice;
  for (int r = 0; r < rr; ++r) {
    for (int c = 0; c < cc; ++c) {
      const int r0 = row_off_[static_cast<std::size_t>(r)];
      const int r1 = row_off_[static_cast<std::size_t>(r) + 1];
      const int c0 = col_off_[static_cast<std::size_t>(c)];
      const int c1 = col_off_[static_cast<std::size_t>(c) + 1];
      slice.clear();
      slice.reserve(static_cast<std::size_t>(c1 - c0) *
                    static_cast<std::size_t>(r1 - r0));
      for (int j = c0; j < c1; ++j)
        for (int i = r0; i < r1; ++i)
          slice.push_back(weights[static_cast<std::size_t>(j) *
                                      static_cast<std::size_t>(n_in) +
                                  static_cast<std::size_t>(i)]);
      shards_.emplace_back(slice, c1 - c0, r1 - r0, config, input_scale,
                           weight_scale_);
    }
  }
}

const CimMacro& ShardedMacro::shard(int r, int c) const {
  CIMNAV_REQUIRE(r >= 0 && r < grid_rows() && c >= 0 && c < grid_cols(),
                 "shard index out of range");
  return shards_[static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(grid_cols()) +
                 static_cast<std::size_t>(c)];
}

void ShardedMacro::encode_input(const std::vector<double>& x,
                                EncodedInput& enc) const {
  encode_input_planes(x, n_in_, config_.input_bits, inv_input_scale_, enc);
}

void ShardedMacro::matvec_encoded(const EncodedInput& enc,
                                  const std::vector<std::uint64_t>& row_gate,
                                  const std::vector<std::uint8_t>& out_mask,
                                  core::Rng* rng,
                                  std::vector<double>& y) const {
  CIMNAV_REQUIRE(row_gate.size() == static_cast<std::size_t>(words_),
                 "row gate word count mismatch");
  CIMNAV_REQUIRE(enc.planes.size() ==
                     static_cast<std::size_t>(config_.input_bits) *
                         static_cast<std::size_t>(words_),
                 "encoded input shape mismatch");
  CIMNAV_REQUIRE(out_mask.empty() ||
                     out_mask.size() == static_cast<std::size_t>(n_out_),
                 "output mask size mismatch");
  const std::uint8_t* mask = out_mask.empty() ? nullptr : out_mask.data();
  const std::size_t stride = static_cast<std::size_t>(words_);

  thread_local std::vector<double> acc, partial;
  acc.assign(static_cast<std::size_t>(n_out_), 0.0);
  MacroWorkspace& ws = tls_workspace();
  // Fixed (r, c) order: the row-shard reduction order defines the result.
  for (int r = 0; r < grid_rows(); ++r) {
    const std::size_t word_off =
        static_cast<std::size_t>(row_off_[static_cast<std::size_t>(r)] / 64);
    for (int c = 0; c < grid_cols(); ++c) {
      const int c0 = col_off_[static_cast<std::size_t>(c)];
      const CimMacro& s = shard(r, c);
      partial.resize(static_cast<std::size_t>(s.n_out()));
      s.run_view(enc.planes.data() + word_off, stride,
                 row_gate.data() + word_off,
                 mask == nullptr ? nullptr : mask + c0, /*unit_scale=*/true,
                 rng, ws, partial.data());
      for (int j = 0; j < s.n_out(); ++j)
        acc[static_cast<std::size_t>(c0 + j)] += partial[static_cast<std::size_t>(j)];
    }
  }
  y.resize(static_cast<std::size_t>(n_out_));
  for (int j = 0; j < n_out_; ++j) {
    if (mask != nullptr && !mask[j]) {
      y[static_cast<std::size_t>(j)] = 0.0;
      continue;
    }
    // Same rounding order as the monolithic kernel: (acc * ws) * is.
    y[static_cast<std::size_t>(j)] =
        acc[static_cast<std::size_t>(j)] * weight_scale_ * input_scale_;
  }
}

void ShardedMacro::matvec_delta_batch(const DeltaItem* items,
                                      std::size_t n_items,
                                      core::ThreadPool* pool) const {
  if (n_items == 0) return;
  const std::size_t rr = static_cast<std::size_t>(grid_rows());
  const std::size_t cc = static_cast<std::size_t>(grid_cols());
  const std::size_t n_shards = rr * cc;
  const std::size_t words = static_cast<std::size_t>(words_);
  const std::size_t out_stride = static_cast<std::size_t>(n_out_);

  // All scratch is thread_local on the dispatching thread and grow-only,
  // so the pooled reuse engine's steady state never touches the heap.
  thread_local std::vector<std::uint64_t> gates_add_all, gates_rem_all,
      roots;
  thread_local std::vector<double> partials;
  thread_local std::vector<MacroStats> stats_all;

  // Item roots are drawn serially in item order (each item's own stream
  // advances exactly as in the serial loop); gates pack in the same pass.
  roots.resize(n_items);
  gates_add_all.assign(n_items * words, 0);
  gates_rem_all.assign(n_items * words, 0);
  bool any_stats = false;
  for (std::size_t k = 0; k < n_items; ++k) {
    const DeltaItem& it = items[k];
    CIMNAV_REQUIRE(it.enc->planes.size() ==
                       static_cast<std::size_t>(config_.input_bits) * words,
                   "encoded input shape mismatch");
    const auto pack = [&](std::uint64_t* gate, const std::size_t* rows,
                          std::size_t n) {
      for (std::size_t n2 = 0; n2 < n; ++n2) {
        const std::size_t i = rows[n2];
        CIMNAV_REQUIRE(i < static_cast<std::size_t>(n_in_),
                       "row out of range");
        gate[i / 64] |= (std::uint64_t{1} << (i % 64));
      }
    };
    pack(gates_add_all.data() + k * words, it.add_rows, it.n_add);
    pack(gates_rem_all.data() + k * words, it.rem_rows, it.n_rem);
    roots[k] = (*it.rng)();
    any_stats = any_stats || it.stats != nullptr;
  }
  partials.assign(n_items * rr * out_stride, 0.0);
  if (any_stats) stats_all.assign(n_items * n_shards, MacroStats{});

  // Lambdas do not capture thread_local variables — a pool worker naming
  // them would read its OWN (empty) instances. Snapshot the dispatching
  // thread's buffers as plain pointers the closures can capture.
  const std::uint64_t* const ga_base = gates_add_all.data();
  const std::uint64_t* const gr_base = gates_rem_all.data();
  const std::uint64_t* const roots_base = roots.data();
  double* const partials_base = partials.data();
  MacroStats* const stats_base = any_stats ? stats_all.data() : nullptr;

  // Shard-major fan (shard-affine): one chunk = one shard streamed across
  // items, so a worker stays on one shard's weight planes per dispatch.
  // Noise is keyed on (item root, shard index), so any partitioning —
  // including a serial loop of one-item calls — produces identical bits.
  const auto run_items = [&, ga_base, gr_base, roots_base, partials_base,
                          stats_base](std::size_t begin, std::size_t end,
                                      int) {
    MacroWorkspace& ws = tls_workspace();
    for (std::size_t k2 = begin; k2 < end; ++k2) {
      const std::size_t shard_idx = k2 / n_items;
      const std::size_t k = k2 % n_items;
      const std::size_t r = shard_idx / cc;
      const std::size_t c = shard_idx % cc;
      const std::size_t word_off = static_cast<std::size_t>(row_off_[r] / 64);
      const CimMacro& s = shards_[shard_idx];
      const std::uint64_t* ga = ga_base + k * words + word_off;
      const std::uint64_t* gr = gr_base + k * words + word_off;
      ws.word_list.clear();
      std::uint64_t add_any = 0, rem_any = 0;
      for (int w = 0; w < s.gate_words(); ++w) {
        add_any |= ga[static_cast<std::size_t>(w)];
        rem_any |= gr[static_cast<std::size_t>(w)];
        if ((ga[static_cast<std::size_t>(w)] |
             gr[static_cast<std::size_t>(w)]) != 0)
          ws.word_list.push_back(w);
      }
      if (ws.word_list.empty()) continue;
      core::Rng shard_rng = core::Rng::stream(roots_base[k], shard_idx);
      ScopedStatsCapture capture(
          stats_base != nullptr ? stats_base + (k * n_shards + shard_idx)
                                : nullptr);
      s.run_view_delta(items[k].enc->planes.data() + word_off, words,
                       add_any != 0 ? ga : nullptr,
                       rem_any != 0 ? gr : nullptr, ws.word_list.data(),
                       static_cast<int>(ws.word_list.size()), nullptr,
                       /*unit_scale=*/true, &shard_rng, ws,
                       partials_base + (k * rr + r) * out_stride +
                           static_cast<std::size_t>(col_off_[c]));
    }
  };

  // Reduce row shards in fixed order, scale last, and fold the per-shard
  // stats captures into each item's sink (after the fan barrier, so
  // concurrent shards of one item never raced on it).
  const auto reduce_range = [&, partials_base, stats_base](
                                std::size_t begin, std::size_t end, int) {
    for (std::size_t k = begin; k < end; ++k) {
      double* y = items[k].y;
      for (int j = 0; j < n_out_; ++j) {
        double acc = 0.0;
        for (std::size_t r = 0; r < rr; ++r)
          acc += partials_base[(k * rr + r) * out_stride +
                               static_cast<std::size_t>(j)];
        y[j] = acc * weight_scale_ * input_scale_;
      }
      if (items[k].stats != nullptr && stats_base != nullptr) {
        for (std::size_t sh = 0; sh < n_shards; ++sh)
          *items[k].stats += stats_base[k * n_shards + sh];
      }
    }
  };

  if (pool != nullptr && n_items * n_shards > 1) {
    std::size_t grain = n_items;
    const std::size_t target_chunks =
        static_cast<std::size_t>(pool->thread_count()) * 4;
    while (grain > 1 && grain % 2 == 0 &&
           (n_items * n_shards) / grain < target_chunks)
      grain /= 2;
    pool->parallel_for(n_items * n_shards, grain, run_items);
    pool->parallel_for(n_items, 1, reduce_range);
  } else {
    run_items(0, n_items * n_shards, 0);
    reduce_range(0, n_items, 0);
  }
}

MacroStats ShardedMacro::stats() const {
  MacroStats total;
  for (const CimMacro& s : shards_) total += s.stats();
  return total;
}

void ShardedMacro::reset_stats() const {
  for (const CimMacro& s : shards_) s.reset_stats();
}

std::unique_ptr<MacroLike> make_macro(const std::vector<double>& weights,
                                      int n_out, int n_in,
                                      const CimMacroConfig& config,
                                      double input_scale) {
  const bool row_split = config.max_rows > 0 && n_in > config.max_rows;
  const bool col_split = config.max_cols > 0 && n_out > config.max_cols;
  if (row_split || col_split)
    return std::make_unique<ShardedMacro>(weights, n_out, n_in, config,
                                          input_scale);
  return std::make_unique<CimMacro>(weights, n_out, n_in, config,
                                    input_scale);
}

}  // namespace cimnav::cimsram
