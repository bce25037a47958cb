// One logical CIM layer split across several physical macro arrays.
//
// Real 8T-SRAM macros are bounded (64x64, 128x128, ...); a wide MLP layer
// therefore spans a *grid* of arrays: row shards split the input word
// lines, column shards split the outputs. ShardedMacro models that grid
// behind the same MacroLike surface as a monolithic CimMacro, so CimMlp,
// the MC-Dropout engine and the VO pipeline are oblivious to the physical
// partitioning:
//
//  * every shard shares the logical tensor's quantization grids (the
//    weight scale is forced onto each slice), so shard partial sums live
//    on one integer lattice;
//  * an input is quantized and bit-plane-expanded ONCE into the logical
//    EncodedInput; each row shard reads its word-aligned slice of the
//    encoding and of the packed row gate (shard row bounds are multiples
//    of 64 for exactly this reason);
//  * shard outputs are accumulated digitally per column in fixed row-shard
//    order, then scaled once — on the ideal path the partials are exact
//    integers, so a shard grid is bit-identical to the monolithic macro at
//    any thread count;
//  * the noisy path models *bounded* arrays faithfully: each shard's ADC
//    spans its own row count and each shard's column sum takes its own
//    disturbance, so a column crossing R row shards pays R conversions —
//    visible in the aggregated MacroStats and the energy model.
//
// matvec_delta_batch fans (shard x item) work over the ThreadPool with
// noise streams keyed on (item root, shard index); the per-item reduction
// runs in fixed shard order, keeping results bit-identical at any thread
// count.
#pragma once

#include <memory>
#include <vector>

#include "cimsram/cim_macro.hpp"

namespace cimnav::cimsram {

/// A row/column-sharded grid of CimMacros acting as one logical layer.
class ShardedMacro final : public MacroLike {
 public:
  /// Splits `weights` (row-major, n_out x n_in) into a grid bounded by
  /// config.max_rows x config.max_cols (0 = unbounded along that axis).
  /// max_rows must be a multiple of 64; every shard uses config.backend.
  ShardedMacro(const std::vector<double>& weights, int n_out, int n_in,
               const CimMacroConfig& config, double input_scale);

  int n_in() const override { return n_in_; }
  int n_out() const override { return n_out_; }
  int gate_words() const override { return words_; }
  double input_scale() const override { return input_scale_; }
  double weight_scale() const { return weight_scale_; }
  const CimMacroConfig& config() const override { return config_; }

  /// Shard-grid geometry (row shards x column shards).
  int grid_rows() const { return static_cast<int>(row_off_.size()) - 1; }
  int grid_cols() const { return static_cast<int>(col_off_.size()) - 1; }
  const CimMacro& shard(int r, int c) const;
  MacroGeometry geometry() const override {
    return {n_in_, n_out_, words_, config_.weight_bits - 1, grid_rows(),
            grid_cols()};
  }

  void encode_input(const std::vector<double>& x,
                    EncodedInput& enc) const override;

  /// Dense read over the grid: every shard reads its slice of the
  /// encoding and gate, row shards reduce in fixed order, and the logical
  /// scales apply last. With analog noise every shard draws from `rng` in
  /// (r, c) order; the ideal read (null `rng`) is bit-identical to the
  /// monolithic macro.
  void matvec_encoded(const EncodedInput& enc,
                      const std::vector<std::uint64_t>& row_gate,
                      const std::vector<std::uint8_t>& out_mask,
                      core::Rng* rng, std::vector<double>& y) const override;

  /// Shard-affine delta dispatch. One root is drawn from each item's rng,
  /// in item order; the item's read on shard s draws from
  /// Rng::stream(root, s). (shard x item) work then fans shard-major over
  /// the pool, so one worker streams every item through one shard's
  /// weight planes — bit-identical to a serial loop of one-item calls at
  /// any pool size, on any backend. Each row shard runs ONE signed op
  /// netting its slice of the add gate against its slice of the remove
  /// gate; row shards where neither slice holds a changed row are skipped
  /// entirely — no word line fires there, no ADC converts, no stats
  /// accrue — which is the physical point of delta dispatch. Per-item
  /// stats sinks are reduced after the barrier, so concurrent shards of
  /// one item never race.
  void matvec_delta_batch(const DeltaItem* items, std::size_t n_items,
                          core::ThreadPool* pool = nullptr) const override;

  /// Aggregate over every shard (physical operation counts).
  MacroStats stats() const override;
  void reset_stats() const override;

 private:
  CimMacroConfig config_;
  int n_in_ = 0;
  int n_out_ = 0;
  int words_ = 0;  // logical packed words per plane
  double weight_scale_ = 1.0;  // logical grid, forced onto every shard
  double input_scale_ = 1.0;
  double inv_input_scale_ = 1.0;
  std::vector<int> row_off_;  // shard input-row offsets, size grid_rows+1
  std::vector<int> col_off_;  // shard output offsets, size grid_cols+1
  std::vector<CimMacro> shards_;  // row-major grid [r * grid_cols + c]
};

/// Builds the right MacroLike for a layer: a monolithic CimMacro when it
/// fits config.max_rows x max_cols (or the bounds are 0), a ShardedMacro
/// grid otherwise. This is the only decision point consumers need.
std::unique_ptr<MacroLike> make_macro(const std::vector<double>& weights,
                                      int n_out, int n_in,
                                      const CimMacroConfig& config,
                                      double input_scale);

}  // namespace cimnav::cimsram
