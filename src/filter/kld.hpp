// KLD-sampling (Fox, 2001): adapts the particle count to the complexity of
// the current belief so that the discretized particle distribution stays
// within a KL-divergence bound of the true posterior with confidence
// 1-delta. This is the standard scaling technique for "large-scale
// particle filtering" workloads the paper's Sec. II targets: belief spread
// over the whole map needs thousands of particles, a converged track needs
// only dozens — exactly the workload elasticity that makes the CIM
// likelihood engine's per-particle energy advantage compound.
#pragma once

#include <cstddef>

#include "core/vec.hpp"
#include "filter/particle_filter.hpp"

namespace cimnav::filter {

/// KLD bound parameters.
struct KldConfig {
  double epsilon = 0.05;        ///< KL error bound
  double z_one_minus_delta = 2.326;  ///< upper quantile (99% confidence)
  core::Vec3 bin_size{0.25, 0.25, 0.25};  ///< spatial histogram resolution
  double yaw_bin_rad = 0.5;
  int min_particles = 50;
  int max_particles = 5000;
};

/// Throws std::invalid_argument with the reason unless epsilon > 0,
/// 1 <= min_particles <= max_particles and every bin size is positive.
void validate(const KldConfig& config);

/// Number of particles required so that the KL divergence between the
/// sampled and true distributions stays below epsilon with the configured
/// confidence, given `occupied_bins` support bins (Fox's chi-square
/// Wilson-Hilferty approximation). Returns min_particles for k <= 1.
int kld_required_particles(int occupied_bins, const KldConfig& config);

/// Counts the occupied (x, y, z, yaw) histogram bins of the cloud. The
/// full-width int64 bin tuples are sorted and deduplicated in a
/// grow-only thread_local buffer, so steady-state calls do not touch the
/// heap. Throws std::invalid_argument for a non-finite pose coordinate
/// or one whose bin index does not fit int64.
int count_occupied_bins(const SoaView& cloud, const KldConfig& config);

}  // namespace cimnav::filter
