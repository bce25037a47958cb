#include "filter/measurement.hpp"

#include <algorithm>
#include <array>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "energy/likelihood_energy.hpp"

namespace cimnav::filter {

GmmLikelihood::GmmLikelihood(prob::Gmm gmm, double beta)
    : gmm_(std::move(gmm)), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  eval_energy_j_ = energy::digital_gmm_likelihood_energy(
                       static_cast<int>(gmm_.components().size()))
                       .total_j;
}

double GmmLikelihood::log_likelihood(const core::Pose& pose,
                                     const vision::DepthScan& scan,
                                     core::Rng& /*rng*/) const {
  // Per-pixel back-projection (vision::pixel_to_world) instead of a
  // materialized point vector: likelihoods run once per particle per
  // frame, and this loop must not touch the heap.
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  for (const auto& px : scan.pixels)
    ll += gmm_.log_pdf(vision::pixel_to_world(scan, rot, pose.position, px));
  evaluations_.fetch_add(scan.pixels.size(), std::memory_order_relaxed);
  return beta_ * ll;
}

HmgmLikelihood::HmgmLikelihood(prob::Hmgm hmgm, double beta)
    : hmgm_(std::move(hmgm)), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  // Priced like the digital GMM datapath: per point and component, the
  // Mahalanobis MACs, one kernel LUT lookup and one accumulate.
  eval_energy_j_ = energy::digital_gmm_likelihood_energy(
                       static_cast<int>(hmgm_.components().size()))
                       .total_j;
}

double HmgmLikelihood::log_likelihood(const core::Pose& pose,
                                      const vision::DepthScan& scan,
                                      core::Rng& /*rng*/) const {
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  for (const auto& px : scan.pixels)
    ll += hmgm_.log_pdf(vision::pixel_to_world(scan, rot, pose.position, px));
  evaluations_.fetch_add(scan.pixels.size(), std::memory_order_relaxed);
  return beta_ * ll;
}

CimHmgmLikelihood::CimHmgmLikelihood(
    const prob::Hmgm& hmgm, const map::WorldToVoltage& mapping,
    const circuit::LikelihoodArrayConfig& config, core::Rng& rng, double beta)
    : mapping_(mapping), beta_(beta) {
  CIMNAV_REQUIRE(beta > 0.0, "beta must be positive");
  const auto components = map::compile_hmgm(hmgm, mapping);
  array_ = std::make_unique<circuit::CimLikelihoodArray>(config, components,
                                                         rng);

  // Gain calibration against the digital reference over probe points
  // spanning the mapped workspace.
  constexpr int kProbes = 400;
  const core::Vec3 world_lo = mapping_.voltage_to_point(
      {mapping_.v_lo(), mapping_.v_lo(), mapping_.v_lo()});
  const core::Vec3 world_hi = mapping_.voltage_to_point(
      {mapping_.v_hi(), mapping_.v_hi(), mapping_.v_hi()});
  std::vector<double> reading, reference;
  reading.reserve(kProbes);
  reference.reserve(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    const core::Vec3 p{rng.uniform(world_lo.x, world_hi.x),
                       rng.uniform(world_lo.y, world_hi.y),
                       rng.uniform(world_lo.z, world_hi.z)};
    reading.push_back(
        array_->read_log_likelihood(mapping_.point_to_voltage(p), rng));
    reference.push_back(hmgm.log_pdf(p));
  }
  const core::LinearFit fit = core::linear_fit(reading, reference);
  // Guard against degenerate calibration (e.g. flat field): keep unity.
  if (fit.slope > 0.05 && fit.slope < 100.0) gain_ = fit.slope;

  // One elementary evaluation = one read of the whole programmed array
  // (all columns conduct, three DACs drive, one log-ADC converts).
  eval_energy_j_ = energy::cim_likelihood_energy(array_->column_count(),
                                                 config.dac_bits,
                                                 config.adc_bits)
                       .total_j;
}

double CimHmgmLikelihood::log_likelihood(const core::Pose& pose,
                                         const vision::DepthScan& scan,
                                         core::Rng& rng) const {
  // The scan goes to the array in fixed stack chunks, so the batched read
  // interleaves several pixels without touching the heap. Readings are
  // summed in pixel order, as one read per pixel would.
  constexpr std::size_t kChunk = 16;
  std::array<core::Vec3, kChunk> volts;
  std::array<double, kChunk> readings{};
  double ll = 0.0;
  const core::Mat3 rot = core::Mat3::rotation_z(pose.yaw);
  const std::size_t n = scan.pixels.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    for (std::size_t j = 0; j < m; ++j)
      volts[j] = mapping_.point_to_voltage(vision::pixel_to_world(
          scan, rot, pose.position, scan.pixels[base + j]));
    array_->read_log_likelihoods({volts.data(), m}, rng,
                                 {readings.data(), m});
    for (std::size_t j = 0; j < m; ++j) ll += readings[j];
  }
  return beta_ * gain_ * ll;
}

}  // namespace cimnav::filter
