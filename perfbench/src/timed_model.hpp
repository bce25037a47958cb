// Timing decorator for filter::MeasurementModel, used by the benchmark's
// traced run to measure the likelihood layer from outside the program.
//
// Every call forwards to the wrapped backend unchanged. log_likelihood is
// additionally timed with steady_clock and its duration summed across all
// calling threads (the particle filter fans its update over the pool), so
// busy_ns() is layer busy time, not wall time. evaluation_count() and
// evaluation_energy_j() forward too, which keeps the closed loop's energy
// ledger bitwise the same as an undecorated run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "filter/measurement.hpp"

namespace perfbench {

class TimedModel final : public cimnav::filter::MeasurementModel {
 public:
  /// `inner` must outlive the decorator.
  explicit TimedModel(const cimnav::filter::MeasurementModel& inner)
      : inner_(inner) {}

  double log_likelihood(const cimnav::core::Pose& pose,
                        const cimnav::vision::DepthScan& scan,
                        cimnav::core::Rng& rng) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const double ll = inner_.log_likelihood(pose, scan, rng);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    busy_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                       std::memory_order_relaxed);
    return ll;
  }

  const char* name() const override { return inner_.name(); }
  std::uint64_t evaluation_count() const override {
    return inner_.evaluation_count();
  }
  double evaluation_energy_j() const override {
    return inner_.evaluation_energy_j();
  }

  /// Summed log_likelihood time over all threads since construction [ns].
  std::uint64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }

 private:
  const cimnav::filter::MeasurementModel& inner_;
  mutable std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace perfbench
