// Reproduces the paper's Fig. 3(b) claims about the SRAM-embedded
// cross-coupled-inverter RNG: mismatch filtering across rows, bias
// calibration from a serial bit burst, and statistical quality adequate
// for dropout-mask generation — compared against a digital LFSR.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "cimsram/sram_rng.hpp"
#include "conformance/stat_tolerances.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"

int main() {
  using namespace cimnav;
  std::printf("=== Fig. 3(b): SRAM-embedded RNG quality ===\n\n");

  std::printf("Mismatch filtering: raw |bias - 0.5| vs rows summed "
              "(24 process instances each):\n");
  core::Table rows_table({"rows per column", "mean |bias - 1/2| (raw)"});
  rows_table.set_precision(4);
  for (int rows : {8, 16, 32, 64, 128, 256}) {
    double total = 0.0;
    const int trials = 24;
    for (int t = 0; t < trials; ++t) {
      cimsram::SramRngParams p;
      p.rows = rows;
      p.comparator_offset_sigma_a = 0.0;
      core::Rng process(1000 + static_cast<std::uint64_t>(t));
      core::Rng noise(7);
      cimsram::SramRng rng(p, process);
      total += std::abs(rng.measure_bias(4000, noise) - 0.5) / trials;
    }
    rows_table.add_row({static_cast<double>(rows), total});
  }
  rows_table.print(std::cout);

  std::printf("\nCalibration: bias before/after digital trim "
              "(strong comparator offset):\n");
  core::Table calib({"instance", "bias before", "bias after",
                     "trim [pA]"});
  calib.set_precision(4);
  for (int t = 0; t < 5; ++t) {
    cimsram::SramRngParams p;
    p.comparator_offset_sigma_a = 4e-10;
    core::Rng process(50 + static_cast<std::uint64_t>(t)), noise(9);
    cimsram::SramRng rng(p, process);
    const double before = rng.measure_bias(6000, noise);
    rng.calibrate(8192, noise);
    const double after = rng.measure_bias(6000, noise);
    calib.add_row({static_cast<double>(t), before, after,
                   rng.trim_a() * 1e12});
  }
  calib.print(std::cout);

  std::printf("\nStatistical quality vs the LFSR baseline "
              "(100k bits each; tolerances from "
              "conformance/stat_tolerances.hpp, the same constants the "
              "unit tests and the conformance harness enforce):\n");
  core::Table quality({"source", "bias", "lag-1 autocorr",
                       "longest run", "within tol"});
  quality.set_precision(4);
  auto analyze = [&](const std::string& name, auto&& next_bit) {
    const int n = 100000;
    std::vector<double> bits;
    bits.reserve(n);
    int ones = 0, longest = 0, current = 0;
    int prev = -1;
    for (int i = 0; i < n; ++i) {
      const int b = next_bit() ? 1 : 0;
      ones += b;
      if (b == prev) {
        ++current;
      } else {
        current = 1;
        prev = b;
      }
      longest = std::max(longest, current);
      bits.push_back(b);
    }
    std::vector<double> a(bits.begin(), bits.end() - 1);
    std::vector<double> c(bits.begin() + 1, bits.end());
    const double bias = static_cast<double>(ones) / n;
    const double autocorr = core::pearson_correlation(a, c);
    const bool ok =
        std::abs(bias - 0.5) <= core::tol::kBitBiasCalibratedTol &&
        std::abs(autocorr) <= core::tol::kAutocorrTol;
    quality.add_row({name, bias, autocorr, static_cast<double>(longest),
                     std::string(ok ? "yes" : "NO")});
  };
  {
    cimsram::SramRngParams p;
    core::Rng process(3), noise(5);
    cimsram::SramRng rng(p, process);
    rng.calibrate(8192, noise);
    analyze("sram-cci (calibrated)", [&] { return rng.next_bit(noise); });
  }
  {
    cimsram::Lfsr lfsr(0xBEEF);
    analyze("lfsr-32", [&] { return lfsr.next_bit(); });
  }
  quality.print(std::cout);
  std::printf("\nThe CCI source delivers LFSR-grade balance without any "
              "dedicated logic: dropout bits ride on SRAM leakage physics "
              "(energy comparison in bench_tops_per_watt).\n\n");
  return 0;
}
