// Reproduces paper Fig. 2(i): energy per likelihood evaluation for the
// 8-bit digital GMM processor versus the 4-bit HMGM inverter-array CIM
// (500 columns, 100 components, 45 nm). The paper reports 374 fJ and 25x.
//
// A second section prices *measured* 8T-macro activity (MacroStats
// snapshots from the functional simulator) through the 16 nm cost model.
#include <cstdio>
#include <iostream>

#include "cimsram/cim_macro.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "energy/likelihood_energy.hpp"
#include "energy/macro_energy.hpp"

int main() {
  using namespace cimnav;
  std::printf("=== Fig. 2(i): likelihood-evaluation energy ===\n\n");

  const auto digital = energy::digital_gmm_likelihood_energy(100);
  const auto cim = energy::cim_likelihood_energy(500, 4, 4);

  core::Table breakdown({"engine", "component", "energy [fJ]"});
  breakdown.set_precision(1);
  breakdown.add_row({std::string("digital GMM 8b"), std::string("3 MACs x 100 comp"),
                     digital.mac_j * 1e15});
  breakdown.add_row({std::string("digital GMM 8b"), std::string("exp LUT x 100"),
                     digital.lut_j * 1e15});
  breakdown.add_row({std::string("digital GMM 8b"), std::string("accumulate"),
                     digital.accumulate_j * 1e15});
  breakdown.add_row({std::string("digital GMM 8b"), std::string("TOTAL"),
                     digital.total_j * 1e15});
  breakdown.add_row({std::string("HMGM CIM 4b"), std::string("500 columns conduction"),
                     cim.columns_j * 1e15});
  breakdown.add_row({std::string("HMGM CIM 4b"), std::string("3 input DACs"),
                     cim.dac_j * 1e15});
  breakdown.add_row({std::string("HMGM CIM 4b"), std::string("log ADC"),
                     cim.adc_j * 1e15});
  breakdown.add_row({std::string("HMGM CIM 4b"), std::string("TOTAL"),
                     cim.total_j * 1e15});
  breakdown.print(std::cout);

  std::printf("\nHeadline: CIM %.0f fJ vs digital %.0f fJ -> %.1fx advantage "
              "(paper: 374 fJ, 25x)\n\n",
              cim.total_j * 1e15, digital.total_j * 1e15,
              digital.total_j / cim.total_j);

  std::printf("Scaling with mixture components (5 columns per component):\n");
  core::Table scaling({"components", "digital [fJ]", "cim [fJ]", "ratio"});
  scaling.set_precision(1);
  for (int k : {25, 50, 100, 200, 400}) {
    const auto d = energy::digital_gmm_likelihood_energy(k);
    const auto c = energy::cim_likelihood_energy(5 * k, 4, 4);
    scaling.add_row({static_cast<double>(k), d.total_j * 1e15,
                     c.total_j * 1e15, d.total_j / c.total_j});
  }
  scaling.print(std::cout);

  std::printf("\nConverter-precision sensitivity (CIM, 500 columns):\n");
  core::Table bits({"DAC/ADC bits", "cim total [fJ]", "ratio vs digital"});
  bits.set_precision(1);
  for (int b : {4, 6, 8}) {
    const auto c = energy::cim_likelihood_energy(500, b, b);
    bits.add_row({static_cast<double>(b), c.total_j * 1e15,
                  digital.total_j / c.total_j});
  }
  bits.print(std::cout);

  // Measured 8T-macro activity priced through the 16 nm model: one
  // 128x128 layer, 100 masked evaluations.
  std::printf("\nMeasured 8T-macro energy (MacroStats x 16 nm costs), "
              "128x128 layer, 100 masked matvecs:\n");
  {
    const int n = 128;
    core::Rng rng(41);
    std::vector<double> w(static_cast<std::size_t>(n) *
                          static_cast<std::size_t>(n));
    for (auto& v : w) v = rng.normal(0.0, 0.3);
    cimsram::CimMacroConfig cfg;
    cfg.input_bits = 4;
    cfg.weight_bits = 4;
    const cimsram::CimMacro macro(w, n, n, cfg, 1.0 / 15.0);

    std::vector<double> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.uniform();
    std::vector<std::uint8_t> in_mask(static_cast<std::size_t>(n), 1),
        out_mask(static_cast<std::size_t>(n), 1);
    for (std::size_t i = 0; i < in_mask.size(); i += 3) in_mask[i] = 0;
    for (std::size_t i = 0; i < out_mask.size(); i += 4) out_mask[i] = 0;
    core::Rng arng(43);
    for (int k = 0; k < 100; ++k)
      cimsram::matvec(macro, x, in_mask, out_mask, &arng);
    core::Table measured({"layout", "wordline pulses", "wl col-drives",
                          "adc conversions", "energy [nJ]"});
    measured.set_precision(3);
    const auto ms = macro.stats();
    measured.add_row({std::string("monolithic 128x128"),
                      static_cast<double>(ms.wordline_pulses),
                      static_cast<double>(ms.wordline_col_drives),
                      static_cast<double>(ms.adc_conversions),
                      energy::macro_stats_energy_j(ms, cfg.adc_bits) * 1e9});
    measured.print(std::cout);
  }
  std::printf("\n");
  return 0;
}
