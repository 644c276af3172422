// Write-margin analysis: how long must the write pulse be so the worst-case
// cell (NP8 = 0 neighborhood, AP->P) reaches a target write error rate at a
// given voltage and pitch? Extends the paper's Fig. 5 conclusion ("a larger
// write margin is required to avoid write failure in the worst case") into a
// concrete pulse-width specification using the stochastic array model.
//
// Usage: write_margin [vp] [pitch_mult]
//   defaults: Vp = 0.9 V, pitch = 1.5 x eCD.

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "mram/wer.h"
#include "util/table.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace mram;
  using util::s_to_ns;

  const double vp = (argc > 1) ? std::atof(argv[1]) : 0.9;
  const double mult = (argc > 2) ? std::atof(argv[2]) : 1.5;
  if (vp < 0.5 || vp > 1.5 || mult < 1.5) {
    std::cerr << "usage: write_margin [vp 0.5..1.5] [pitch_mult >= 1.5]\n";
    return 1;
  }

  mem::WerConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.pitch = mult * 35e-9;
  cfg.array.rows = cfg.array.cols = 5;
  cfg.direction = dev::SwitchDirection::kApToP;
  cfg.pulse.voltage = vp;
  cfg.trials = 2000;

  const dev::MtjDevice device(cfg.array.device);
  const double tw_intra = device.switching_time(
      dev::SwitchDirection::kApToP, vp, device.intra_stray_field());

  std::cout << "Write margin at Vp = " << vp << " V, pitch = " << mult
            << " x eCD (tw with intra-only field: " << s_to_ns(tw_intra)
            << " ns)\n\n";

  util::Rng rng(2718);
  eng::MonteCarloRunner runner;  // one pool for every bisection
  util::Table t({"background", "pulse for WER<=1e-2 (ns)",
                 "pulse / tw_intra", "analytic pulse (ns)"});
  for (auto kind : {arr::PatternKind::kAllZero, arr::PatternKind::kCheckerboard,
                    arr::PatternKind::kAllOne}) {
    cfg.background = kind;
    // Bisection on the pulse width against the Monte Carlo WER.
    double lo = 0.2 * tw_intra, hi = 5.0 * tw_intra;
    for (int iter = 0; iter < 12; ++iter) {
      cfg.pulse.width = 0.5 * (lo + hi);
      const auto result = mem::measure_wer(cfg, rng, runner);
      if (result.wer > 1e-2) {
        lo = cfg.pulse.width;
      } else {
        hi = cfg.pulse.width;
      }
    }
    const double mc_pulse = 0.5 * (lo + hi);

    // Analytic counterpart: the log-normal tw model inverts in closed form,
    // pulse = tw * exp(sigma_ln * z(1 - wer)).
    mem::MramArray probe(cfg.array);
    auto grid = arr::make_pattern(kind, 5, 5, rng);
    grid.set(2, 2, 1);  // victim starts AP
    probe.load(grid);
    const double tw_cell = probe.cell_switching_time(2, 2, 0, vp);
    const double z99 = 2.3263;  // z-score of 0.99
    const double analytic =
        tw_cell * std::exp(cfg.array.device.tw_sigma_ln * z99);

    t.add_row({arr::to_string(kind), util::format_double(s_to_ns(mc_pulse), 2),
               util::format_double(mc_pulse / tw_intra, 3),
               util::format_double(s_to_ns(analytic), 2)});
  }
  t.print(std::cout, "required pulse width by data background");

  std::cout << "\nThe all-0 background (the paper's NP8 = 0 worst case) sets\n"
               "the write margin; the gap versus all-1 grows as the pitch\n"
               "shrinks.\n";
  return 0;
}
