#include "support/cel.h"

#include <cmath>

#include "util/constants.h"
#include "util/error.h"

namespace mram::num {

double cel(double kc_in, double p_in, double a_in, double b_in) {
  MRAM_EXPECTS(kc_in != 0.0, "cel requires kc != 0");
  MRAM_EXPECTS(p_in != 0.0, "cel requires p != 0");

  // Bulirsch's algorithm (Numer. Math. 13, 305 (1969); cf. Numerical
  // Recipes Sec. 6.11), run to double precision.
  constexpr double kTol = 1e-14;

  double kc = std::abs(kc_in);
  double a = a_in;
  double b = b_in;
  double p = p_in;
  double e = kc;
  double em = 1.0;

  if (p > 0.0) {
    p = std::sqrt(p);
    b /= p;
  } else {
    double f = kc * kc;
    double q = 1.0 - f;
    double g = 1.0 - p;
    f -= p;
    q *= b - a * p;
    p = std::sqrt(f / g);
    a = (a - b) / g;
    b = -q / (g * g * p) + a * p;
  }

  for (int iter = 0; iter < 200; ++iter) {
    double f = a;
    a += b / p;
    double g = e / p;
    b += f * g;
    b += b;
    p += g;
    g = em;
    em += kc;
    if (std::abs(g - kc) <= g * kTol) break;
    kc = 2.0 * std::sqrt(e);
    e = kc * em;
  }
  return util::kPi / 2.0 * (b + a * em) / (em * (em + p));
}

}  // namespace mram::num
