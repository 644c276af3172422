#pragma once

#include "util/constants.h"

// Unit conversion helpers.
//
// Internal convention (see DESIGN.md section 6): every quantity stored or
// passed between modules is SI -- magnetic field H in A/m, lengths in m,
// times in s, temperatures in K, currents in A, energies in J.
//
// The paper (and the MRAM literature) quotes fields in Oe, sizes in nm,
// switching times in ns and currents in uA, so the conversion helpers below
// are used at API boundaries, in scenarios and in tests that encode paper
// numbers. They are constexpr so paper constants can be written directly in
// their natural units.

namespace mram::util {

// --- magnetic field -------------------------------------------------------

/// 1 Oe in A/m: 1 Oe = 1000/(4*pi) A/m.
inline constexpr double kAPerMPerOe = 1000.0 / (4.0 * kPi);

constexpr double oe_to_a_per_m(double oe) { return oe * kAPerMPerOe; }
constexpr double a_per_m_to_oe(double a_per_m) { return a_per_m / kAPerMPerOe; }

/// Flux density conversion: B [T] for a field H [A/m] in vacuum.
constexpr double a_per_m_to_tesla(double a_per_m) { return kMu0 * a_per_m; }
constexpr double tesla_to_a_per_m(double tesla) { return tesla / kMu0; }

// --- length ---------------------------------------------------------------

constexpr double nm_to_m(double nm) { return nm * 1e-9; }
constexpr double m_to_nm(double m) { return m * 1e9; }
constexpr double um_to_m(double um) { return um * 1e-6; }

// --- time -----------------------------------------------------------------

constexpr double ns_to_s(double ns) { return ns * 1e-9; }
constexpr double s_to_ns(double s) { return s * 1e9; }

// --- current --------------------------------------------------------------

constexpr double ua_to_a(double ua) { return ua * 1e-6; }
constexpr double a_to_ua(double a) { return a * 1e6; }
constexpr double ma_to_a(double ma) { return ma * 1e-3; }

// --- temperature ----------------------------------------------------------

constexpr double celsius_to_kelvin(double c) { return c + kCelsiusOffset; }
constexpr double kelvin_to_celsius(double k) { return k - kCelsiusOffset; }

// --- resistance-area product ----------------------------------------------

/// RA products are quoted in Ohm*um^2; internally we use Ohm*m^2.
constexpr double ohm_um2_to_ohm_m2(double ra) { return ra * 1e-12; }
constexpr double ohm_m2_to_ohm_um2(double ra) { return ra * 1e12; }

// --- magnetization --------------------------------------------------------

/// Saturation magnetization: 1 emu/cm^3 = 1e3 A/m.
constexpr double emu_per_cc_to_a_per_m(double emu_cc) { return emu_cc * 1e3; }

/// Areal moment density Ms*t ("Mst product"), the bound current of a layer.
/// Often quoted in emu/cm^2: 1 emu/cm^2 = 1e-3 A*m^2 / 1e-4 m^2 = 10 A.
constexpr double emu_per_cm2_to_a(double emu_cm2) { return emu_cm2 * 10.0; }

}  // namespace mram::util
