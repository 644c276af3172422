#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "device/electrical.h"

// Bitline / source-line IR-drop network of one read column.
//
// During a read the column driver forces v_read onto the bitline through the
// column mux, the selected row's cell conducts into the source line, and the
// source line returns to the sink at the column head. Both lines are
// resistive ladders (one segment per cell pitch), so the voltage that
// actually reaches a cell depends on its row index; and every *unselected*
// row leaks a sneak current through its off access transistor whose
// magnitude depends on the MTJ resistance -- i.e. on the data stored in the
// column. Both effects shrink the sense margin of far rows, which is the
// array-level context the cell-local Cell1T1R::sense_margin lacks.
//
// The network is a 2N-node resistive ladder (N bitline nodes, N source-line
// nodes). BitlinePath solves it exactly: it removes the selected cell's
// branch and reduces everything else to the Thevenin equivalent (v_th, r_th)
// seen by that cell. Downstream consumers (sense-amp statistics, Monte Carlo
// read trials) then evaluate any cell resistance against the port in O(1),
// so the ladder solve stays out of every trial loop that can hoist it.
//
// The conductance matrix is symmetric and strictly diagonally dominant
// (every node has a path to the supply or the sink), so plain Gaussian
// elimination without pivoting is stable and the solve is deterministic --
// no randomness, identical on every thread. Its bandwidth is N (node i
// couples to i +- 1 and i +- N), and the elimination is bounded to it. The
// solve runs in a per-thread workspace (no allocation once it has grown to
// the column size) and is vectorized AVX-512F/AVX2 at run time, with the
// same bits at every instruction-set level.

namespace mram::rdo {

struct BitlineParams {
  double r_driver = 200.0;    ///< column driver + mux on-resistance [Ohm]
  double r_sink = 200.0;      ///< source-line sink resistance [Ohm]
  double r_bl_segment = 4.0;  ///< bitline resistance per cell pitch [Ohm]
  double r_sl_segment = 4.0;  ///< source-line resistance per cell pitch [Ohm]
  double r_leak = 250e3;      ///< off-row sneak path (access transistor off,
                              ///< in series with that row's MTJ) [Ohm]
  std::size_t rows = 64;      ///< cells along the column

  void validate() const;
};

/// Thevenin equivalent of the column as seen by the selected cell: the cell
/// (access transistor + MTJ) closes the circuit across this port.
struct ReadPort {
  double v_thevenin = 0.0;  ///< open-circuit port voltage [V]
  double r_thevenin = 0.0;  ///< source resistance behind the port [Ohm]

  /// Current through a cell branch of total resistance `r_cell` [A].
  double current_into(double r_cell) const {
    return v_thevenin / (r_thevenin + r_cell);
  }

  /// Voltage across a cell branch of total resistance `r_cell` [V].
  double voltage_across(double r_cell) const {
    return v_thevenin * r_cell / (r_thevenin + r_cell);
  }
};

class BitlinePath {
 public:
  /// `cell` models the MTJ resistance of the unselected rows' sneak paths
  /// (evaluated at zero bias: the leak drop across an off cell is mV-scale).
  BitlinePath(const BitlineParams& params, const dev::ElectricalModel& cell);

  const BitlineParams& params() const { return params_; }

  /// Pure wire series resistance from driver to the cell at `row` and back
  /// to the sink, ignoring sneak paths [Ohm].
  double series_resistance(std::size_t row) const;

  /// Thevenin equivalent seen by the cell at `row` when the driver forces
  /// `v_read` and the other rows hold `column_data` (bit 1 = AP; the entry
  /// at `row` is ignored). `column_data` must have params().rows entries.
  ReadPort port(std::size_t row, double v_read,
                const std::vector<int>& column_data) const;

  /// Instruction-set level of the ladder solve. Every level produces the
  /// same bits; only the speed differs. port() always takes the widest
  /// level this build and CPU support, picked once at load time.
  enum class SolveLevel { kPortable, kAvx2, kAvx512 };

  /// Whether this build and CPU can run `level` (kPortable always can).
  static bool solve_level_supported(SolveLevel level);

  /// port() with the ladder solve at an explicit level, so tests can check
  /// each level the host supports. Precondition:
  /// solve_level_supported(level).
  ReadPort port(SolveLevel level, std::size_t row, double v_read,
                const std::vector<int>& column_data) const;

 private:
  /// port() at `level`, or through the load-time dispatch when empty.
  ReadPort solve_port(std::optional<SolveLevel> level, std::size_t row,
                      double v_read,
                      const std::vector<int>& column_data) const;

  BitlineParams params_;
  double r_leak_p_;   ///< r_leak + R_P of an off cell [Ohm]
  double r_leak_ap_;  ///< r_leak + R_AP(0) of an off cell [Ohm]
};

}  // namespace mram::rdo
