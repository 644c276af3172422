#include "mram/march.h"

#include <algorithm>

#include "util/error.h"

namespace mram::mem {

namespace {

int op_bit(MarchOp op) {
  switch (op) {
    case MarchOp::kR0:
    case MarchOp::kW0:
      return 0;
    case MarchOp::kR1:
    case MarchOp::kW1:
      return 1;
  }
  throw util::ConfigError("unknown march op");
}

bool is_read(MarchOp op) {
  return op == MarchOp::kR0 || op == MarchOp::kR1;
}

}  // namespace

std::size_t MarchResult::count(FaultClass cls) const {
  return static_cast<std::size_t>(
      std::count_if(faults.begin(), faults.end(),
                    [cls](const MarchFault& f) { return f.cls == cls; }));
}

std::vector<MarchElement> march_c_minus() {
  using Op = MarchOp;
  using Ord = MarchOrder;
  return {
      {Ord::kAscending, {Op::kW0}},
      {Ord::kAscending, {Op::kR0, Op::kW1}},
      {Ord::kAscending, {Op::kR1, Op::kW0}},
      {Ord::kDescending, {Op::kR0, Op::kW1}},
      {Ord::kDescending, {Op::kR1, Op::kW0}},
      {Ord::kDescending, {Op::kR0}},
  };
}

namespace {

bool contains(const std::vector<std::pair<std::size_t, std::size_t>>& cells,
              std::size_t row, std::size_t col) {
  return std::find(cells.begin(), cells.end(),
                   std::make_pair(row, col)) != cells.end();
}

}  // namespace

bool FaultInjection::is_stuck(std::size_t row, std::size_t col) const {
  return contains(stuck_cells, row, col);
}

MarchResult run_march(MramArray& array,
                      const std::vector<MarchElement>& elements,
                      const WritePulse& pulse, util::Rng& rng,
                      double hold_between_elements,
                      const FaultInjection* injection,
                      const MarchReadHook& read_hook) {
  MRAM_EXPECTS(hold_between_elements >= 0.0,
               "hold time must be non-negative");
  MarchResult result;
  const std::size_t n = array.rows() * array.cols();

  // Per-cell flag: did the most recent write to this cell fail? Used to
  // classify read faults as write vs. retention faults.
  std::vector<char> last_write_failed(n, 0);
  // Per-cell flag: is the stored value currently corrupted by a read
  // disturb? Set when a hooked read flips the cell, cleared by the next
  // write; a later mismatching read is then a read-disturb fault.
  std::vector<char> read_disturbed(n, 0);

  for (std::size_t e = 0; e < elements.size(); ++e) {
    const auto& element = elements[e];
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx =
          (element.order == MarchOrder::kAscending) ? k : n - 1 - k;
      const std::size_t r = idx / array.cols();
      const std::size_t c = idx % array.cols();
      for (std::size_t o = 0; o < element.ops.size(); ++o) {
        const MarchOp op = element.ops[o];
        if (is_read(op)) {
          ++result.reads;
          const int expected = op_bit(op);
          const int stored = array.read(r, c);
          int observed = stored;
          bool blocked = false;
          bool disturbed = false;
          if (read_hook) {
            const ReadObservation ro = read_hook(array, r, c, rng);
            observed = ro.observed;
            blocked = ro.blocked;
            disturbed = ro.disturbed;
          }
          if (blocked) {
            // No valid data this strobe: always a detected (transient)
            // read fault, whatever the cell holds.
            result.faults.push_back(
                {e, o, r, c, expected, -1, FaultClass::kReadFault});
          } else if (observed != expected) {
            FaultClass cls;
            if (last_write_failed[idx]) {
              cls = FaultClass::kWriteFault;
            } else if (read_disturbed[idx]) {
              cls = FaultClass::kReadDisturbFault;
            } else if (stored == expected) {
              // The array holds the right bit; the sense path misreported.
              cls = FaultClass::kReadFault;
            } else {
              cls = FaultClass::kRetentionFault;
            }
            result.faults.push_back({e, o, r, c, expected, observed, cls});
          }
          if (disturbed && !(injection && injection->is_stuck(r, c))) {
            // Apply the disturb flip after the compare: the sense decision
            // strobes before the accumulated torque completes the reversal.
            arr::DataGrid grid = array.data();
            grid.set(r, c, 1 - stored);
            array.load(grid);
            read_disturbed[idx] = 1;
          }
        } else {
          ++result.writes;
          bool failed;
          if (injection && injection->is_stuck(r, c)) {
            // The stored value never changes: the write fails exactly when
            // it asked for the complement of what the cell holds.
            failed = array.read(r, c) != op_bit(op);
          } else {
            const auto wr = array.write(r, c, op_bit(op), pulse, rng);
            failed = wr.attempted && !wr.success;
          }
          result.failed_writes += failed;
          last_write_failed[idx] = failed ? 1 : 0;
          if (!failed) read_disturbed[idx] = 0;
        }
      }
    }
    if (hold_between_elements > 0.0) {
      // Stuck cells must hold their value through the relaxation too (the
      // injection contract: the stored value never changes), so snapshot
      // them and re-pin after the thermal hold.
      std::vector<int> stuck_bits;
      if (injection) {
        for (const auto& [sr, sc] : injection->stuck_cells) {
          stuck_bits.push_back(array.read(sr, sc));
        }
      }
      array.retention_hold(hold_between_elements, rng);
      if (injection &&
          (!injection->volatile_cells.empty() ||
           !injection->stuck_cells.empty())) {
        arr::DataGrid grid = array.data();
        for (std::size_t s = 0; s < stuck_bits.size(); ++s) {
          grid.set(injection->stuck_cells[s].first,
                   injection->stuck_cells[s].second, stuck_bits[s]);
        }
        for (const auto& [vr, vc] : injection->volatile_cells) {
          grid.set(vr, vc, 1 - grid.at(vr, vc));
        }
        array.load(grid);
      }
    }
  }
  return result;
}

}  // namespace mram::mem
