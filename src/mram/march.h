#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "mram/mram_array.h"

// March-style memory test built on the stochastic array model. Write faults
// caused by inter-cell coupling are data-pattern dependent (worst case: the
// neighborhood all-P while writing AP->P with a marginal pulse), which is
// exactly the class of faults march tests with solid/checkerboard
// backgrounds are designed to surface.
//
// Element notation (van de Goor): March C- is
//   up(w0); up(r0, w1); up(r1, w0); down(r0, w1); down(r1, w0); down(r0).

namespace mram::mem {

enum class MarchOp { kR0, kR1, kW0, kW1 };
enum class MarchOrder { kAscending, kDescending };

struct MarchElement {
  MarchOrder order = MarchOrder::kAscending;
  std::vector<MarchOp> ops;
};

/// Classification of a detected fault by its activation mechanism.
enum class FaultClass {
  kWriteFault,      ///< the most recent write to the cell failed to flip it
  kRetentionFault,  ///< the cell changed value spontaneously after a
                    ///< successful write (thermal flip / disturb)
  kReadFault,       ///< the read itself misreported (sense decision error or
                    ///< a metastable/blocked strobe); the stored bit is
                    ///< intact, so a repeated read can pass
  kReadDisturbFault, ///< the stored bit was flipped by an *earlier* read's
                    ///< disturb and a later read caught the corruption
};

/// A detected mismatch: a read returned the complement of the expectation.
struct MarchFault {
  std::size_t element;  ///< index of the march element
  std::size_t op;       ///< index of the operation within the element
  std::size_t row;
  std::size_t col;
  int expected;
  int observed;
  FaultClass cls;
};

struct MarchResult {
  std::vector<MarchFault> faults;
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t failed_writes = 0;  ///< writes whose cell did not flip

  std::size_t count(FaultClass cls) const;
};

/// The March C- algorithm.
std::vector<MarchElement> march_c_minus();

/// Deterministic fault injection, for validating that a march algorithm
/// detects and correctly classifies faults independently of the stochastic
/// physics. Cells in `stuck_cells` ignore every write (their stored value
/// never changes: a hard write fault); cells in `volatile_cells` flip their
/// stored bit during every inter-element hold (a forced retention fault --
/// only active when `hold_between_elements` > 0, since a zero hold gives
/// the fault no window to occur in).
struct FaultInjection {
  std::vector<std::pair<std::size_t, std::size_t>> stuck_cells;
  std::vector<std::pair<std::size_t, std::size_t>> volatile_cells;

  bool is_stuck(std::size_t row, std::size_t col) const;
};

/// One observed read through a stochastic read path (see MarchReadHook).
struct ReadObservation {
  int observed = 0;       ///< bit the sense path reported (valid iff !blocked)
  bool blocked = false;   ///< metastable strobe: no valid data this cycle
  bool disturbed = false; ///< the read flipped the stored bit; run_march
                          ///< applies the flip to the array after the compare
};

/// Optional stochastic read path: invoked for every march read instead of
/// the ideal MramArray::read. The hook may draw randomness from `rng` (the
/// same generator the writes consume, keeping the whole march a single
/// deterministic stream) and reports what the sense circuit observed plus
/// whether the read disturbed the cell. The readout layer provides an
/// adapter over its ReadErrorModel (rdo::make_march_read_hook).
using MarchReadHook = std::function<ReadObservation(
    const MramArray&, std::size_t row, std::size_t col, util::Rng& rng)>;

/// Runs `elements` on `array` with the given write pulse. Reads compare the
/// stored bit against the march expectation; failed writes leave the old
/// value in place (realistic fault activation, later detected and classified
/// by the reads). When `hold_between_elements` > 0, the array relaxes
/// thermally for that many seconds between elements, sensitizing retention
/// faults in addition to write faults. `injection` (optional) overlays
/// deterministic faults on top of the stochastic physics. `read_hook`
/// (optional) routes every read through a stochastic read path, adding read
/// faults (misreads and blocked strobes; `observed` is recorded as -1 for a
/// blocked strobe) and read-disturb faults to the detectable classes.
MarchResult run_march(MramArray& array,
                      const std::vector<MarchElement>& elements,
                      const WritePulse& pulse, util::Rng& rng,
                      double hold_between_elements = 0.0,
                      const FaultInjection* injection = nullptr,
                      const MarchReadHook& read_hook = {});

}  // namespace mram::mem
