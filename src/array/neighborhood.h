#pragma once

#include <array>
#include <cstdint>
#include <vector>

// The 3x3 neighborhood of the paper (Fig. 1b): victim cell C8 in the center,
// direct neighbors C0..C3 (sharing a row or column, distance = pitch) and
// diagonal neighbors C4..C7 (distance = sqrt(2)*pitch).
//
// A neighborhood pattern NP8 is the byte [d0..d7] of data values stored in
// C0..C7 (bit i = data of Ci; 0 = P, 1 = AP), NP8 in [0, 255]. Because the
// direct neighbors are position-symmetric and so are the diagonal ones, the
// 256 patterns collapse into 25 equivalence classes keyed by
// (#1s in direct, #1s in diagonal) -- the axes of Fig. 4a.

namespace mram::arr {

/// Index offsets of the eight aggressors, in units of the pitch.
/// C0..C3 direct (N, S, W, E), C4..C7 diagonal (NW, NE, SW, SE).
struct NeighborOffset {
  int dx;
  int dy;
  bool diagonal;
};

/// Offsets in paper order C0..C7.
const std::array<NeighborOffset, 8>& neighbor_offsets();

class Np8 {
 public:
  /// Constructs from the byte encoding. Values 0..255.
  explicit constexpr Np8(int value) : value_(static_cast<std::uint8_t>(value)) {}

  constexpr int value() const { return value_; }

  /// Data bit of aggressor Ci (0 = P, 1 = AP).
  constexpr int bit(int i) const { return (value_ >> i) & 1; }

  /// All-P and all-AP patterns.
  static constexpr Np8 all_parallel() { return Np8(0); }
  static constexpr Np8 all_antiparallel() { return Np8(255); }

  friend constexpr bool operator==(Np8 a, Np8 b) { return a.value_ == b.value_; }

 private:
  std::uint8_t value_;
};

/// The 25 symmetry classes of Fig. 4a.
struct Np8Class {
  int ones_direct = 0;    ///< 0..4
  int ones_diagonal = 0;  ///< 0..4

  /// A canonical representative pattern of this class.
  Np8 representative() const;
};

/// All 256 patterns.
std::vector<Np8> all_np8_patterns();

}  // namespace mram::arr
