#include "array/neighborhood.h"

#include "util/error.h"

namespace mram::arr {

const std::array<NeighborOffset, 8>& neighbor_offsets() {
  // Paper order: C0..C3 direct, C4..C7 diagonal (Fig. 1b).
  static const std::array<NeighborOffset, 8> kOffsets = {{
      {0, +1, false},   // C0: north
      {0, -1, false},   // C1: south
      {-1, 0, false},   // C2: west
      {+1, 0, false},   // C3: east
      {-1, +1, true},   // C4: north-west
      {+1, +1, true},   // C5: north-east
      {-1, -1, true},   // C6: south-west
      {+1, -1, true},   // C7: south-east
  }};
  return kOffsets;
}

Np8 Np8Class::representative() const {
  MRAM_EXPECTS(ones_direct >= 0 && ones_direct <= 4,
               "direct ones count must be 0..4");
  MRAM_EXPECTS(ones_diagonal >= 0 && ones_diagonal <= 4,
               "diagonal ones count must be 0..4");
  int v = 0;
  for (int i = 0; i < ones_direct; ++i) v |= 1 << i;
  for (int i = 0; i < ones_diagonal; ++i) v |= 1 << (4 + i);
  return Np8(v);
}

std::vector<Np8> all_np8_patterns() {
  std::vector<Np8> patterns;
  patterns.reserve(256);
  for (int v = 0; v < 256; ++v) patterns.emplace_back(v);
  return patterns;
}

}  // namespace mram::arr
