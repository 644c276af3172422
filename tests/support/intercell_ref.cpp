#include "support/intercell_ref.h"

#include "util/error.h"

namespace mram::arr {

using dev::Layer;
using num::Vec3;

Vec3 intercell_field_vector(const dev::StackGeometry& stack, double pitch,
                            Np8 np8, mag::FieldMethod method) {
  stack.validate();
  MRAM_EXPECTS(pitch >= stack.ecd,
               "pitch must be at least one device diameter");
  const auto& offsets = neighbor_offsets();
  Vec3 h{};
  const Vec3 victim{};
  for (int i = 0; i < 8; ++i) {
    const Vec3 cell{offsets[i].dx * pitch, offsets[i].dy * pitch, 0.0};
    h += mag::disk_field(stack.source_for(Layer::kReferenceLayer, cell),
                         victim, method);
    h += mag::disk_field(stack.source_for(Layer::kHardLayer, cell), victim,
                         method);
    h += mag::disk_field(
        stack.source_for(Layer::kFreeLayer, cell,
                         dev::bit_to_state(np8.bit(i))),
        victim, method);
  }
  return h;
}

}  // namespace mram::arr
