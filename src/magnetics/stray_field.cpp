#include "magnetics/stray_field.h"

#include "util/error.h"

namespace mram::mag {

using num::Vec3;

std::size_t StrayFieldSolver::add_source(std::string name,
                                         const DiskSource& disk) {
  MRAM_EXPECTS(disk.radius > 0.0, "source radius must be positive");
  sources_.push_back(NamedSource{std::move(name), disk});
  return sources_.size() - 1;
}

Vec3 StrayFieldSolver::field_at(const Vec3& p) const {
  Vec3 h{};
  for (const auto& s : sources_) {
    h += disk_field(s.disk, p, FieldMethod::kExact);
  }
  return h;
}

Vec3 StrayFieldSolver::named_field_at(const std::string& name,
                                      const Vec3& p) const {
  Vec3 h{};
  for (const auto& s : sources_) {
    if (s.name == name) h += disk_field(s.disk, p, FieldMethod::kExact);
  }
  return h;
}

}  // namespace mram::mag
