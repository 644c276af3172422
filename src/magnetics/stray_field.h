#pragma once

#include <string>
#include <vector>

#include "magnetics/disk_source.h"
#include "numerics/vec3.h"

// Superposition solver: a named collection of disk sources whose fields add
// linearly. Both the intra-cell model (one MTJ's RL + HL acting on its own
// FL) and the inter-cell model (all layers of all aggressor cells acting on
// the victim FL) are instances of this solver with different source sets.

namespace mram::mag {

/// A labeled source, so per-layer contributions can be reported separately
/// (e.g. Hs_HL vs Hs_RL in Fig. 3c).
struct NamedSource {
  std::string name;
  DiskSource disk;
};

class StrayFieldSolver {
 public:
  StrayFieldSolver() = default;

  /// Adds a source and returns its index.
  std::size_t add_source(std::string name, const DiskSource& disk);

  std::size_t source_count() const { return sources_.size(); }

  /// Removes all sources.
  void clear() { sources_.clear(); }

  /// Total H-field [A/m] at `p` (superposition of all sources).
  num::Vec3 field_at(const num::Vec3& p) const;

  /// Sum of fields of all sources whose name matches `name`.
  num::Vec3 named_field_at(const std::string& name, const num::Vec3& p) const;

 private:
  std::vector<NamedSource> sources_;
};

}  // namespace mram::mag
