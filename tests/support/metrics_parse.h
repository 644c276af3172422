#pragma once

#include <string>

#include "obs/metrics_io.h"

// The reader of the metrics document (schema "mram.metrics/2",
// obs/metrics_io.h) that `mram_scenarios run --metrics FILE` writes: the
// tests' reference, which parses the emitted files back to check them. The
// program only writes the document.

namespace mram::obs {

/// Parses and schema-checks a document; throws util::ConfigError on a
/// malformed payload or a schema-version mismatch. The "derived" section
/// and histogram percentiles are not read back.
MetricsDoc parse_metrics_doc(const std::string& json_text);

/// Reads + parses a metrics file; errors name the path.
MetricsDoc load_metrics_doc(const std::string& path);

}  // namespace mram::obs
