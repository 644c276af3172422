#pragma once

#include <string>

// JSON string escaping, the write-side helper shared by the metrics and
// trace emitters (metrics_io.cpp, trace.cpp). Writing stays string-building,
// like the result sinks; the program never reads JSON back. The tests'
// reference reader, which parses the emitted files to check them against
// their schemas, is tests/support/json_parse.h.

namespace mram::obs {

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

}  // namespace mram::obs
