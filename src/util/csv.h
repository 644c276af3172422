#pragma once

#include <string>
#include <vector>

// Minimal CSV reader used by tests and the calibration module to load anchor
// data sets (digitized paper figures shipped as literals or files).

namespace mram::util {

struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
  std::string source;                  ///< file path or "<text>"
  std::vector<std::size_t> row_lines;  ///< 1-based source line of each row

  /// Index of a header column; throws ConfigError when absent.
  std::size_t column(const std::string& name) const;

  /// "source:line" of body row `row`, for error messages.
  std::string where(std::size_t row) const;
};

/// Parses CSV text with a single header line and finite numeric body cells.
/// Blank lines and lines starting with '#' are skipped. `source` names the
/// input in every ConfigError, together with the offending line.
CsvDocument parse_numeric_csv(const std::string& text,
                              const std::string& source = "<text>");

/// Reads and parses a CSV file. Throws ConfigError when unreadable.
CsvDocument read_numeric_csv(const std::string& path);

/// Writes text to a file, creating/truncating it. Throws ConfigError on error.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace mram::util
