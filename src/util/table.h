#pragma once

#include <iosfwd>
#include <string>
#include <vector>

// Fixed-width table printer. Every scenario regenerates one paper figure
// as a textual table (series name + rows), so the formatting lives in one
// place. Also supports CSV emission for plotting.

namespace mram::util {

class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Appends a row of preformatted cells. Precondition: size matches headers.
  void add_row(std::vector<std::string> cells);

  /// Convenience: appends a row of doubles formatted with `precision` digits.
  void add_numeric_row(const std::vector<double>& values, int precision = 4);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return headers_.size(); }

  /// Renders as an aligned, pipe-separated text table.
  std::string to_text() const;

  /// Renders as CSV (RFC-4180-ish; cells containing commas/quotes are quoted).
  std::string to_csv() const;

  /// Prints to_text() to the stream with an optional title line.
  void print(std::ostream& os, const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for heterogeneous rows).
std::string format_double(double v, int precision = 4);

/// Formats a double in scientific notation -- for columns whose magnitudes
/// span many decades (rare-event rates, effective trial counts).
std::string format_scientific(double v, int precision = 2);

}  // namespace mram::util
