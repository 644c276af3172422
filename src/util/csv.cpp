#include "util/csv.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace mram::util {

namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) {
    // Trim surrounding whitespace.
    const auto first = cell.find_first_not_of(" \t\r");
    const auto last = cell.find_last_not_of(" \t\r");
    cells.push_back(first == std::string::npos
                        ? std::string{}
                        : cell.substr(first, last - first + 1));
  }
  return cells;
}

/// "source:line" prefix of an error message.
std::string location(const std::string& source, std::size_t line) {
  return source + ":" + std::to_string(line);
}

}  // namespace

std::size_t CsvDocument::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw ConfigError(source + ": CSV column not found: " + name);
}

std::string CsvDocument::where(std::size_t row) const {
  return location(source, row_lines.at(row));
}

CsvDocument parse_numeric_csv(const std::string& text,
                              const std::string& source) {
  CsvDocument doc;
  doc.source = source;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    auto cells = split_line(line);
    if (cells.empty()) continue;
    if (doc.header.empty()) {
      doc.header = std::move(cells);
      continue;
    }
    if (cells.size() != doc.header.size()) {
      throw ConfigError(location(source, line_no) +
                        ": CSV row width mismatch: expected " +
                        std::to_string(doc.header.size()) + ", got " +
                        std::to_string(cells.size()));
    }
    std::vector<double> row;
    row.reserve(cells.size());
    for (const auto& c : cells) {
      double v = 0.0;
      try {
        std::size_t consumed = 0;
        v = std::stod(c, &consumed);
        if (consumed != c.size()) throw std::invalid_argument(c);
      } catch (const std::exception&) {
        throw ConfigError(location(source, line_no) +
                          ": CSV cell is not numeric: '" + c + "'");
      }
      // stod accepts "nan", "inf" and "infinity"; no data set means them.
      if (!std::isfinite(v)) {
        throw ConfigError(location(source, line_no) +
                          ": CSV cell is not finite: '" + c + "'");
      }
      row.push_back(v);
    }
    doc.rows.push_back(std::move(row));
    doc.row_lines.push_back(line_no);
  }
  if (doc.header.empty()) {
    throw ConfigError(source + ": CSV has no header line");
  }
  return doc;
}

CsvDocument read_numeric_csv(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ConfigError("cannot open CSV file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_numeric_csv(buf.str(), path);
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (!f) throw ConfigError("cannot open file for writing: " + path);
  f << text;
  if (!f) throw ConfigError("failed writing file: " + path);
}

}  // namespace mram::util
