#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

// Entry point and argument parsing of the mram_scenarios command-line tool
// (list / describe / run), factored out of the binary so tests can pin exit
// codes and stderr against stream doubles without spawning processes.
//
// The parse_* helpers share one validation style: reject trailing junk,
// reject non-finite values, and name the flag in every error message.

namespace mram::scn::cli {

/// Strict non-negative integer: digits only, no sign, no trailing junk.
/// Throws util::ConfigError naming `flag` otherwise.
std::uint64_t parse_u64(const std::string& flag, const std::string& s);

/// Strict finite double: full-string parse (no trailing junk like "1.5x"),
/// rejects "inf"/"nan" and values outside double range with messages naming
/// `flag`. Plain std::stod accepts all of those silently, which is how a
/// mistyped --trial-scale used to slip through.
double parse_double(const std::string& flag, const std::string& s);

/// --threads: parse_u64 capped at 1024 (0 = all cores).
unsigned parse_threads(const std::string& s);

/// The mram_scenarios tool: args are argv[1..]. Returns the process exit
/// code (0 ok, 1 scenario/config failure, 2 usage error).
int scenarios_main(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err);

}  // namespace mram::scn::cli
