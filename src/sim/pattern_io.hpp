#pragma once

#include <string>

#include "sim/pattern.hpp"

namespace deterrent::sim {

/// Plain-text pattern-set format: one pattern per line as a 0/1 string, bit i
/// = value of primary input i (Netlist::inputs() order, pseudo-PIs included
/// under full scan). Comment lines start with '#'. This is the interchange
/// format between the CLI tool, the benches, and external testers.
///
///   # deterrent patterns inputs=5
///   01101
///   11000
std::string write_patterns_string(const PatternSet& patterns);
void write_patterns_file(const PatternSet& patterns, const std::string& path);

/// Parses the format above. All rows must have equal width; malformed input
/// throws deterrent::Error with a line number.
PatternSet read_patterns_string(const std::string& text);
PatternSet read_patterns_file(const std::string& path);

}  // namespace deterrent::sim
