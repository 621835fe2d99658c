#include "sim/pattern_io.hpp"

#include <fstream>
#include <sstream>

#include "util/assert.hpp"

namespace deterrent::sim {

std::string write_patterns_string(const PatternSet& patterns) {
  std::ostringstream out;
  out << "# deterrent patterns inputs=" << patterns.input_count()
      << " count=" << patterns.pattern_count() << "\n";
  for (std::size_t p = 0; p < patterns.pattern_count(); ++p) {
    for (std::size_t i = 0; i < patterns.input_count(); ++i)
      out << (patterns.bit(p, i) ? '1' : '0');
    out << '\n';
  }
  return out.str();
}

void write_patterns_file(const PatternSet& patterns, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open file for writing: " + path);
  out << write_patterns_string(patterns);
}

namespace {

PatternSet parse_patterns(std::istream& in) {
  PatternSet set;
  std::string line;
  std::size_t line_no = 0;
  bool first_row = true;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (first_row) {
      set = PatternSet(line.size());
      first_row = false;
    } else if (line.size() != set.input_count()) {
      throw Error("pattern file line " + std::to_string(line_no) +
                  ": width mismatch (expected " + std::to_string(set.input_count()) +
                  " bits, got " + std::to_string(line.size()) + ")");
    }
    Pattern pattern(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '1')
        pattern.set(i);
      else if (line[i] != '0')
        throw Error("pattern file line " + std::to_string(line_no) +
                    ": invalid character '" + std::string(1, line[i]) + "'");
    }
    set.push(pattern);
  }
  return set;
}

}  // namespace

PatternSet read_patterns_string(const std::string& text) {
  std::istringstream iss(text);
  return parse_patterns(iss);
}

PatternSet read_patterns_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open pattern file: " + path);
  return parse_patterns(in);
}

}  // namespace deterrent::sim
