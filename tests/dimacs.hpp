// DIMACS CNF reader and writer for the SAT tests: the fuzz corpus under
// tests/corpus/sat/ is stored in it, and failing random formulas are dumped
// in it for replay with an external solver.
#pragma once

#include <cstdlib>
#include <istream>
#include <sstream>
#include <string>

#include "sat/encoder.hpp"
#include "util/assert.hpp"

namespace deterrent::sat {

/// Parses DIMACS CNF ("p cnf <vars> <clauses>" + terminated clause lines).
/// Comment lines (c ...) are skipped; malformed input throws deterrent::Error.
inline Cnf read_dimacs(std::istream& in) {
  Cnf cnf;
  bool header_seen = false;
  Clause current;
  std::size_t declared_clauses = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    if (!header_seen) {
      std::string p, fmt;
      ls >> p >> fmt >> cnf.var_count >> declared_clauses;
      if (p != "p" || fmt != "cnf" || ls.fail())
        throw Error("dimacs: malformed problem line: " + line);
      header_seen = true;
      continue;
    }
    long long v = 0;
    while (ls >> v) {
      if (v == 0) {
        cnf.clauses.push_back(current);
        current.clear();
      } else {
        const auto var = static_cast<Var>(std::abs(v) - 1);
        if (var >= cnf.var_count) throw Error("dimacs: literal out of range: " + line);
        current.push_back(mk_lit(var, v < 0));
      }
    }
  }
  if (!header_seen) throw Error("dimacs: missing problem line");
  if (!current.empty()) cnf.clauses.push_back(current);  // tolerate missing final 0
  return cnf;
}

inline Cnf read_dimacs_string(const std::string& text) {
  std::istringstream iss(text);
  return read_dimacs(iss);
}

inline std::string write_dimacs_string(const Cnf& cnf) {
  std::ostringstream out;
  out << "p cnf " << cnf.var_count << ' ' << cnf.clauses.size() << '\n';
  for (const auto& clause : cnf.clauses) {
    for (const Lit l : clause)
      out << (sign_of(l) ? -static_cast<long long>(var_of(l)) - 1
                         : static_cast<long long>(var_of(l)) + 1)
          << ' ';
    out << "0\n";
  }
  return out.str();
}

}  // namespace deterrent::sat
