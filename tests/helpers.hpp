// Small helpers shared by the unit tests: a scoped environment override,
// a `.bench` parser for sources that must be clean, and row-pointer views of
// contiguous batches for Mlp's batched passes.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netlist/bench_io.hpp"
#include "util/assert.hpp"

namespace deterrent {

/// Scoped environment-variable override that restores the prior value (or
/// absence) on destruction, so a test that pins DETERRENT_FORCE_ISA (or any
/// other knob) cannot leak state into the rest of the suite.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.has_value())
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Parses `.bench` text through the checked parser. Every diagnostic fails
/// the calling test; a source that builds no netlist also throws.
inline netlist::Netlist parse_bench(const std::string& text) {
  auto result = netlist::read_bench_string_checked(text);
  for (const auto& d : result.diagnostics)
    ADD_FAILURE() << "bench line " << d.line << " [" << d.code << "]: " << d.message;
  if (!result.ok()) throw Error("parse_bench: the source has diagnostics");
  return std::move(*result.netlist);
}

/// Pointers to the rows of a row-major batch `width` floats wide: the form
/// Mlp::forward_batch and Mlp::backward_batch take.
inline std::vector<const float*> row_pointers(std::span<const float> batch,
                                              std::size_t width) {
  std::vector<const float*> rows(batch.size() / width);
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = batch.data() + r * width;
  return rows;
}

}  // namespace deterrent
