// Scalar backend: plain 64-bit word loops, compiled with the project's base
// flags. Always present — it is the reference every wide backend is checked
// against, the fallback on unknown hosts, and the DETERRENT_FORCE_ISA=scalar
// target for A/B benchmarking.
#include "sim/kernels/kernels_impl.hpp"

namespace deterrent::sim::kernels {
namespace {

constinit const KernelTable kTable{util::Isa::Scalar, "scalar",
                                   &run_program_entry<ScalarVec>,
                                   &eval_op_entry<ScalarVec>};

}  // namespace

const KernelTable* scalar_table() { return &kTable; }

}  // namespace deterrent::sim::kernels
