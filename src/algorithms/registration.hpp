// Self-registration entry point for algorithm translation units.
//
// Each algorithm .cpp declares one static RegisterAlgorithm token:
//
//   namespace {
//   const algorithms::RegisterAlgorithm kReg(make_desc(), [](auto& eng,
//       const algorithms::Params& p) {
//     return algorithms::AnyResult(my_algo(eng, ...params from p...));
//   });
//   }  // namespace
//
// The generic run lambda is instantiated here once per known engine type —
// the primary engine::Engine plus baselines::ChunkedEngine, which serves
// all three Fig-9 baselines (Ligra, Polymer, GG-v1) — and stored
// in the descriptor's type-indexed runner table, so the same registration
// makes the algorithm runnable from the service (primary engine), ggtool,
// the bench suite (all engines) and the fuzzer.  This header is the ONE
// place that knows the engine list; algorithm files and surfaces never
// enumerate engines or algorithms by hand.
//
// The registry is populated during static initialisation, which requires
// every algorithm object file to be linked into the final binary: the
// grind library is built as a CMake OBJECT library (see the top-level
// CMakeLists.txt) precisely so no linker drops a registration-only object.
#pragma once

#include <utility>

#include "algorithms/registry.hpp"
#include "baselines/chunked.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

class RegisterAlgorithm {
 public:
  template <typename RunFn>
  RegisterAlgorithm(AlgorithmDesc desc, RunFn run) {
    desc.add_runner<engine::Engine>(run);
    desc.add_runner<baselines::ChunkedEngine>(run);
    AlgorithmRegistry::instance().add(std::move(desc));
  }
};

}  // namespace grind::algorithms
