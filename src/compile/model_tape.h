// A compiled model's expression roots flattened onto one shared tape.
//
// Every root the simulator reads per step — decision activations, arm
// conditions, atomic conditions, objective activations/conditions, outputs
// and next-state expressions — is emitted into a single expr::Tape, so the
// global value-numbering CSE spans all of them (an activation shared by
// five decisions is computed once per step, not five times) and one
// non-recursive executor pass evaluates the whole model.
#pragma once

#include <memory>
#include <vector>

#include "compile/compiled_model.h"
#include "expr/tape.h"

namespace stcg::compile {

/// Slot map for one CompiledModel. Indices parallel the model's own
/// decision/objective/output/state vectors; `tape` is the tape every
/// engine executes and the SlotRefs below index it.
struct ModelTape {
  std::shared_ptr<const expr::Tape> tape;

  std::vector<expr::SlotRef> decisionActivations;
  std::vector<std::vector<expr::SlotRef>> decisionArms;
  std::vector<std::vector<expr::SlotRef>> decisionConditions;
  std::vector<expr::SlotRef> objectiveActivations;
  std::vector<expr::SlotRef> objectiveConds;
  std::vector<expr::SlotRef> outputs;
  std::vector<expr::SlotRef> stateNext;  // scalar or array per StateVar
};

/// Compile all of `cm`'s roots into one tape.
[[nodiscard]] ModelTape buildModelTape(const CompiledModel& cm);

}  // namespace stcg::compile
