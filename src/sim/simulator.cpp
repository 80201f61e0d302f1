#include "sim/simulator.h"

#include <cmath>
#include <cstring>

#include "util/strings.h"

namespace stcg::sim {

using expr::Env;
using expr::Evaluator;
using expr::Scalar;
using expr::Type;
using expr::Value;

namespace {

void hashCombine(std::uint64_t& h, std::uint64_t v) {
  // 64-bit variant of boost::hash_combine.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
}

std::uint64_t hashScalar(const Scalar& s) {
  switch (s.type()) {
    case Type::kBool:
      return s.asBool() ? 0x9e3779b9ULL : 0x85ebca6bULL;
    case Type::kInt:
      return static_cast<std::uint64_t>(s.asInt()) * 0xff51afd7ed558ccdULL;
    case Type::kReal: {
      const double d = s.asReal();
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return bits * 0xc4ceb9fe1a85ec53ULL;
    }
  }
  return 0;
}

}  // namespace

std::uint64_t snapshotHash(const StateSnapshot& s) {
  std::uint64_t h = 0x517cc1b727220a95ULL;
  for (const auto& v : s) {
    for (const auto& e : v.elems()) hashCombine(h, hashScalar(e));
  }
  return h;
}

Simulator::Simulator(const compile::CompiledModel& cm, EvalEngine engine)
    : cm_(&cm), engine_(engine) {
  if (engine_ == EvalEngine::kTape) {
    modelTape_ = compile::buildModelTape(cm);
    exec_.emplace(modelTape_.tape);
  }
  reset();
}

void Simulator::reset() {
  state_.clear();
  state_.reserve(cm_->states.size());
  for (const auto& s : cm_->states) state_.push_back(s.init);
  lastOutputs_.assign(cm_->outputs.size(), Scalar::i(0));
}

void Simulator::restore(const StateSnapshot& s) {
  // Invariant: snapshots are only valid for the model they were taken
  // from. Enforced by throwing (not assert) so release builds and the
  // lint-driven diagnostics see the same behaviour.
  if (s.size() != cm_->states.size()) {
    throw SimError("restore: snapshot has " + std::to_string(s.size()) +
                   " state(s), model '" + cm_->name + "' expects " +
                   std::to_string(cm_->states.size()));
  }
  state_ = s;
}

void Simulator::bindState(Env& env) const {
  for (std::size_t i = 0; i < cm_->states.size(); ++i) {
    const auto& sv = cm_->states[i];
    if (sv.width == 1) {
      env.set(sv.id, state_[i].scalar());
    } else {
      env.setArray(sv.id, state_[i].elems());
    }
  }
}

StepResult Simulator::step(const InputVector& in,
                           coverage::CoverageTracker* cov) {
  // Invariant: one scalar per declared input, in declaration order.
  if (in.size() != cm_->inputs.size()) {
    throw SimError("step: input vector has " + std::to_string(in.size()) +
                   " value(s), model '" + cm_->name + "' expects " +
                   std::to_string(cm_->inputs.size()));
  }
  return engine_ == EvalEngine::kTape ? stepTape(in, cov) : stepTree(in, cov);
}

StepResult Simulator::stepTree(const InputVector& in,
                               coverage::CoverageTracker* cov) {
  Env env;
  env.reserve(cm_->varCount());
  bindState(env);
  for (std::size_t i = 0; i < cm_->inputs.size(); ++i) {
    env.set(cm_->inputs[i].info.id, in[i].castTo(cm_->inputs[i].info.type));
  }

  Evaluator ev(env);
  StepResult result;

  // Coverage: evaluate every decision whose activation holds.
  if (cov != nullptr) {
    for (const auto& d : cm_->decisions) {
      if (!ev.evalScalar(d.activation).toBool()) continue;
      int taken = -1;
      for (std::size_t a = 0; a < d.armConds.size(); ++a) {
        if (ev.evalScalar(d.armConds[a]).toBool()) {
          taken = static_cast<int>(a);
          break;
        }
      }
      // Arms are exhaustive by construction (the compiler appends a
      // default arm); no arm firing means a malformed compilation.
      if (taken < 0) {
        throw SimError("step: no arm of decision '" + d.name +
                       "' satisfied although its activation holds");
      }
      const int newBranch = cov->recordDecision(d.id, taken);
      if (newBranch >= 0) result.newlyCovered.push_back(newBranch);
      if (!d.conditions.empty()) {
        std::vector<bool> vals;
        vals.reserve(d.conditions.size());
        for (const auto& c : d.conditions) {
          vals.push_back(ev.evalScalar(c).toBool());
        }
        if (cov->recordConditions(d.id, vals, taken == 0)) {
          result.newConditionObservation = true;
        }
      }
    }
  }

  if (cov != nullptr) {
    for (const auto& obj : cm_->objectives) {
      if (cov->objectiveCovered(obj.id)) continue;
      if (ev.evalScalar(obj.activation).toBool() &&
          ev.evalScalar(obj.cond).toBool()) {
        if (cov->recordObjective(obj.id)) {
          result.newConditionObservation = true;
        }
      }
    }
  }

  // Outputs.
  lastOutputs_.clear();
  lastOutputs_.reserve(cm_->outputs.size());
  for (const auto& [name, e] : cm_->outputs) {
    (void)name;
    lastOutputs_.push_back(ev.evalScalar(e));
  }

  // Next state (computed fully before committing).
  StateSnapshot next;
  next.reserve(cm_->states.size());
  for (const auto& sv : cm_->states) {
    if (sv.width == 1) {
      next.emplace_back(ev.evalScalar(sv.next).castTo(sv.type));
    } else {
      next.emplace_back(Value(sv.type, ev.evalArray(sv.next)));
    }
  }
  state_ = std::move(next);
  return result;
}

StepResult Simulator::stepTape(const InputVector& in,
                               coverage::CoverageTracker* cov) {
  // One linear pass computes every root; the coverage/output/next-state
  // logic below reads slots in exactly the order stepTree evaluates, so
  // recorded coverage and committed values are bit-identical to the tree.
  expr::TapeExecutor& ex = *exec_;
  for (std::size_t i = 0; i < cm_->states.size(); ++i) {
    const auto& sv = cm_->states[i];
    if (sv.width == 1) {
      ex.setVar(sv.id, state_[i].scalar());
    } else {
      ex.setArrayVar(sv.id, state_[i].elems());
    }
  }
  for (std::size_t i = 0; i < cm_->inputs.size(); ++i) {
    // Same coercion chain as the tree path: the env stores
    // in[i].castTo(info.type), and each kVar slot casts to its node type.
    ex.setVar(cm_->inputs[i].info.id,
              in[i].castTo(cm_->inputs[i].info.type));
  }
  ex.run();

  StepResult result;
  if (cov != nullptr) {
    for (std::size_t di = 0; di < cm_->decisions.size(); ++di) {
      const auto& d = cm_->decisions[di];
      if (!ex.scalar(modelTape_.decisionActivations[di]).toBool()) continue;
      int taken = -1;
      const auto& arms = modelTape_.decisionArms[di];
      for (std::size_t a = 0; a < arms.size(); ++a) {
        if (ex.scalar(arms[a]).toBool()) {
          taken = static_cast<int>(a);
          break;
        }
      }
      if (taken < 0) {
        throw SimError("step: no arm of decision '" + d.name +
                       "' satisfied although its activation holds");
      }
      const int newBranch = cov->recordDecision(d.id, taken);
      if (newBranch >= 0) result.newlyCovered.push_back(newBranch);
      if (!d.conditions.empty()) {
        std::vector<bool> vals;
        vals.reserve(d.conditions.size());
        for (const auto& slot : modelTape_.decisionConditions[di]) {
          vals.push_back(ex.scalar(slot).toBool());
        }
        if (cov->recordConditions(d.id, vals, taken == 0)) {
          result.newConditionObservation = true;
        }
      }
    }
    for (std::size_t oi = 0; oi < cm_->objectives.size(); ++oi) {
      const auto& obj = cm_->objectives[oi];
      if (cov->objectiveCovered(obj.id)) continue;
      if (ex.scalar(modelTape_.objectiveActivations[oi]).toBool() &&
          ex.scalar(modelTape_.objectiveConds[oi]).toBool()) {
        if (cov->recordObjective(obj.id)) {
          result.newConditionObservation = true;
        }
      }
    }
  }

  lastOutputs_.clear();
  lastOutputs_.reserve(cm_->outputs.size());
  for (const auto& slot : modelTape_.outputs) {
    lastOutputs_.push_back(ex.scalar(slot));
  }

  StateSnapshot next;
  next.reserve(cm_->states.size());
  for (std::size_t i = 0; i < cm_->states.size(); ++i) {
    const auto& sv = cm_->states[i];
    const auto& slot = modelTape_.stateNext[i];
    if (sv.width == 1) {
      next.emplace_back(ex.scalar(slot).castTo(sv.type));
    } else {
      next.emplace_back(Value(sv.type, ex.array(slot)));
    }
  }
  state_ = std::move(next);
  return result;
}

InputVector randomInput(const compile::CompiledModel& cm, Rng& rng) {
  InputVector out;
  out.reserve(cm.inputs.size());
  for (const auto& in : cm.inputs) {
    const auto& info = in.info;
    switch (info.type) {
      case Type::kBool:
        out.push_back(Scalar::b(rng.chance(0.5)));
        break;
      case Type::kInt:
        out.push_back(Scalar::i(rng.uniformInt(
            static_cast<std::int64_t>(std::ceil(info.lo)),
            static_cast<std::int64_t>(std::floor(info.hi)))));
        break;
      case Type::kReal:
        out.push_back(Scalar::r(rng.uniformReal(info.lo, info.hi)));
        break;
    }
  }
  return out;
}

std::string formatInput(const compile::CompiledModel& cm,
                        const InputVector& in) {
  std::vector<std::string> parts;
  parts.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    parts.push_back(cm.inputs[i].info.name + "=" + in[i].toString());
  }
  return join(parts, ", ");
}

}  // namespace stcg::sim
