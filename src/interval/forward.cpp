#include "interval/forward.h"

#include <cassert>

namespace stcg::interval {

using expr::Expr;
using expr::ExprPtr;
using expr::Op;
using expr::Type;

void IntervalEnv::set(expr::VarId id, Interval iv) { scalars_[id] = iv; }

void IntervalEnv::setArray(expr::VarId id, std::vector<Interval> elems) {
  arrays_[id] = std::move(elems);
}

bool IntervalEnv::has(expr::VarId id) const { return scalars_.count(id) > 0; }

bool IntervalEnv::hasArray(expr::VarId id) const {
  return arrays_.count(id) > 0;
}

const Interval& IntervalEnv::get(expr::VarId id) const {
  return scalars_.at(id);
}

const std::vector<Interval>& IntervalEnv::getArray(expr::VarId id) const {
  return arrays_.at(id);
}

Interval declaredDomain(double lo, double hi, Type type) {
  const Interval declared(lo, hi);
  return type == Type::kReal ? declared : declared.integralHull();
}

void ForwardEvaluator::bind(const IntervalEnv& env) {
  env_ = &env;
  box_ = nullptr;
  memo_.clear();
  arrayMemo_.clear();
}

void ForwardEvaluator::bind(const Box& box) {
  box_ = &box;
  env_ = nullptr;
  memo_.clear();
  arrayMemo_.clear();
}

void ForwardEvaluator::pin(const ExprPtr& e) {
  if (pinnedSet_.insert(e.get()).second) pinnedRoots_.push_back(e);
}

Interval ForwardEvaluator::evalScalar(const ExprPtr& e) {
  assert(!e->isArray());
  pin(e);
  return scalar(e.get());
}

const std::vector<Interval>& ForwardEvaluator::evalArray(const ExprPtr& e) {
  assert(e->isArray());
  pin(e);
  return array(e.get());
}

const Interval* ForwardEvaluator::find(const Expr* e) const {
  const auto it = memo_.find(e);
  return it != memo_.end() ? &it->second : nullptr;
}

Interval ForwardEvaluator::leaf(const Expr* e) const {
  assert(env_ != nullptr || box_ != nullptr);
  const Interval declared = declaredDomain(e->varLo, e->varHi, e->type);
  if (box_ != nullptr) return box_->domain(e->var).intersect(declared);
  return env_->has(e->var) ? env_->get(e->var) : declared;
}

Interval ForwardEvaluator::scalar(const Expr* e) {
  if (auto it = memo_.find(e); it != memo_.end()) return it->second;
  Interval out;
  const auto arg = [&](std::size_t i) { return scalar(e->args[i].get()); };
  switch (e->op) {
    case Op::kConst:
      out = Interval::point(e->constVal.toReal());
      break;
    case Op::kVar:
      out = leaf(e);
      break;
    case Op::kConstArray:
    case Op::kVarArray:
    case Op::kStore:
      assert(false && "array node in scalar interval eval");
      out = Interval::whole();
      break;
    case Op::kIte: {
      // Lazy arms: a decided condition evaluates only the taken one.
      const Interval c = arg(0);
      const Interval t = c.isFalse() ? Interval::empty() : arg(1);
      const Interval f = c.isTrue() ? Interval::empty() : arg(2);
      out = intervalTransferScalar(Op::kIte, e->type, c, t, f);
      break;
    }
    case Op::kSelect: {
      const std::vector<Interval>& arr = array(e->args[0].get());
      out = selectI(arr, arg(1));
      break;
    }
    default: {
      const std::size_t n = e->args.size();
      const Interval a = arg(0);
      const Interval b = n > 1 ? arg(1) : Interval::empty();
      const Interval c = n > 2 ? arg(2) : Interval::empty();
      out = intervalTransferScalar(e->op, e->type, a, b, c);
      break;
    }
  }
  memo_.emplace(e, out);
  return out;
}

const std::vector<Interval>& ForwardEvaluator::array(const Expr* e) {
  if (auto it = arrayMemo_.find(e); it != arrayMemo_.end()) return it->second;
  static const std::vector<Interval> kUntaken;
  std::vector<Interval> out;
  switch (e->op) {
    case Op::kConstArray:
      out.reserve(e->constArray.size());
      for (const auto& s : e->constArray) {
        out.push_back(Interval::point(s.toReal()));
      }
      break;
    case Op::kVarArray:
      if (env_ != nullptr && env_->hasArray(e->var)) {
        out = env_->getArray(e->var);
      } else {
        out.assign(static_cast<std::size_t>(e->arraySize), Interval::whole());
      }
      break;
    case Op::kStore: {
      out = array(e->args[0].get());
      const Interval idx = scalar(e->args[1].get());
      storeI(out, idx, scalar(e->args[2].get()));
      break;
    }
    case Op::kIte: {
      // Memo references stay valid across the insertions the arms make.
      const Interval c = scalar(e->args[0].get());
      const auto& t = c.isFalse() ? kUntaken : array(e->args[1].get());
      const auto& f = c.isTrue() ? kUntaken : array(e->args[2].get());
      iteArrayI(c, t, f, out);
      break;
    }
    default:
      assert(false && "scalar node in array interval eval");
      break;
  }
  return arrayMemo_.emplace(e, std::move(out)).first->second;
}

}  // namespace stcg::interval
