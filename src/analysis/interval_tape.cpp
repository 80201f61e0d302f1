#include "analysis/interval_tape.h"

#include <algorithm>
#include <cmath>

#include "expr/tape_verify.h"

namespace stcg::analysis {

using expr::Op;
using expr::TapeInstr;
using expr::Type;
using interval::Interval;

namespace {

/// The interval transfer of one scalar-result tape instruction (every op
/// except kSelect/kStore/array-kIte, which read array slots), shared by
/// both executors. Unused operands may be passed as any interval (they
/// are ignored).
Interval intervalTransferScalar(Op op, Type type, const Interval& a,
                                const Interval& b, const Interval& c) {
  switch (op) {
    case Op::kNot:
      return notI(a);
    case Op::kNeg:
      return negI(a);
    case Op::kAbs:
      return absI(a);
    case Op::kCast: {
      if (type == Type::kBool) {
        if (a.isEmpty()) return a;
        if (a.isPoint()) {
          return a.lo() == 0.0 ? Interval::boolFalse() : Interval::boolTrue();
        }
        return a.containsZero() ? Interval::boolUnknown()
                                : Interval::boolTrue();
      }
      if (type == Type::kInt) {
        return a.isEmpty() ? a
                           : Interval(std::trunc(a.lo()), std::trunc(a.hi()));
      }
      return a;
    }
    case Op::kAdd:
      return addI(a, b);
    case Op::kSub:
      return subI(a, b);
    case Op::kMul:
      return mulI(a, b);
    case Op::kDiv: {
      Interval out = divI(a, b);
      // Integer division truncates toward zero (see IntervalEvaluator).
      if (type == Type::kInt && !out.isEmpty()) {
        out = Interval(std::trunc(out.lo()), std::trunc(out.hi()));
      }
      return out;
    }
    case Op::kMod:
      return modI(a, b);
    case Op::kMin:
      return minI(a, b);
    case Op::kMax:
      return maxI(a, b);
    case Op::kLt:
      return ltI(a, b);
    case Op::kLe:
      return leI(a, b);
    case Op::kGt:
      return ltI(b, a);
    case Op::kGe:
      return leI(b, a);
    case Op::kEq:
      return eqI(a, b);
    case Op::kNe:
      return notI(eqI(a, b));
    case Op::kAnd:
      return andI(a, b);
    case Op::kOr:
      return orI(a, b);
    case Op::kXor:
      return xorI(a, b);
    case Op::kIte:  // scalar result; no cast, unlike the concrete engine
      if (a.isTrue()) return b;
      if (a.isFalse()) return c;
      return b.hull(c);
    default:
      return Interval::whole();
  }
}

}  // namespace

IntervalTapeBuild buildIntervalTape(const std::vector<expr::ExprPtr>& roots) {
  expr::TapeBuilder b;
  IntervalTapeBuild out;
  out.rootSlots.reserve(roots.size());
  for (const auto& r : roots) out.rootSlots.push_back(b.addRoot(r));
  out.tape = b.finish();
  expr::maybeRequireVerifiedTape(*out.tape, "buildIntervalTape");
  return out;
}

IntervalTapeExecutor::IntervalTapeExecutor(
    std::shared_ptr<const expr::Tape> tape)
    : tape_(std::move(tape)),
      scalars_(tape_->scalarSlotCount()),
      arrays_(tape_->arraySlotCount()) {
  // Constant slots never change: image them into the interval domain once.
  const auto& sInit = tape_->scalarInit();
  for (const std::int32_t slot : tape_->constScalarSlots()) {
    scalars_[static_cast<std::size_t>(slot)] =
        Interval::point(sInit[static_cast<std::size_t>(slot)].toReal());
  }
  const auto& aInit = tape_->arrayInit();
  for (const std::int32_t slot : tape_->constArraySlots()) {
    auto& dst = arrays_[static_cast<std::size_t>(slot)];
    const auto& src = aInit[static_cast<std::size_t>(slot)];
    dst.reserve(src.size());
    for (const auto& s : src) dst.push_back(Interval::point(s.toReal()));
  }
}

void IntervalTapeExecutor::bind(const IntervalEnv& env) {
  for (const auto& b : tape_->varBindings()) {
    Interval iv;
    if (env.has(b.var)) {
      iv = env.get(b.var);
    } else {
      iv = Interval(b.lo, b.hi);
      if (b.type != Type::kReal) iv = iv.integralHull();
    }
    scalars_[static_cast<std::size_t>(b.slot)] = iv;
  }
  for (const auto& b : tape_->arrayBindings()) {
    auto& dst = arrays_[static_cast<std::size_t>(b.slot)];
    if (env.hasArray(b.var)) {
      dst = env.getArray(b.var);
    } else {
      dst.assign(static_cast<std::size_t>(b.size), Interval::whole());
    }
  }
}

void IntervalTapeExecutor::run() {
  for (const TapeInstr& in : tape_->code()) exec(in);
}

void IntervalTapeExecutor::exec(const TapeInstr& in) {
  // Per-op transfer functions mirror IntervalEvaluator::scalarRec /
  // arrayRec — results are identical to the tree walk. Pure scalar ops
  // delegate to intervalTransferScalar; the array-reading ops stay here.
  const auto s = [&](std::int32_t slot) -> const Interval& {
    return scalars_[static_cast<std::size_t>(slot)];
  };
  const auto a = [&](std::int32_t slot) -> const std::vector<Interval>& {
    return arrays_[static_cast<std::size_t>(slot)];
  };
  Interval out;
  switch (in.op) {
    case Op::kIte:
      if (in.arrayResult) {
        const Interval& c = s(in.a);
        auto& dst = arrays_[static_cast<std::size_t>(in.dst)];
        if (c.isTrue()) {
          dst = a(in.b);
        } else if (c.isFalse()) {
          dst = a(in.c);
        } else {
          dst = a(in.b);
          const auto& other = a(in.c);
          for (std::size_t i = 0; i < dst.size() && i < other.size(); ++i) {
            dst[i] = dst[i].hull(other[i]);
          }
        }
        return;
      }
      out = intervalTransferScalar(in.op, in.type, s(in.a), s(in.b), s(in.c));
      break;
    case Op::kSelect: {
      const auto& arr = a(in.a);
      const Interval idx = s(in.b).integralHull();
      const auto n = static_cast<std::int64_t>(arr.size());
      Interval acc = Interval::empty();
      if (!idx.isEmpty() && n > 0) {
        const auto lo = static_cast<std::int64_t>(
            std::clamp(idx.lo(), 0.0, static_cast<double>(n - 1)));
        const auto hi = static_cast<std::int64_t>(
            std::clamp(idx.hi(), 0.0, static_cast<double>(n - 1)));
        for (std::int64_t i = lo; i <= hi; ++i) {
          acc = acc.hull(arr[static_cast<std::size_t>(i)]);
        }
      }
      out = acc;
      break;
    }
    case Op::kStore: {
      auto& dst = arrays_[static_cast<std::size_t>(in.dst)];
      dst = a(in.a);
      const Interval idx = s(in.b).integralHull();
      const Interval val = s(in.c);
      const auto n = static_cast<std::int64_t>(dst.size());
      if (!idx.isEmpty() && n > 0) {
        const auto lo = static_cast<std::int64_t>(
            std::clamp(idx.lo(), 0.0, static_cast<double>(n - 1)));
        const auto hi = static_cast<std::int64_t>(
            std::clamp(idx.hi(), 0.0, static_cast<double>(n - 1)));
        if (lo == hi) {
          dst[static_cast<std::size_t>(lo)] = val;  // definite write
        } else {
          for (std::int64_t i = lo; i <= hi; ++i) {
            auto& slot = dst[static_cast<std::size_t>(i)];
            slot = slot.hull(val);  // may or may not be written
          }
        }
      }
      return;
    }
    default:
      out = intervalTransferScalar(
          in.op, in.type, s(in.a),
          in.b >= 0 ? s(in.b) : Interval::empty(),
          in.c >= 0 ? s(in.c) : Interval::empty());
      break;
  }
  scalars_[static_cast<std::size_t>(in.dst)] = out;
}

BatchIntervalTapeExecutor::BatchIntervalTapeExecutor(
    std::shared_ptr<const expr::Tape> tape, int lanes)
    : tape_(std::move(tape)), lanes_(std::max(1, lanes)) {
  const auto B = static_cast<std::size_t>(lanes_);
  scalars_.resize(tape_->scalarSlotCount() * B);
  arrays_.resize(tape_->arraySlotCount() * B);
  // Constant slots never change: image them into every lane once.
  const auto& sInit = tape_->scalarInit();
  for (const std::int32_t slot : tape_->constScalarSlots()) {
    const Interval iv =
        Interval::point(sInit[static_cast<std::size_t>(slot)].toReal());
    for (int l = 0; l < lanes_; ++l) scalars_[idx(slot, l)] = iv;
  }
  const auto& aInit = tape_->arrayInit();
  for (const std::int32_t slot : tape_->constArraySlots()) {
    const auto& src = aInit[static_cast<std::size_t>(slot)];
    std::vector<Interval> imaged;
    imaged.reserve(src.size());
    for (const auto& s : src) imaged.push_back(Interval::point(s.toReal()));
    for (int l = 0; l < lanes_; ++l) arrays_[idx(slot, l)] = imaged;
  }
}

void BatchIntervalTapeExecutor::bind(int lane, const IntervalEnv& env) {
  for (const auto& b : tape_->varBindings()) {
    Interval iv;
    if (env.has(b.var)) {
      iv = env.get(b.var);
    } else {
      iv = Interval(b.lo, b.hi);
      if (b.type != Type::kReal) iv = iv.integralHull();
    }
    scalars_[idx(b.slot, lane)] = iv;
  }
  for (const auto& b : tape_->arrayBindings()) {
    auto& dst = arrays_[idx(b.slot, lane)];
    if (env.hasArray(b.var)) {
      dst = env.getArray(b.var);
    } else {
      dst.assign(static_cast<std::size_t>(b.size), Interval::whole());
    }
  }
}

void BatchIntervalTapeExecutor::run() {
  for (const TapeInstr& in : tape_->code()) exec(in);
}

void BatchIntervalTapeExecutor::exec(const TapeInstr& in) {
  // Same per-op transfers as IntervalTapeExecutor::exec, instruction
  // outside / lane inside so the op dispatch is paid once per B lanes.
  const int B = lanes_;
  switch (in.op) {
    case Op::kIte:
      if (in.arrayResult) {
        for (int l = 0; l < B; ++l) {
          const Interval& c = scalars_[idx(in.a, l)];
          auto& dst = arrays_[idx(in.dst, l)];
          if (c.isTrue()) {
            dst = arrays_[idx(in.b, l)];
          } else if (c.isFalse()) {
            dst = arrays_[idx(in.c, l)];
          } else {
            dst = arrays_[idx(in.b, l)];
            const auto& other = arrays_[idx(in.c, l)];
            for (std::size_t i = 0; i < dst.size() && i < other.size(); ++i) {
              dst[i] = dst[i].hull(other[i]);
            }
          }
        }
        return;
      }
      for (int l = 0; l < B; ++l) {
        scalars_[idx(in.dst, l)] = intervalTransferScalar(
            in.op, in.type, scalars_[idx(in.a, l)], scalars_[idx(in.b, l)],
            scalars_[idx(in.c, l)]);
      }
      return;
    case Op::kSelect:
      for (int l = 0; l < B; ++l) {
        const auto& arr = arrays_[idx(in.a, l)];
        const Interval sIdx = scalars_[idx(in.b, l)].integralHull();
        const auto n = static_cast<std::int64_t>(arr.size());
        Interval acc = Interval::empty();
        if (!sIdx.isEmpty() && n > 0) {
          const auto lo = static_cast<std::int64_t>(
              std::clamp(sIdx.lo(), 0.0, static_cast<double>(n - 1)));
          const auto hi = static_cast<std::int64_t>(
              std::clamp(sIdx.hi(), 0.0, static_cast<double>(n - 1)));
          for (std::int64_t i = lo; i <= hi; ++i) {
            acc = acc.hull(arr[static_cast<std::size_t>(i)]);
          }
        }
        scalars_[idx(in.dst, l)] = acc;
      }
      return;
    case Op::kStore:
      for (int l = 0; l < B; ++l) {
        auto& dst = arrays_[idx(in.dst, l)];
        dst = arrays_[idx(in.a, l)];
        const Interval sIdx = scalars_[idx(in.b, l)].integralHull();
        const Interval val = scalars_[idx(in.c, l)];
        const auto n = static_cast<std::int64_t>(dst.size());
        if (!sIdx.isEmpty() && n > 0) {
          const auto lo = static_cast<std::int64_t>(
              std::clamp(sIdx.lo(), 0.0, static_cast<double>(n - 1)));
          const auto hi = static_cast<std::int64_t>(
              std::clamp(sIdx.hi(), 0.0, static_cast<double>(n - 1)));
          if (lo == hi) {
            dst[static_cast<std::size_t>(lo)] = val;  // definite write
          } else {
            for (std::int64_t i = lo; i <= hi; ++i) {
              auto& slot = dst[static_cast<std::size_t>(i)];
              slot = slot.hull(val);  // may or may not be written
            }
          }
        }
      }
      return;
    default:
      for (int l = 0; l < B; ++l) {
        scalars_[idx(in.dst, l)] = intervalTransferScalar(
            in.op, in.type, scalars_[idx(in.a, l)],
            in.b >= 0 ? scalars_[idx(in.b, l)] : Interval::empty(),
            in.c >= 0 ? scalars_[idx(in.c, l)] : Interval::empty());
      }
      return;
  }
}

std::vector<Interval> intervalVerdicts(
    const std::vector<expr::ExprPtr>& roots, const IntervalEnv& env) {
  const IntervalTapeBuild built = buildIntervalTape(roots);
  IntervalTapeExecutor ex(built.tape);
  ex.bind(env);
  ex.run();
  std::vector<Interval> out;
  out.reserve(built.rootSlots.size());
  for (const auto& slot : built.rootSlots) out.push_back(ex.scalar(slot));
  return out;
}

std::vector<std::vector<Interval>> intervalVerdictsBatch(
    const std::vector<expr::ExprPtr>& roots,
    const std::vector<IntervalEnv>& envs) {
  std::vector<std::vector<Interval>> out(envs.size());
  if (envs.empty()) return out;
  const IntervalTapeBuild built = buildIntervalTape(roots);
  BatchIntervalTapeExecutor ex(built.tape, static_cast<int>(envs.size()));
  for (std::size_t e = 0; e < envs.size(); ++e) {
    ex.bind(static_cast<int>(e), envs[e]);
  }
  ex.run();
  for (std::size_t e = 0; e < envs.size(); ++e) {
    out[e].reserve(built.rootSlots.size());
    for (const auto& slot : built.rootSlots) {
      out[e].push_back(ex.scalar(slot, static_cast<int>(e)));
    }
  }
  return out;
}

}  // namespace stcg::analysis
