#include "analysis/interval_tape.h"

#include "expr/tape_verify.h"

namespace stcg::analysis {

using expr::Op;
using expr::TapeInstr;
using interval::Interval;
using interval::IntervalEnv;

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
    scalars_[static_cast<std::size_t>(b.slot)] =
        env.has(b.var) ? env.get(b.var)
                       : interval::declaredDomain(b.lo, b.hi, b.type);
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
  const auto s = [&](std::int32_t slot) -> const Interval& {
    return scalars_[static_cast<std::size_t>(slot)];
  };
  const auto a = [&](std::int32_t slot) -> const std::vector<Interval>& {
    return arrays_[static_cast<std::size_t>(slot)];
  };
  // Arrays never share a slot, so dst is distinct from every operand.
  if (in.op == Op::kIte && in.arrayResult) {
    iteArrayI(s(in.a), a(in.b), a(in.c),
              arrays_[static_cast<std::size_t>(in.dst)]);
    return;
  }
  if (in.op == Op::kStore) {
    auto& dst = arrays_[static_cast<std::size_t>(in.dst)];
    dst = a(in.a);
    storeI(dst, s(in.b), s(in.c));
    return;
  }
  Interval out;
  if (in.op == Op::kSelect) {
    out = selectI(a(in.a), s(in.b));
  } else {
    out = intervalTransferScalar(in.op, in.type, s(in.a),
                                 in.b >= 0 ? s(in.b) : Interval::empty(),
                                 in.c >= 0 ? s(in.c) : Interval::empty());
  }
  scalars_[static_cast<std::size_t>(in.dst)] = out;
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

}  // namespace stcg::analysis
