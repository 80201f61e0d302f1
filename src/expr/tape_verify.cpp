#include "expr/tape_verify.h"

#include <algorithm>
#include <unordered_map>

#include "util/env.h"

namespace stcg::expr {

namespace {

std::uint64_t mixBits(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  return h;
}

/// Per-slot / per-instruction variable-dependency bitsets, recomputed
/// independently of TapeBuilder (the verifier must not trust the code
/// path it is checking). Uses the same accumulate-only semantics as the
/// cone derivation: a slot's set only grows across writers.
struct DepSets {
  std::size_t words = 0;
  std::vector<VarId> vars;                 // sorted, unique
  std::vector<std::uint64_t> scalar;       // [slot * words]
  std::vector<std::uint64_t> array;        // [slot * words]
  std::vector<std::uint64_t> instr;        // [idx * words] dst set after OR

  [[nodiscard]] const std::uint64_t* instrAt(std::size_t idx) const {
    return instr.data() + idx * words;
  }
};

DepSets computeDepSets(const Tape& t) {
  DepSets d;
  for (const auto& b : t.varBindings()) d.vars.push_back(b.var);
  for (const auto& b : t.arrayBindings()) d.vars.push_back(b.var);
  std::sort(d.vars.begin(), d.vars.end());
  d.vars.erase(std::unique(d.vars.begin(), d.vars.end()), d.vars.end());
  d.words = (d.vars.size() + 63) / 64;
  d.scalar.assign(t.scalarSlotCount() * d.words, 0);
  d.array.assign(t.arraySlotCount() * d.words, 0);
  d.instr.assign(t.code().size() * d.words, 0);

  const auto nScalar = static_cast<std::int32_t>(t.scalarSlotCount());
  const auto nArray = static_cast<std::int32_t>(t.arraySlotCount());
  const auto varIndex = [&](VarId v) {
    return static_cast<std::size_t>(
        std::lower_bound(d.vars.begin(), d.vars.end(), v) - d.vars.begin());
  };
  for (const auto& b : t.varBindings()) {
    if (b.slot < 0 || b.slot >= nScalar) continue;  // bounds check reports
    const std::size_t i = varIndex(b.var);
    d.scalar[static_cast<std::size_t>(b.slot) * d.words + i / 64] |=
        1ULL << (i % 64);
  }
  for (const auto& b : t.arrayBindings()) {
    if (b.slot < 0 || b.slot >= nArray) continue;
    const std::size_t i = varIndex(b.var);
    d.array[static_cast<std::size_t>(b.slot) * d.words + i / 64] |=
        1ULL << (i % 64);
  }

  const auto& code = t.code();
  for (std::size_t idx = 0; idx < code.size(); ++idx) {
    const TapeInstr& in = code[idx];
    const bool dstOk = in.arrayResult ? (in.dst >= 0 && in.dst < nArray)
                                      : (in.dst >= 0 && in.dst < nScalar);
    std::uint64_t* acc = d.instr.data() + idx * d.words;
    forEachTapeOperand(in, [&](std::int32_t slot, bool isArray) {
      const std::int32_t n = isArray ? nArray : nScalar;
      if (slot < 0 || slot >= n) return;
      const std::uint64_t* src =
          (isArray ? d.array.data() : d.scalar.data()) +
          static_cast<std::size_t>(slot) * d.words;
      for (std::size_t w = 0; w < d.words; ++w) acc[w] |= src[w];
    });
    if (dstOk) {
      std::uint64_t* dst =
          (in.arrayResult ? d.array.data() : d.scalar.data()) +
          static_cast<std::size_t>(in.dst) * d.words;
      for (std::size_t w = 0; w < d.words; ++w) {
        dst[w] |= acc[w];
        acc[w] = dst[w];  // accumulate-only, like the cone derivation
      }
    }
  }
  return d;
}

bool isLeafOp(Op op) {
  return op == Op::kConst || op == Op::kConstArray || op == Op::kVar ||
         op == Op::kVarArray;
}

bool isComparisonOp(Op op) {
  return op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe ||
         op == Op::kEq || op == Op::kNe;
}

bool isBoolBinaryOp(Op op) {
  return op == Op::kAnd || op == Op::kOr || op == Op::kXor;
}

bool isArithBinaryOp(Op op) {
  return op == Op::kAdd || op == Op::kSub || op == Op::kMul ||
         op == Op::kDiv || op == Op::kMod || op == Op::kMin || op == Op::kMax;
}

class Verifier {
 public:
  explicit Verifier(const Tape& t) : t_(t) {}

  TapeVerifyResult run() {
    checkBindingTables();
    checkCodeShape();
    checkDefUseAndTypes();
    checkRoots();
    checkCones();
    checkSingleWriter();
    checkCseDuplicates();
    return std::move(result_);
  }

 private:
  void issue(TapeIssueKind kind, std::int32_t instr, std::string msg) {
    result_.issues.push_back({kind, instr, std::move(msg)});
  }

  [[nodiscard]] std::int32_t nScalar() const {
    return static_cast<std::int32_t>(t_.scalarSlotCount());
  }
  [[nodiscard]] std::int32_t nArray() const {
    return static_cast<std::int32_t>(t_.arraySlotCount());
  }

  void checkBindingTables() {
    // Slot-table sanity: const/var slots in range, variable tables sorted
    // (setVar binary-searches them), and no slot claimed as both a
    // constant and a variable binding.
    std::vector<std::uint8_t> owner(t_.scalarSlotCount(), 0);
    for (const std::int32_t s : t_.constScalarSlots()) {
      if (s < 0 || s >= nScalar()) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "const scalar slot " + std::to_string(s) + " out of range");
        continue;
      }
      owner[static_cast<std::size_t>(s)] |= 1;
    }
    for (const auto& b : t_.varBindings()) {
      if (b.slot < 0 || b.slot >= nScalar()) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "variable '" + b.name + "' bound to out-of-range slot " +
                  std::to_string(b.slot));
        continue;
      }
      if ((owner[static_cast<std::size_t>(b.slot)] & 1) != 0) {
        issue(TapeIssueKind::kConstClobbered, -1,
              "slot " + std::to_string(b.slot) +
                  " is both a constant and variable '" + b.name + "'");
      }
      owner[static_cast<std::size_t>(b.slot)] |= 2;
    }
    const auto& vb = t_.varBindings();
    for (std::size_t i = 1; i < vb.size(); ++i) {
      const bool ordered = vb[i - 1].var < vb[i].var ||
                           (vb[i - 1].var == vb[i].var &&
                            vb[i - 1].type < vb[i].type);
      if (!ordered) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "varBindings not sorted by (var, type) at entry " +
                  std::to_string(i) + " — setVar binary search would miss");
        break;
      }
    }
    const auto& ab = t_.arrayBindings();
    for (std::size_t i = 1; i < ab.size(); ++i) {
      if (!(ab[i - 1].var < ab[i].var)) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "arrayBindings not sorted by var at entry " +
                  std::to_string(i));
        break;
      }
    }
    for (const std::int32_t s : t_.constArraySlots()) {
      if (s < 0 || s >= nArray()) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "const array slot " + std::to_string(s) + " out of range");
      }
    }
    for (const auto& b : ab) {
      if (b.slot < 0 || b.slot >= nArray()) {
        issue(TapeIssueKind::kSlotBounds, -1,
              "array variable '" + b.name + "' bound to out-of-range slot " +
                  std::to_string(b.slot));
      }
    }
  }

  void checkCodeShape() {
    const auto& code = t_.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      const auto idx = static_cast<std::int32_t>(i);
      if (isLeafOp(in.op)) {
        issue(TapeIssueKind::kSlotBounds, idx,
              std::string("leaf op ") + opName(in.op) +
                  " emitted as an instruction");
        continue;
      }
      if (in.arrayResult && !(in.op == Op::kIte || in.op == Op::kStore)) {
        issue(TapeIssueKind::kSlotBounds, idx,
              std::string(opName(in.op)) + " cannot produce an array result");
      }
      if (in.op == Op::kStore && !in.arrayResult) {
        issue(TapeIssueKind::kSlotBounds, idx,
              "kStore must produce an array result");
      }
      const std::int32_t dstMax = in.arrayResult ? nArray() : nScalar();
      if (in.dst < 0 || in.dst >= dstMax) {
        issue(TapeIssueKind::kSlotBounds, idx,
              "dst slot " + std::to_string(in.dst) + " out of range");
      }
      forEachTapeOperand(in, [&](std::int32_t slot, bool isArray) {
        const std::int32_t max = isArray ? nArray() : nScalar();
        if (slot < 0 || slot >= max) {
          issue(TapeIssueKind::kSlotBounds, idx,
                std::string(isArray ? "array" : "scalar") + " operand slot " +
                    std::to_string(slot) + " out of range");
        }
      });
    }
  }

  void checkDefUseAndTypes() {
    // One forward pass: def-before-use, const/var clobbers, and the
    // typed-lane contract (result types as the batch executor derives
    // them).
    std::vector<std::uint8_t> sDef(t_.scalarSlotCount(), 0);
    std::vector<std::uint8_t> aDef(t_.arraySlotCount(), 0);
    std::vector<std::uint8_t> sPinned(t_.scalarSlotCount(), 0);
    std::vector<std::uint8_t> aPinned(t_.arraySlotCount(), 0);
    for (const std::int32_t s : t_.constScalarSlots()) {
      if (s >= 0 && s < nScalar()) {
        sDef[static_cast<std::size_t>(s)] = 1;
        sPinned[static_cast<std::size_t>(s)] = 1;
      }
    }
    for (const auto& b : t_.varBindings()) {
      if (b.slot >= 0 && b.slot < nScalar()) {
        sDef[static_cast<std::size_t>(b.slot)] = 1;
        sPinned[static_cast<std::size_t>(b.slot)] = 1;
      }
    }
    for (const std::int32_t s : t_.constArraySlots()) {
      if (s >= 0 && s < nArray()) {
        aDef[static_cast<std::size_t>(s)] = 1;
        aPinned[static_cast<std::size_t>(s)] = 1;
      }
    }
    for (const auto& b : t_.arrayBindings()) {
      if (b.slot >= 0 && b.slot < nArray()) {
        aDef[static_cast<std::size_t>(b.slot)] = 1;
        aPinned[static_cast<std::size_t>(b.slot)] = 1;
      }
    }

    const auto& code = t_.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      const auto idx = static_cast<std::int32_t>(i);
      if (isLeafOp(in.op)) continue;  // reported by checkCodeShape

      forEachTapeOperand(in, [&](std::int32_t slot, bool isArray) {
        const std::int32_t max = isArray ? nArray() : nScalar();
        if (slot < 0 || slot >= max) return;  // bounds issue already filed
        const auto& def = isArray ? aDef : sDef;
        if (def[static_cast<std::size_t>(slot)] == 0) {
          issue(TapeIssueKind::kUseBeforeDef, idx,
                std::string(isArray ? "array" : "scalar") + " slot " +
                    std::to_string(slot) + " read before any definition");
        }
      });

      // Typed-lane contract: the result types applyUnary/applyBinary
      // guarantee, which BatchTapeExecutor bakes into its lane layout.
      switch (in.op) {
        case Op::kNot:
          if (in.type != Type::kBool) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  "kNot result typed " + std::string(typeName(in.type)) +
                      ", executors produce kBool");
          }
          break;
        case Op::kNeg:
        case Op::kAbs:
          if (in.type == Type::kBool) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  std::string(opName(in.op)) +
                      " result typed kBool, executors produce kInt/kReal");
          }
          break;
        default:
          if ((isComparisonOp(in.op) || isBoolBinaryOp(in.op)) &&
              in.type != Type::kBool) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  std::string(opName(in.op)) + " result typed " +
                      typeName(in.type) + ", comparisons/booleans are kBool");
          }
          if (isArithBinaryOp(in.op) && in.type == Type::kBool) {
            issue(TapeIssueKind::kTypeMismatch, idx,
                  std::string(opName(in.op)) +
                      " result typed kBool, promote() never yields kBool");
          }
          break;
      }

      const std::int32_t dstMax = in.arrayResult ? nArray() : nScalar();
      if (in.dst >= 0 && in.dst < dstMax) {
        const auto d = static_cast<std::size_t>(in.dst);
        if ((in.arrayResult ? aPinned : sPinned)[d] != 0) {
          issue(TapeIssueKind::kConstClobbered, idx,
                std::string("instruction overwrites constant/variable ") +
                    (in.arrayResult ? "array slot " : "slot ") +
                    std::to_string(in.dst));
        }
        (in.arrayResult ? aDef : sDef)[d] = 1;
      }
    }
  }

  void checkRoots() {
    // Everything defined by the end of the code (consts, vars, any dst).
    std::vector<std::uint8_t> sDef(t_.scalarSlotCount(), 0);
    std::vector<std::uint8_t> aDef(t_.arraySlotCount(), 0);
    for (const std::int32_t s : t_.constScalarSlots()) {
      if (s >= 0 && s < nScalar()) sDef[static_cast<std::size_t>(s)] = 1;
    }
    for (const auto& b : t_.varBindings()) {
      if (b.slot >= 0 && b.slot < nScalar()) {
        sDef[static_cast<std::size_t>(b.slot)] = 1;
      }
    }
    for (const std::int32_t s : t_.constArraySlots()) {
      if (s >= 0 && s < nArray()) aDef[static_cast<std::size_t>(s)] = 1;
    }
    for (const auto& b : t_.arrayBindings()) {
      if (b.slot >= 0 && b.slot < nArray()) {
        aDef[static_cast<std::size_t>(b.slot)] = 1;
      }
    }
    for (const TapeInstr& in : t_.code()) {
      const std::int32_t max = in.arrayResult ? nArray() : nScalar();
      if (in.dst >= 0 && in.dst < max) {
        (in.arrayResult ? aDef : sDef)[static_cast<std::size_t>(in.dst)] = 1;
      }
    }
    const auto& roots = t_.rootSlots();
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const SlotRef r = roots[i];
      const std::int32_t max = r.isArray ? nArray() : nScalar();
      if (r.slot < 0 || r.slot >= max) {
        issue(TapeIssueKind::kRootUndefined, -1,
              "root #" + std::to_string(i) + " slot " +
                  std::to_string(r.slot) + " out of range");
        continue;
      }
      const auto& def = r.isArray ? aDef : sDef;
      if (def[static_cast<std::size_t>(r.slot)] == 0) {
        issue(TapeIssueKind::kRootUndefined, -1,
              "root #" + std::to_string(i) + " slot " +
                  std::to_string(r.slot) + " is never defined");
      }
    }
  }

  void checkCones() {
    const DepSets d = computeDepSets(t_);

    // Cone exactness: re-derive the per-variable instruction lists from
    // the recomputed dependency sets and compare with the recorded ones.
    std::vector<std::vector<std::int32_t>> expect(d.vars.size());
    for (std::size_t idx = 0; idx < t_.code().size(); ++idx) {
      const std::uint64_t* bits = d.instrAt(idx);
      for (std::size_t w = 0; w < d.words; ++w) {
        std::uint64_t word = bits[w];
        while (word != 0) {
          const auto bit = static_cast<std::size_t>(__builtin_ctzll(word));
          word &= word - 1;
          expect[w * 64 + bit].push_back(static_cast<std::int32_t>(idx));
        }
      }
    }
    const auto& recorded = t_.cones();
    if (recorded.size() != d.vars.size()) {
      issue(TapeIssueKind::kStaleCone, -1,
            "tape records " + std::to_string(recorded.size()) +
                " cones for " + std::to_string(d.vars.size()) +
                " distinct variables");
    }
    for (std::size_t i = 0; i < d.vars.size(); ++i) {
      const auto* rec = t_.coneOf(d.vars[i]);
      if (rec == nullptr) {
        issue(TapeIssueKind::kStaleCone, -1,
              "no cone recorded for variable id " +
                  std::to_string(d.vars[i]));
        continue;
      }
      if (*rec != expect[i]) {
        issue(TapeIssueKind::kStaleCone, -1,
              "cone of variable id " + std::to_string(d.vars[i]) +
                  " records " + std::to_string(rec->size()) +
                  " instructions, dependency recomputation finds " +
                  std::to_string(expect[i].size()));
      }
    }
  }

  void checkSingleWriter() {
    // Tapes are single-assignment: every slot has at most one writing
    // instruction. The executors, the dirty-cone replay and the static
    // lane typing all rely on it (a second writer would make a cone
    // replay observe the wrong value and a slot's static type ambiguous).
    std::vector<std::int32_t> sWriter(t_.scalarSlotCount(), -1);
    std::vector<std::int32_t> aWriter(t_.arraySlotCount(), -1);
    const auto& code = t_.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      if (isLeafOp(in.op)) continue;  // reported by checkCodeShape
      const std::int32_t max = in.arrayResult ? nArray() : nScalar();
      if (in.dst < 0 || in.dst >= max) continue;
      auto& w = (in.arrayResult ? aWriter : sWriter)[static_cast<std::size_t>(
          in.dst)];
      if (w >= 0) {
        issue(TapeIssueKind::kUnsafeSharing, static_cast<std::int32_t>(i),
              std::string(in.arrayResult ? "array slot " : "slot ") +
                  std::to_string(in.dst) + " already written by instruction " +
                  std::to_string(w) + "; tapes are single-assignment");
        continue;
      }
      w = static_cast<std::int32_t>(i);
    }
  }

  void checkCseDuplicates() {
    // Value numbering: on a single-assignment tape two pure instructions
    // with the same op, type and operand slots compute the same value.
    struct Seen {
      TapeInstr in;
      std::int32_t idx = 0;
    };
    std::unordered_map<std::uint64_t, std::vector<Seen>> buckets;
    const auto& code = t_.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      const TapeInstr& in = code[i];
      if (isLeafOp(in.op)) continue;
      std::uint64_t h = mixBits(static_cast<std::uint64_t>(in.op),
                                static_cast<std::uint64_t>(in.type));
      h = mixBits(h, in.arrayResult ? 1U : 0U);
      for (const std::int32_t x : {in.a, in.b, in.c}) {
        h = mixBits(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)));
      }
      auto& bucket = buckets[h];
      for (const Seen& s : bucket) {
        if (sameTapeComputation(s.in, in)) {
          issue(TapeIssueKind::kCseDuplicate, static_cast<std::int32_t>(i),
                std::string(opName(in.op)) + " duplicates instruction " +
                    std::to_string(s.idx) + " over identical operands");
          break;
        }
      }
      bucket.push_back({in, static_cast<std::int32_t>(i)});
    }
  }

  const Tape& t_;
  TapeVerifyResult result_;
};

}  // namespace

const char* tapeIssueCheckId(TapeIssueKind k) {
  switch (k) {
    case TapeIssueKind::kSlotBounds:
      return "tape-slot-bounds";
    case TapeIssueKind::kUseBeforeDef:
      return "tape-use-before-def";
    case TapeIssueKind::kConstClobbered:
      return "tape-const-clobbered";
    case TapeIssueKind::kTypeMismatch:
      return "tape-type-mismatch";
    case TapeIssueKind::kRootUndefined:
      return "tape-root-undefined";
    case TapeIssueKind::kStaleCone:
      return "tape-stale-cone";
    case TapeIssueKind::kUnsafeSharing:
      return "tape-unsafe-sharing";
    case TapeIssueKind::kCseDuplicate:
      return "tape-cse-duplicate";
  }
  return "tape-unknown";
}

bool tapeIssueIsError(TapeIssueKind k) {
  return k != TapeIssueKind::kCseDuplicate;
}

bool TapeVerifyResult::hasErrors() const {
  for (const TapeIssue& i : issues) {
    if (tapeIssueIsError(i.kind)) return true;
  }
  return false;
}

std::string TapeVerifyResult::render() const {
  std::string out;
  for (const TapeIssue& i : issues) {
    out += tapeIssueCheckId(i.kind);
    if (i.instr >= 0) out += " [#" + std::to_string(i.instr) + "]";
    out += ": " + i.message + "\n";
  }
  return out;
}

TapeStaticTypes analyzeTapeStaticTypes(const Tape& t) {
  // Constants carry their own type, variable slots the binding's
  // coercion type, and instruction results follow from
  // applyUnary/applyBinary; each slot has one writer, so one forward
  // pass fixes every type. The one dynamic case is kSelect over an array
  // without a statically uniform element type (var-bound arrays keep
  // elements uncast).
  TapeStaticTypes st;
  const std::size_t ns = t.scalarSlotCount();
  const std::size_t na = t.arraySlotCount();
  st.scalarType.assign(ns, Type::kInt);
  st.scalarDynamic.assign(ns, 0);
  st.arrayUniform.assign(na, 0);
  st.arrayElemType.assign(na, Type::kInt);

  for (const std::int32_t s : t.constScalarSlots()) {
    if (s < 0 || s >= static_cast<std::int32_t>(ns)) continue;
    st.scalarType[static_cast<std::size_t>(s)] =
        t.scalarInit()[static_cast<std::size_t>(s)].type();
  }
  for (const auto& b : t.varBindings()) {
    if (b.slot < 0 || b.slot >= static_cast<std::int32_t>(ns)) continue;
    st.scalarType[static_cast<std::size_t>(b.slot)] = b.type;
  }
  for (const std::int32_t s : t.constArraySlots()) {
    if (s < 0 || s >= static_cast<std::int32_t>(na)) continue;
    const auto& init = t.arrayInit()[static_cast<std::size_t>(s)];
    if (init.empty()) continue;
    bool uniform = true;
    for (const Scalar& e : init) uniform &= e.type() == init[0].type();
    if (uniform) {
      st.arrayUniform[static_cast<std::size_t>(s)] = 1;
      st.arrayElemType[static_cast<std::size_t>(s)] = init[0].type();
    }
  }

  for (const TapeInstr& in : t.code()) {
    if (in.arrayResult) {
      if (in.dst < 0 || in.dst >= static_cast<std::int32_t>(na)) continue;
      const auto dst = static_cast<std::size_t>(in.dst);
      if (in.op == Op::kStore) {
        const bool srcOk = in.a >= 0 && in.a < static_cast<std::int32_t>(na);
        const auto src = static_cast<std::size_t>(in.a);
        st.arrayUniform[dst] =
            srcOk && st.arrayUniform[src] != 0 &&
                    st.arrayElemType[src] == in.type
                ? 1
                : 0;
        st.arrayElemType[dst] = in.type;
      } else {  // array kIte
        const bool ok = in.b >= 0 && in.b < static_cast<std::int32_t>(na) &&
                        in.c >= 0 && in.c < static_cast<std::int32_t>(na);
        if (ok) {
          const auto tb = static_cast<std::size_t>(in.b);
          const auto fc = static_cast<std::size_t>(in.c);
          st.arrayUniform[dst] =
              st.arrayUniform[tb] != 0 && st.arrayUniform[fc] != 0 &&
                      st.arrayElemType[tb] == st.arrayElemType[fc]
                  ? 1
                  : 0;
          st.arrayElemType[dst] = st.arrayElemType[tb];
        }
      }
      continue;
    }
    if (in.dst < 0 || in.dst >= static_cast<std::int32_t>(ns)) continue;
    const auto dst = static_cast<std::size_t>(in.dst);
    switch (in.op) {
      case Op::kNot:
        st.scalarType[dst] = Type::kBool;
        break;
      case Op::kNeg:
      case Op::kAbs:
        st.scalarType[dst] = in.type == Type::kReal ? Type::kReal : Type::kInt;
        break;
      case Op::kSelect: {
        const bool aOk = in.a >= 0 && in.a < static_cast<std::int32_t>(na);
        if (aOk && st.arrayUniform[static_cast<std::size_t>(in.a)] != 0) {
          st.scalarType[dst] =
              st.arrayElemType[static_cast<std::size_t>(in.a)];
        } else {
          st.scalarDynamic[dst] = 1;
          st.scalarType[dst] = in.type;
        }
        break;
      }
      default:
        st.scalarType[dst] = in.type;
        break;
    }
  }
  return st;
}

TapeVerifyResult verifyTape(const Tape& t) { return Verifier(t).run(); }

void requireVerifiedTape(const Tape& t, const char* what) {
  const TapeVerifyResult r = verifyTape(t);
  for (const TapeIssue& i : r.issues) {
    if (!tapeIssueIsError(i.kind)) continue;
    throw EvalError(std::string(what) + ": tape verification failed: " +
                    tapeIssueCheckId(i.kind) +
                    (i.instr >= 0 ? " [#" + std::to_string(i.instr) + "]"
                                  : std::string()) +
                    ": " + i.message);
  }
}

bool tapeVerifyEnabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool on = util::envFlag("STCG_TAPE_VERIFY", false);
  return on;
#endif
}

void maybeRequireVerifiedTape(const Tape& t, const char* what) {
  if (tapeVerifyEnabled()) requireVerifiedTape(t, what);
}

}  // namespace stcg::expr
