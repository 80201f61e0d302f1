#include "expr/scalar.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/strings.h"

namespace stcg::expr {

const char* typeName(Type t) {
  switch (t) {
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kReal: return "real";
  }
  return "?";
}

Type Scalar::type() const {
  if (std::holds_alternative<bool>(v_)) return Type::kBool;
  if (std::holds_alternative<std::int64_t>(v_)) return Type::kInt;
  return Type::kReal;
}

bool Scalar::asBool() const { return std::get<bool>(v_); }
std::int64_t Scalar::asInt() const { return std::get<std::int64_t>(v_); }
double Scalar::asReal() const { return std::get<double>(v_); }

double Scalar::toReal() const {
  switch (type()) {
    case Type::kBool: return asBool() ? 1.0 : 0.0;
    case Type::kInt: return static_cast<double>(asInt());
    case Type::kReal: return asReal();
  }
  return 0.0;
}

std::int64_t Scalar::toInt() const {
  switch (type()) {
    case Type::kBool: return asBool() ? 1 : 0;
    case Type::kInt: return asInt();
    case Type::kReal: return saturatingRealToInt(asReal());
  }
  return 0;
}

bool Scalar::toBool() const {
  switch (type()) {
    case Type::kBool: return asBool();
    case Type::kInt: return asInt() != 0;
    case Type::kReal: return asReal() != 0.0;
  }
  return false;
}

Scalar Scalar::castTo(Type t) const {
  switch (t) {
    case Type::kBool: return Scalar::b(toBool());
    case Type::kInt: return Scalar::i(toInt());
    case Type::kReal: return Scalar::r(toReal());
  }
  return *this;
}

std::string Scalar::toString() const {
  switch (type()) {
    case Type::kBool: return asBool() ? "true" : "false";
    case Type::kInt: return std::to_string(asInt());
    case Type::kReal: return formatReal(asReal());
  }
  return "?";
}

Value::Value(Type t, std::vector<Scalar> elems)
    : type_(t), elems_(std::move(elems)) {
  for (auto& e : elems_) {
    if (e.type() != t) e = e.castTo(t);
  }
}

Value Value::splat(Scalar fill, int n) {
  return Value(fill.type(), std::vector<Scalar>(static_cast<std::size_t>(n), fill));
}

void Value::set(int i, Scalar s) { elems_.at(i) = s.castTo(type_); }

std::string Value::toString() const {
  if (isScalar()) return elems_[0].toString();
  std::vector<std::string> parts;
  parts.reserve(elems_.size());
  for (const auto& e : elems_) parts.push_back(e.toString());
  return "[" + join(parts, ", ") + "]";
}

}  // namespace stcg::expr
