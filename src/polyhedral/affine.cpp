#include "polyhedral/affine.h"

#include <algorithm>

#include "symbolic/interner.h"
#include "symbolic/rational.h"

namespace mira::polyhedral {

using symbolic::checkedAdd;
using symbolic::checkedMul;
using symbolic::checkedSub;
using symbolic::ExprInterner;
using symbolic::floorMod;
using symbolic::Rational;

AffineExpr AffineExpr::variable(Symbol var, std::int64_t coeff) {
  AffineExpr e;
  if (coeff != 0)
    e.terms_.push_back({var, coeff});
  return e;
}

std::int64_t AffineExpr::coeff(Symbol var) const {
  for (const Term &t : terms_)
    if (t.var == var)
      return t.coeff;
  return 0;
}

AffineExpr AffineExpr::merge(const AffineExpr &a, const AffineExpr &b,
                             bool subtract) {
  AffineExpr out(subtract ? checkedSub(a.constant_, b.constant_)
                          : checkedAdd(a.constant_, b.constant_));
  std::uint32_t i = 0, j = 0;
  while (i < a.terms_.size() || j < b.terms_.size()) {
    if (j == b.terms_.size() ||
        (i < a.terms_.size() && a.terms_[i].var < b.terms_[j].var)) {
      out.terms_.push_back(a.terms_[i++]);
    } else if (i == a.terms_.size() || b.terms_[j].var < a.terms_[i].var) {
      Term t = b.terms_[j++];
      if (subtract)
        t.coeff = checkedSub(0, t.coeff);
      out.terms_.push_back(t);
    } else {
      const std::int64_t c =
          subtract ? checkedSub(a.terms_[i].coeff, b.terms_[j].coeff)
                   : checkedAdd(a.terms_[i].coeff, b.terms_[j].coeff);
      if (c != 0)
        out.terms_.push_back({a.terms_[i].var, c});
      ++i;
      ++j;
    }
  }
  return out;
}

AffineExpr operator+(const AffineExpr &a, const AffineExpr &b) {
  return AffineExpr::merge(a, b, false);
}

AffineExpr operator-(const AffineExpr &a, const AffineExpr &b) {
  return AffineExpr::merge(a, b, true);
}

AffineExpr AffineExpr::operator-() const { return scaled(-1); }

AffineExpr AffineExpr::scaled(std::int64_t factor) const {
  AffineExpr out;
  if (factor == 0)
    return out;
  out.constant_ = checkedMul(constant_, factor);
  for (const Term &t : terms_)
    out.terms_.push_back({t.var, checkedMul(t.coeff, factor)});
  return out;
}

AffineExpr AffineExpr::without(Symbol var) const {
  AffineExpr out = *this;
  for (std::uint32_t i = 0; i < out.terms_.size(); ++i)
    if (out.terms_[i].var == var) {
      out.terms_.erase(out.terms_.begin() + i);
      break;
    }
  return out;
}

AffineExpr AffineExpr::substitute(Symbol var,
                                  const AffineExpr &replacement) const {
  std::int64_t c = coeff(var);
  if (c == 0)
    return *this;
  return without(var) + replacement.scaled(c);
}

std::optional<std::int64_t>
AffineExpr::evaluate(const SymbolValues &values) const {
  try {
    std::int64_t acc = constant_;
    for (const Term &t : terms_) {
      const auto id = static_cast<std::size_t>(t.var);
      if (id >= values.size() || !values[id])
        return std::nullopt;
      acc = checkedAdd(acc, checkedMul(t.coeff, *values[id]));
    }
    return acc;
  } catch (const symbolic::ArithmeticError &) {
    return std::nullopt;
  }
}

Polynomial AffineExpr::toPolynomial() const {
  Polynomial p{Rational(constant_)};
  for (const Term &t : terms_)
    p += Polynomial::variable(t.var).scaled(Rational(t.coeff));
  return p;
}

Expr AffineExpr::toExpr() const {
  // The constant and up to three terms (the inline case) need no heap.
  InlineVector<Expr, 4> terms;
  terms.reserve(terms_.size() + 1);
  if (constant_ != 0)
    terms.push_back(Expr::intConst(constant_));
  for (const Term &t : terms_)
    terms.push_back(Expr::intConst(t.coeff) * Expr::param(t.var));
  if (terms.empty())
    return Expr::intConst(0);
  return Expr::add(terms.data(), terms.size());
}

std::optional<AffineExpr> AffineExpr::fromExpr(const Expr &expr) {
  auto poly = Polynomial::fromExpr(expr);
  if (!poly || poly->degree() > 1)
    return std::nullopt;
  AffineExpr out;
  for (const auto &[mono, c] : poly->terms()) {
    if (!c.isInteger())
      return std::nullopt;
    if (mono.empty())
      out.constant_ = c.asInteger();
    else
      out.terms_.push_back({mono[0].var, c.asInteger()}); // sorted by var
  }
  return out;
}

std::string AffineExpr::str() const {
  const ExprInterner &interner = ExprInterner::current();
  Terms byName = terms_;
  std::sort(byName.begin(), byName.end(), [&](const Term &a, const Term &b) {
    return interner.nameLess(a.var, b.var);
  });
  std::string out;
  bool first = true;
  for (const Term &t : byName) {
    if (!first)
      out += " + ";
    first = false;
    if (t.coeff == 1)
      out += interner.name(t.var);
    else
      out += std::to_string(t.coeff) + "*" + interner.name(t.var);
  }
  if (constant_ != 0 || first) {
    if (!first)
      out += " + ";
    out += std::to_string(constant_);
  }
  return out;
}

const char *toString(CmpRel rel) {
  switch (rel) {
  case CmpRel::LT:
    return "<";
  case CmpRel::LE:
    return "<=";
  case CmpRel::GT:
    return ">";
  case CmpRel::GE:
    return ">=";
  case CmpRel::EQ:
    return "==";
  case CmpRel::NE:
    return "!=";
  }
  return "?";
}

std::vector<AffineConstraint> AffineConstraint::make(const AffineExpr &lhs,
                                                     CmpRel rel,
                                                     const AffineExpr &rhs) {
  // Normalize everything to expr >= 0 over integers:
  //   a <  b  ->  b - a - 1 >= 0
  //   a <= b  ->  b - a     >= 0
  //   a >  b  ->  a - b - 1 >= 0
  //   a >= b  ->  a - b     >= 0
  //   a == b  ->  both a - b >= 0 and b - a >= 0
  switch (rel) {
  case CmpRel::LT:
    return {AffineConstraint{rhs - lhs - AffineExpr(1)}};
  case CmpRel::LE:
    return {AffineConstraint{rhs - lhs}};
  case CmpRel::GT:
    return {AffineConstraint{lhs - rhs - AffineExpr(1)}};
  case CmpRel::GE:
    return {AffineConstraint{lhs - rhs}};
  case CmpRel::EQ:
    return {AffineConstraint{lhs - rhs}, AffineConstraint{rhs - lhs}};
  case CmpRel::NE:
    return {}; // not affine-representable; see Congruence
  }
  return {};
}

std::optional<bool>
AffineConstraint::holds(const SymbolValues &values) const {
  auto v = expr.evaluate(values);
  if (!v)
    return std::nullopt;
  return *v >= 0;
}

std::string AffineConstraint::str() const { return expr.str() + " >= 0"; }

std::optional<bool> Congruence::holds(const SymbolValues &values) const {
  auto v = expr.evaluate(values);
  if (!v || modulus == 0)
    return std::nullopt;
  bool zero = floorMod(*v, modulus) == 0;
  return negated ? !zero : zero;
}

std::string Congruence::str() const {
  return expr.str() + " % " + std::to_string(modulus) +
         (negated ? " != 0" : " == 0");
}

} // namespace mira::polyhedral
