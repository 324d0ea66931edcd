#include "symbolic/polynomial.h"

#include <algorithm>

#include "symbolic/interner.h"

namespace mira::symbolic {

namespace {

bool termBefore(const Polynomial::Term &term, const Monomial &m) {
  return term.first < m;
}

/// Product of two canonical monomials: merge by Symbol, adding exponents.
Monomial mergeMonomials(const Monomial &a, const Monomial &b) {
  Monomial out;
  std::uint32_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].var < b[j].var)) {
      out.push_back(a[i++]);
    } else if (i == a.size() || b[j].var < a[i].var) {
      out.push_back(b[j++]);
    } else {
      out.push_back({a[i].var, a[i].exponent + b[j].exponent});
      ++i;
      ++j;
    }
  }
  return out;
}

/// Splits `m` into the exponent of `var` (0 when absent) and the rest.
int splitOff(const Monomial &m, Symbol var, Monomial &rest) {
  int power = 0;
  rest.clear();
  for (const VarPower &f : m) {
    if (f.var == var)
      power = f.exponent;
    else
      rest.push_back(f);
  }
  return power;
}

} // namespace

Polynomial::Polynomial(Rational constant) {
  if (!constant.isZero())
    terms_.emplace_back(Monomial{}, constant);
}

Polynomial Polynomial::variable(Symbol var) {
  Polynomial p;
  Monomial m;
  m.push_back({var, 1});
  p.terms_.emplace_back(std::move(m), Rational(1));
  return p;
}

bool Polynomial::isConstant() const {
  return terms_.empty() || (terms_.size() == 1 && terms_[0].first.empty());
}

Rational Polynomial::constantValue() const {
  if (terms_.empty())
    return Rational(0);
  return terms_[0].second;
}

int Polynomial::degree() const {
  int d = 0;
  for (const Term &t : terms_) {
    int total = 0;
    for (const VarPower &f : t.first)
      total += f.exponent;
    d = std::max(d, total);
  }
  return d;
}

int Polynomial::degreeIn(Symbol var) const {
  int d = 0;
  for (const Term &t : terms_)
    for (const VarPower &f : t.first)
      if (f.var == var)
        d = std::max(d, f.exponent);
  return d;
}

void Polynomial::addTerm(Monomial m, const Rational &c) {
  if (c.isZero())
    return;
  auto it = std::lower_bound(terms_.begin(), terms_.end(), m, termBefore);
  if (it != terms_.end() && it->first == m) {
    it->second += c;
    if (it->second.isZero())
      terms_.erase(it);
  } else {
    terms_.emplace(it, std::move(m), c);
  }
}

Polynomial Polynomial::merge(const Polynomial &a, const Polynomial &b,
                             bool subtract) {
  Polynomial out;
  std::size_t i = 0, j = 0;
  while (i < a.terms_.size() || j < b.terms_.size()) {
    if (j == b.terms_.size() ||
        (i < a.terms_.size() && a.terms_[i].first < b.terms_[j].first)) {
      out.terms_.push_back(a.terms_[i++]);
    } else if (i == a.terms_.size() ||
               b.terms_[j].first < a.terms_[i].first) {
      const Term &t = b.terms_[j++];
      out.terms_.emplace_back(t.first, subtract ? -t.second : t.second);
    } else {
      Rational c = subtract ? a.terms_[i].second - b.terms_[j].second
                            : a.terms_[i].second + b.terms_[j].second;
      if (!c.isZero())
        out.terms_.emplace_back(a.terms_[i].first, c);
      ++i;
      ++j;
    }
  }
  return out;
}

Polynomial operator+(const Polynomial &a, const Polynomial &b) {
  return Polynomial::merge(a, b, false);
}

Polynomial operator-(const Polynomial &a, const Polynomial &b) {
  return Polynomial::merge(a, b, true);
}

Polynomial Polynomial::operator-() const {
  Polynomial out;
  out.terms_.reserve(terms_.size());
  for (const Term &t : terms_)
    out.terms_.emplace_back(t.first, -t.second);
  return out;
}

Polynomial operator*(const Polynomial &a, const Polynomial &b) {
  Polynomial out;
  if (a.isZero() || b.isZero())
    return out;
  for (const Polynomial::Term &ta : a.terms_)
    for (const Polynomial::Term &tb : b.terms_)
      out.addTerm(mergeMonomials(ta.first, tb.first), ta.second * tb.second);
  return out;
}

Polynomial Polynomial::scaled(const Rational &factor) const {
  Polynomial out;
  if (factor.isZero())
    return out;
  out.terms_.reserve(terms_.size());
  for (const Term &t : terms_)
    out.terms_.emplace_back(t.first, t.second * factor);
  return out;
}

Polynomial Polynomial::pow(int exponent) const {
  Polynomial result{Rational(1)};
  for (int i = 0; i < exponent; ++i)
    result *= *this;
  return result;
}

Polynomial Polynomial::substitute(Symbol var,
                                  const Polynomial &replacement) const {
  Polynomial out;
  std::vector<Polynomial> powers; // powers[e - 1] = replacement^e
  Monomial rest;
  for (const Term &t : terms_) {
    const int e = splitOff(t.first, var, rest);
    if (e == 0) {
      out.addTerm(t.first, t.second);
      continue;
    }
    while (powers.size() < static_cast<std::size_t>(e))
      powers.push_back(powers.empty() ? replacement
                                      : powers.back() * replacement);
    Polynomial piece;
    piece.terms_.emplace_back(rest, t.second);
    out += piece * powers[static_cast<std::size_t>(e) - 1];
  }
  return out;
}

std::vector<Polynomial> Polynomial::coefficientsIn(Symbol var) const {
  std::vector<Polynomial> out(static_cast<std::size_t>(degreeIn(var)) + 1);
  Monomial rest;
  for (const Term &t : terms_) {
    const int power = splitOff(t.first, var, rest);
    out[static_cast<std::size_t>(power)].addTerm(rest, t.second);
  }
  return out;
}

std::optional<Rational>
Polynomial::evaluateRational(const SymbolValues &values) const {
  try {
    Rational acc(0);
    for (const Term &t : terms_) {
      Rational term = t.second;
      for (const VarPower &f : t.first) {
        const auto id = static_cast<std::size_t>(f.var);
        if (id >= values.size() || !values[id])
          return std::nullopt;
        for (int k = 0; k < f.exponent; ++k)
          term *= Rational(*values[id]);
      }
      acc += term;
    }
    return acc;
  } catch (const ArithmeticError &) {
    return std::nullopt;
  }
}

std::optional<std::int64_t>
Polynomial::evaluate(const SymbolValues &values) const {
  auto r = evaluateRational(values);
  if (!r || !r->isInteger())
    return std::nullopt;
  return r->asInteger();
}

Expr Polynomial::toExpr() const {
  if (terms_.empty())
    return Expr::intConst(0);
  // Common denominator.
  std::int64_t lcm = 1;
  for (const Term &t : terms_) {
    std::int64_t d = t.second.den();
    lcm = checkedMul(lcm / gcd64(lcm, d), d);
  }
  // One summand per term, one factor per unit of degree: the few terms
  // and low degrees of loop counts stay inline.
  InlineVector<Expr, 4> sum;
  sum.reserve(terms_.size());
  InlineVector<Expr, 4> factors;
  for (const Term &t : terms_) {
    const Rational &c = t.second;
    factors.clear();
    factors.push_back(Expr::intConst(checkedMul(c.num(), lcm / c.den())));
    for (const VarPower &f : t.first) {
      const Expr v = Expr::param(f.var);
      for (int k = 0; k < f.exponent; ++k)
        factors.push_back(v);
    }
    sum.push_back(Expr::mul(factors.data(), factors.size()));
  }
  Expr numerator = Expr::add(sum.data(), sum.size());
  if (lcm == 1)
    return numerator;
  return Expr::exactDiv(numerator, Expr::intConst(lcm));
}

namespace {
std::optional<Polynomial> polyFromNode(const ExprNode &node,
                                       ExprInterner &interner) {
  switch (node.kind) {
  case ExprKind::IntConst:
    return Polynomial{Rational(node.value)};
  case ExprKind::Param:
    return Polynomial::variable(interner.symbol(node.name));
  case ExprKind::Add: {
    Polynomial acc;
    for (const auto &o : node.operands) {
      auto p = polyFromNode(*o, interner);
      if (!p)
        return std::nullopt;
      acc += *p;
    }
    return acc;
  }
  case ExprKind::Mul: {
    Polynomial acc{Rational(1)};
    for (const auto &o : node.operands) {
      auto p = polyFromNode(*o, interner);
      if (!p)
        return std::nullopt;
      acc *= *p;
    }
    return acc;
  }
  case ExprKind::ExactDiv: {
    auto a = polyFromNode(*node.operands[0], interner);
    auto b = polyFromNode(*node.operands[1], interner);
    if (!a || !b || !b->isConstant() || b->constantValue().isZero())
      return std::nullopt;
    return a->scaled(Rational(1) / b->constantValue());
  }
  default:
    return std::nullopt;
  }
}
} // namespace

std::optional<Polynomial> Polynomial::fromExpr(const Expr &expr) {
  return polyFromNode(expr.node(), ExprInterner::current());
}

std::string Polynomial::str() const {
  if (terms_.empty())
    return "0";
  const ExprInterner &interner = ExprInterner::current();
  std::string out;
  bool first = true;
  for (const Term &t : terms_) {
    if (!first)
      out += " + ";
    first = false;
    out += t.second.str();
    for (const VarPower &f : t.first) {
      out += "*" + interner.name(f.var);
      if (f.exponent > 1)
        out += "^" + std::to_string(f.exponent);
    }
  }
  return out;
}

} // namespace mira::symbolic
