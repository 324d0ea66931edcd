#include "polyhedral/fourier_motzkin.h"

#include <algorithm>

#include "symbolic/interner.h"
#include "symbolic/rational.h"

namespace mira::polyhedral {

using symbolic::floorDiv;

std::vector<Symbol> ConstraintSystem::variables() const {
  std::vector<Symbol> vars;
  for (const auto &c : constraints_)
    for (const auto &[v, coeff] : c.expr.terms())
      vars.push_back(v);
  // Equal names are equal symbols, so duplicates end up adjacent.
  const symbolic::ExprInterner &interner = symbolic::ExprInterner::current();
  std::sort(vars.begin(), vars.end(), [&](Symbol a, Symbol b) {
    return interner.nameLess(a, b);
  });
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

ConstraintSystem ConstraintSystem::eliminate(Symbol var) const {
  // Partition into lower bounds (coeff > 0: a*var >= -rest), upper bounds
  // (coeff < 0), and constraints not involving var.
  std::vector<AffineConstraint> lowers, uppers;
  ConstraintSystem out;
  for (const auto &c : constraints_) {
    std::int64_t a = c.expr.coeff(var);
    if (a > 0)
      lowers.push_back(c);
    else if (a < 0)
      uppers.push_back(c);
    else
      out.add(c);
  }
  // Combine: from aL*var + rL >= 0 (aL>0) and -aU*var + rU >= 0 (aU>0):
  //   aU*rL + aL*rU >= 0.
  for (const auto &lo : lowers) {
    std::int64_t aL = lo.expr.coeff(var);
    AffineExpr rL = lo.expr.without(var);
    for (const auto &up : uppers) {
      std::int64_t aU = -up.expr.coeff(var);
      AffineExpr rU = up.expr.without(var);
      out.add(AffineConstraint{rL.scaled(aU) + rU.scaled(aL)});
    }
  }
  return out;
}

bool ConstraintSystem::isRationallyEmpty() const {
  ConstraintSystem cur = *this;
  for (Symbol v : variables())
    cur = cur.eliminate(v);
  for (const auto &c : cur.constraints())
    if (c.expr.isConstant() && c.expr.constant() < 0)
      return true;
  return false;
}

ConstraintSystem ConstraintSystem::substituted(Symbol var,
                                               std::int64_t value) const {
  ConstraintSystem out;
  for (const auto &c : constraints_)
    out.add(AffineConstraint{c.expr.substitute(var, AffineExpr(value))});
  return out;
}

std::optional<std::pair<std::int64_t, std::int64_t>>
ConstraintSystem::integerBounds(Symbol var,
                                const SymbolValues &values) const {
  std::optional<std::int64_t> lo, hi;
  for (const auto &c : constraints_) {
    std::int64_t a = c.expr.coeff(var);
    if (a == 0)
      continue;
    auto rest = c.expr.without(var).evaluate(values);
    if (!rest)
      return std::nullopt; // some other variable unbound
    if (a > 0) {
      // a*var + rest >= 0  ->  var >= ceil(-rest / a) = -floor(rest / a)...
      // ceil(-r/a) for integers = floorDiv(-*rest + a - 1, a)
      std::int64_t bound = floorDiv(-*rest + a - 1, a);
      lo = lo ? std::max(*lo, bound) : bound;
    } else {
      // a*var + rest >= 0, a<0  ->  var <= floor(rest / -a)
      std::int64_t bound = floorDiv(*rest, -a);
      hi = hi ? std::min(*hi, bound) : bound;
    }
  }
  if (!lo || !hi)
    return std::nullopt;
  return std::make_pair(*lo, *hi);
}

std::string ConstraintSystem::str() const {
  std::string out;
  for (const auto &c : constraints_) {
    if (!out.empty())
      out += " && ";
    out += c.str();
  }
  return out.empty() ? "true" : out;
}

} // namespace mira::polyhedral
