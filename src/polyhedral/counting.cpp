#include "polyhedral/counting.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "symbolic/interner.h"
#include "symbolic/summation.h"

namespace mira::polyhedral {

using symbolic::ExprInterner;
using symbolic::Polynomial;
using symbolic::Rational;
using symbolic::sumOverRange;

namespace {

const std::string &nameOf(Symbol symbol) {
  return ExprInterner::current().name(symbol);
}

} // namespace

LoopLevel LoopLevel::make(Symbol var, AffineExpr lb, AffineExpr ub,
                          std::int64_t step) {
  LoopLevel l;
  l.var = var;
  l.lowerBounds.push_back(std::move(lb));
  l.upperBounds.push_back(std::move(ub));
  l.step = step;
  return l;
}

IterationDomain IterationDomain::withGuard(const AffineConstraint &guard) const {
  IterationDomain d = *this;
  d.guards.push_back(guard);
  return d;
}

IterationDomain IterationDomain::withCongruence(
    const Congruence &congruence) const {
  IterationDomain d = *this;
  d.congruences.push_back(congruence);
  return d;
}

std::string IterationDomain::str() const {
  std::string out;
  for (const auto &l : levels) {
    out += "for " + nameOf(l.var) + " in [";
    for (std::size_t i = 0; i < l.lowerBounds.size(); ++i)
      out += (i ? " ,max " : "") + l.lowerBounds[i].str();
    out += " .. ";
    for (std::size_t i = 0; i < l.upperBounds.size(); ++i)
      out += (i ? " ,min " : "") + l.upperBounds[i].str();
    out += "]";
    if (l.step != 1)
      out += " step " + std::to_string(l.step);
    out += "; ";
  }
  for (const auto &g : guards)
    out += "if " + g.str() + "; ";
  for (const auto &c : congruences)
    out += "if " + c.str() + "; ";
  return out;
}

const char *toString(CountMethod method) {
  switch (method) {
  case CountMethod::Enumeration:
    return "enumeration";
  case CountMethod::ClosedForm:
    return "closed-form";
  case CountMethod::LazySum:
    return "lazy-sum";
  }
  return "?";
}

Expr countCongruentInRange(const Expr &lo, const Expr &hi, const Expr &target,
                           std::int64_t modulus) {
  // #{ v in [lo, hi] : v ≡ target (mod m) }
  //   = floor((hi - target)/m) - floor((lo - 1 - target)/m)
  Expr m = Expr::intConst(modulus);
  Expr upper = Expr::floorDiv(hi - target, m);
  Expr lower = Expr::floorDiv(lo - Expr::intConst(1) - target, m);
  return upper - lower;
}

namespace {

/// Fold affine guards into the bounds of the innermost loop variable they
/// mention (when that variable's coefficient is ±1). Returns the residual
/// guards that could not be folded.
std::vector<AffineConstraint>
foldGuards(std::vector<LoopLevel> &levels,
           const std::vector<AffineConstraint> &guards) {
  std::vector<AffineConstraint> residual;
  for (const AffineConstraint &g : guards) {
    bool folded = false;
    // Walk innermost -> outermost.
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
      std::int64_t a = g.expr.coeff(it->var);
      if (a == 0)
        continue;
      if (a == 1) {
        // var + rest >= 0  ->  var >= -rest
        it->lowerBounds.push_back(-g.expr.without(it->var));
        folded = true;
      } else if (a == -1) {
        // -var + rest >= 0  ->  var <= rest
        it->upperBounds.push_back(g.expr.without(it->var));
        folded = true;
      }
      break; // only the innermost involved variable is considered
    }
    if (!folded)
      residual.push_back(g);
  }
  return residual;
}

struct BoundExprs {
  Expr lo; // max of lower bounds
  Expr hi; // min of upper bounds
  bool single = false;
  AffineExpr loAffine; // valid when single
  AffineExpr hiAffine;
};

BoundExprs boundsOf(const LoopLevel &level) {
  BoundExprs b;
  assert(!level.lowerBounds.empty() && !level.upperBounds.empty());
  b.lo = level.lowerBounds[0].toExpr();
  for (std::size_t i = 1; i < level.lowerBounds.size(); ++i)
    b.lo = Expr::max(b.lo, level.lowerBounds[i].toExpr());
  b.hi = level.upperBounds[0].toExpr();
  for (std::size_t i = 1; i < level.upperBounds.size(); ++i)
    b.hi = Expr::min(b.hi, level.upperBounds[i].toExpr());
  b.single =
      level.lowerBounds.size() == 1 && level.upperBounds.size() == 1;
  if (b.single) {
    b.loAffine = level.lowerBounds[0];
    b.hiAffine = level.upperBounds[0];
  }
  return b;
}

/// Values of the innermost variable `var` in [ib.lo, ib.hi] that satisfy
/// the one congruence `c` on it (coefficient ±1): the class count for
/// ==, its complement in the range for != (paper Fig. 4c).
Expr countCongruenceGuard(const BoundExprs &ib, const Congruence &c,
                          Symbol var) {
  // a*v + rest ≡ 0 (mod m)  ->  v ≡ -a*rest (mod m) since a = ±1
  // (a==1: v ≡ -rest; a==-1: v ≡ rest).
  AffineExpr rest = c.expr.without(var);
  Expr target = c.expr.coeff(var) == 1 ? (-rest).toExpr() : rest.toExpr();
  Expr eqCount = countCongruentInRange(ib.lo, ib.hi, target, c.modulus);
  // Built for == too: the interning order of every count stays fixed.
  Expr all = ib.hi - ib.lo + Expr::intConst(1);
  return c.negated ? (all - eqCount) : eqCount;
}

/// Deduplicate bounds lists (guards may re-add an existing bound).
void dedupeBounds(LoopLevel &level) {
  auto dedupe = [](LoopLevel::Bounds &bounds) {
    LoopLevel::Bounds out;
    for (const auto &b : bounds) {
      bool dup = false;
      for (const auto &o : out)
        if (o == b)
          dup = true;
      if (!dup)
        out.push_back(b);
    }
    bounds = std::move(out);
  };
  dedupe(level.lowerBounds);
  dedupe(level.upperBounds);
}

/// True when a bound, guard or congruence mentions a symbol that is not
/// one of the domain's loop variables.
bool hasParameters(const IterationDomain &domain) {
  auto isLoopVar = [&](Symbol s) {
    for (const LoopLevel &l : domain.levels)
      if (l.var == s)
        return true;
    return false;
  };
  auto mentionsParameter = [&](const AffineExpr &e) {
    for (const AffineExpr::Term &t : e.terms())
      if (!isLoopVar(t.var))
        return true;
    return false;
  };
  for (const LoopLevel &l : domain.levels) {
    for (const AffineExpr &b : l.lowerBounds)
      if (mentionsParameter(b))
        return true;
    for (const AffineExpr &b : l.upperBounds)
      if (mentionsParameter(b))
        return true;
  }
  for (const AffineConstraint &g : domain.guards)
    if (mentionsParameter(g.expr))
      return true;
  for (const Congruence &c : domain.congruences)
    if (mentionsParameter(c.expr))
      return true;
  return false;
}

/// Walks the nest point by point, binding each loop variable in turn;
/// nullopt once more than `budget` points are visited, or when a bound,
/// guard or congruence cannot be evaluated.
class Enumerator {
public:
  Enumerator(const std::vector<LoopLevel> &levels,
             const std::vector<AffineConstraint> &guards,
             const std::vector<Congruence> &congruences, SymbolValues values,
             std::int64_t budget)
      : levels_(levels), guards_(guards), congruences_(congruences),
        values_(std::move(values)), budget_(budget) {}

  std::optional<std::int64_t> walk(std::size_t depth) {
    if (--budget_ < 0)
      return std::nullopt;
    if (depth == levels_.size()) {
      for (const auto &g : guards_) {
        auto h = g.holds(values_);
        if (!h)
          return std::nullopt;
        if (!*h)
          return 0;
      }
      for (const auto &c : congruences_) {
        auto h = c.holds(values_);
        if (!h)
          return std::nullopt;
        if (!*h)
          return 0;
      }
      return 1;
    }
    const LoopLevel &level = levels_[depth];
    std::optional<std::int64_t> lo, hi;
    for (const auto &b : level.lowerBounds) {
      auto v = b.evaluate(values_);
      if (!v)
        return std::nullopt;
      lo = lo ? std::max(*lo, *v) : *v;
    }
    for (const auto &b : level.upperBounds) {
      auto v = b.evaluate(values_);
      if (!v)
        return std::nullopt;
      hi = hi ? std::min(*hi, *v) : *v;
    }
    if (!lo || !hi)
      return std::nullopt;
    // Every point costs a unit of budget, so a range with more points
    // than the budget has left fails without being walked. hi >= lo, so
    // the unsigned difference is exact.
    const auto step = static_cast<std::uint64_t>(level.step);
    if (*lo <= *hi && (static_cast<std::uint64_t>(*hi) -
                       static_cast<std::uint64_t>(*lo)) /
                              step >=
                          static_cast<std::uint64_t>(budget_))
      return std::nullopt;
    const auto id = static_cast<std::size_t>(level.var);
    if (values_.size() <= id)
      values_.resize(id + 1);
    std::int64_t total = 0;
    for (std::int64_t v = *lo; v <= *hi; v += level.step) {
      values_[id] = v;
      auto inner = walk(depth + 1);
      if (!inner)
        return std::nullopt;
      total += *inner;
      // Stop when the next step would pass hi, without computing a
      // value past INT64_MAX.
      if (static_cast<std::uint64_t>(*hi) - static_cast<std::uint64_t>(v) <
          step)
        break;
    }
    values_[id].reset();
    return total;
  }

private:
  const std::vector<LoopLevel> &levels_;
  const std::vector<AffineConstraint> &guards_;
  const std::vector<Congruence> &congruences_;
  SymbolValues values_;
  std::int64_t budget_;
};

} // namespace

std::optional<std::int64_t> enumerateDomain(const IterationDomain &domain,
                                            const symbolic::Env &env) {
  return Enumerator(domain.levels, domain.guards, domain.congruences,
                    ExprInterner::current().values(env),
                    std::numeric_limits<std::int64_t>::max())
      .walk(0);
}

namespace {

/// Closed-form count over guard-folded `levels`: Faulhaber summation when
/// every level has a single bound pair, unit steps (except possibly the
/// innermost) and no inner range that can be empty, congruences only on
/// the innermost variable. nullopt when the domain does not qualify.
/// `result` carries the notes gathered so far. Throws ArithmeticError when
/// a coefficient overflows int64.
std::optional<CountResult> closedForm(const std::vector<LoopLevel> &levels,
                                      const std::vector<Congruence> &congruences,
                                      CountResult result) {
  for (std::size_t d = 0; d < levels.size(); ++d) {
    const LoopLevel &l = levels[d];
    if (l.lowerBounds.size() != 1 || l.upperBounds.size() != 1)
      return std::nullopt;
    if (l.step != 1 && d + 1 != levels.size())
      return std::nullopt;
  }

  // Degenerate-range check: the closed form F(hi) - F(lo-1) over-subtracts
  // if an inner range can be empty for some outer point of the domain
  // (e.g. j in [i+1, 6] with i reaching beyond 5). Prove non-emptiness
  // with Fourier-Motzkin: the outer bounds plus "level d empty"
  // (lb_d > ub_d) must be infeasible for every non-outermost level.
  // Parameters are treated as free variables, which is conservative.
  ConstraintSystem outer;
  for (std::size_t d = 0; d < levels.size(); ++d) {
    const LoopLevel &l = levels[d];
    if (d > 0) {
      AffineExpr emptyCond =
          l.lowerBounds[0] - l.upperBounds[0] - AffineExpr(1);
      bool dependsOnOuter = false;
      for (std::size_t o = 0; o < d; ++o)
        if (emptyCond.involves(levels[o].var))
          dependsOnOuter = true;
      if (dependsOnOuter) {
        ConstraintSystem probe = outer;
        probe.add(AffineConstraint{emptyCond}); // empty range reachable?
        if (!probe.isRationallyEmpty())
          return std::nullopt; // fall back to the clamped lazy path
      }
      // Emptiness uniform in the loop variables (parameters only, e.g.
      // M <= 0 for a rectangle) is tolerated: the paper's models assume
      // parameters describe non-degenerate problem sizes, and the
      // top-level clamp handles the all-empty case.
    }
    AffineExpr v = AffineExpr::variable(l.var);
    outer.add(AffineConstraint{v - l.lowerBounds[0]});
    outer.add(AffineConstraint{l.upperBounds[0] - v});
  }
  const LoopLevel &inner = levels.back();
  for (const auto &c : congruences) {
    for (std::size_t d = 0; d + 1 < levels.size(); ++d)
      if (c.expr.involves(levels[d].var))
        return std::nullopt;
    std::int64_t a = c.expr.coeff(inner.var);
    if (a != 1 && a != -1)
      return std::nullopt;
    if (c.modulus <= 0)
      return std::nullopt;
  }

  BoundExprs ib = boundsOf(inner);
  if (congruences.empty() && inner.step == 1) {
    // Innermost count as a polynomial, summed outward level by level
    // (Faulhaber).
    Polynomial acc = ib.hiAffine.toPolynomial() -
                     ib.loAffine.toPolynomial() + Polynomial{Rational(1)};
    for (std::size_t d = levels.size() - 1; d-- > 0;) {
      const LoopLevel &l = levels[d];
      acc = sumOverRange(acc, l.var, l.lowerBounds[0].toPolynomial(),
                         l.upperBounds[0].toPolynomial());
    }
    // Clamp at zero so an empty outermost range (e.g. N = 0) does not
    // yield a negative count. (Inner levels were proven non-empty
    // above; see the summation.h domain note.)
    Expr poly = acc.toExpr();
    result.count = poly.isIntConst() || acc.degree() == 0
                       ? poly
                       : Expr::max(Expr::intConst(0), poly);
    result.method = CountMethod::ClosedForm;
    return result;
  }

  Expr innerCount;
  if (congruences.empty()) {
    // step > 1: floor((ub - lb)/step) + 1
    innerCount =
        Expr::floorDiv(ib.hi - ib.lo, Expr::intConst(inner.step)) +
        Expr::intConst(1);
  } else {
    // Congruences on the innermost variable. Intersect: count values in
    // [lb, ub] in the EQ class; apply the complement rule for NE
    // (paper Fig. 4c). Multiple congruences compose by inclusion-
    // exclusion only in the single-congruence practical case; with more
    // than one, fall back to a lazy sum.
    if (congruences.size() != 1 || inner.step != 1)
      return std::nullopt;
    const Congruence &c = congruences[0];
    innerCount = countCongruenceGuard(ib, c, inner.var);
    if (c.negated) {
      result.note = "congruence guard handled by complement rule: "
                    "count(true) = count(loop) - count(false)";
    }
  }
  // Innermost is a floor-expression: wrap outer levels as lazy sums.
  Expr acc = innerCount;
  for (std::size_t d = levels.size() - 1; d-- > 0;) {
    const LoopLevel &l = levels[d];
    acc = Expr::sum(nameOf(l.var), l.lowerBounds[0].toExpr(),
                    l.upperBounds[0].toExpr(), acc);
  }
  result.count = acc;
  result.method =
      levels.size() == 1 ? CountMethod::ClosedForm : CountMethod::LazySum;
  return result;
}

CountResult countDomain(const IterationDomain &domain) {
  CountResult result;

  if (domain.levels.empty()) {
    result.count = Expr::intConst(1);
    result.method = CountMethod::ClosedForm;
    return result;
  }
  for (const auto &l : domain.levels) {
    if (l.lowerBounds.empty() || l.upperBounds.empty()) {
      result.requiresAnnotation = true;
      result.note = "loop variable '" + nameOf(l.var) + "' has missing bounds";
      result.count = Expr::intConst(0);
      return result;
    }
    if (l.step <= 0) {
      result.requiresAnnotation = true;
      result.note =
          "loop variable '" + nameOf(l.var) + "' has non-positive step";
      result.count = Expr::intConst(0);
      return result;
    }
  }

  std::vector<LoopLevel> levels = domain.levels;
  std::vector<AffineConstraint> residual = foldGuards(levels, domain.guards);
  for (auto &l : levels)
    dedupeBounds(l);

  // Residual guards mentioning only parameters cannot be decided
  // statically; the paper's answer is a user annotation.
  for (const auto &g : residual) {
    bool mentionsLoopVar = false;
    for (const auto &l : levels)
      if (g.expr.involves(l.var))
        mentionsLoopVar = true;
    if (!mentionsLoopVar) {
      result.exact = false;
      result.note = "guard '" + g.str() +
                    "' depends only on parameters; treated as true "
                    "(annotation recommended)";
    }
  }

  // Fully numeric domain: walk it exactly (handles min/max bounds,
  // congruences, residual guards — paper Fig. 4 cases). A point budget
  // protects against walking huge constant-bound nests; those fall
  // through to the symbolic paths below.
  if (!hasParameters(domain)) {
    auto n = Enumerator(levels, residual, domain.congruences, {}, 20'000'000)
                 .walk(0);
    if (n) {
      result.count = Expr::intConst(*n);
      result.method = CountMethod::Enumeration;
      return result;
    }
  }

  // A strided innermost level does not compose with congruence guards or
  // extra (guard-folded) bounds: the surviving lattice points are an
  // arithmetic-progression/congruence intersection (CRT), which this
  // counter does not implement symbolically. Fully numeric domains were
  // already enumerated above; parametric ones need an annotation.
  {
    const LoopLevel &inner = levels.back();
    if (inner.step != 1 &&
        (!domain.congruences.empty() || inner.lowerBounds.size() > 1 ||
         inner.upperBounds.size() > 1)) {
      result.requiresAnnotation = true;
      result.note = "strided loop variable '" + nameOf(inner.var) +
                    "' combined with guards; annotate the loop/branch";
      result.count = Expr::intConst(0);
      return result;
    }
  }

  // Non-foldable residual guards involving loop variables block the
  // symbolic paths.
  for (const auto &g : residual) {
    for (const auto &l : levels) {
      if (g.expr.involves(l.var)) {
        result.requiresAnnotation = true;
        result.note = "guard '" + g.str() +
                      "' has a non-unit loop-variable coefficient; "
                      "annotate the branch";
        result.count = Expr::intConst(0);
        return result;
      }
    }
  }

  try {
    if (auto closed = closedForm(levels, domain.congruences, result))
      return std::move(*closed);
  } catch (const symbolic::ArithmeticError &) {
    // A coefficient of the closed form overflows int64: count with the
    // lazy sums below, whose Expr builders never throw.
  }

  // General fallback: nested lazy sums over [max(lbs), min(ubs)] with a
  // clamped innermost span and congruence factors where expressible.
  const LoopLevel &inner = levels.back();
  if (!domain.congruences.empty()) {
    bool innerOnly = true;
    for (const auto &c : domain.congruences) {
      for (std::size_t d = 0; d + 1 < levels.size(); ++d)
        if (c.expr.involves(levels[d].var))
          innerOnly = false;
      std::int64_t a = c.expr.coeff(inner.var);
      if (a != 1 && a != -1)
        innerOnly = false;
    }
    if (!innerOnly || domain.congruences.size() > 1) {
      result.requiresAnnotation = true;
      result.note = "congruence guards too complex for static counting; "
                    "annotate the branch";
      result.count = Expr::intConst(0);
      return result;
    }
  }

  BoundExprs ib = boundsOf(inner);
  Expr innerSpan;
  if (domain.congruences.empty()) {
    Expr raw;
    if (inner.step == 1)
      raw = ib.hi - ib.lo + Expr::intConst(1);
    else
      raw = Expr::floorDiv(ib.hi - ib.lo, Expr::intConst(inner.step)) +
            Expr::intConst(1);
    innerSpan = Expr::max(Expr::intConst(0), raw);
  } else {
    Expr raw = countCongruenceGuard(ib, domain.congruences[0], inner.var);
    innerSpan = Expr::max(Expr::intConst(0), raw);
  }

  Expr acc = innerSpan;
  for (std::size_t d = levels.size() - 1; d-- > 0;) {
    const LoopLevel &l = levels[d];
    BoundExprs b = boundsOf(l);
    const std::string &var = nameOf(l.var);
    if (l.step == 1) {
      acc = Expr::sum(var, b.lo, b.hi, acc);
    } else {
      // Strided level: substitute var = lo + step*k and sum k over
      // [0, floor((hi - lo) / step)]. (Negative spans make the range
      // empty via Sum's hi < lo semantics.)
      std::string k = var + "__step";
      Expr kvar = Expr::param(k);
      Expr substituted =
          acc.substitute(var, b.lo + Expr::intConst(l.step) * kvar);
      Expr hiK = Expr::floorDiv(b.hi - b.lo, Expr::intConst(l.step));
      acc = Expr::sum(k, Expr::intConst(0), hiK, substituted);
    }
  }
  result.count = acc;
  result.method = CountMethod::LazySum;
  return result;
}

} // namespace

CountResult countIterations(const IterationDomain &domain) {
  try {
    return countDomain(domain);
  } catch (const symbolic::ArithmeticError &) {
    // Folding a guard or placing a congruence overflowed int64: no
    // symbolic path is left, so ask for an annotation.
    CountResult result;
    result.requiresAnnotation = true;
    result.note = "affine bounds overflow int64; annotate the loop/branch";
    result.count = Expr::intConst(0);
    return result;
  }
}

} // namespace mira::polyhedral
