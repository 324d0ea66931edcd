#include "symbolic/expr.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "symbolic/interner.h"

namespace mira::symbolic {

namespace {

/// All builders construct through the calling thread's interner, so one
/// canonical node exists per structure and every node carries its
/// precomputed hash and ordering key.
ExprNodeRef internNode(ExprKind kind, std::int64_t value, std::string name,
                       std::vector<ExprNodeRef> operands) {
  return ExprInterner::current().intern(kind, value, std::move(name),
                                        std::move(operands));
}

ExprNodeRef makeConst(std::int64_t v) {
  return internNode(ExprKind::IntConst, v, {}, {});
}

bool isConst(const ExprNodeRef &n, std::int64_t v) {
  return n->kind == ExprKind::IntConst && n->value == v;
}

/// Canonical ordering for commutative operand lists: the interner caches
/// the historical string key on every node, so comparison is a string
/// compare, never a subtree walk.
bool keyLess(const ExprNodeRef &a, const ExprNodeRef &b) {
  return a->key < b->key;
}

} // namespace

Expr::Expr() : node_(makeConst(0)) {}

Expr Expr::intConst(std::int64_t value) { return Expr(makeConst(value)); }

Expr Expr::param(std::string name) {
  return Expr(internNode(ExprKind::Param, 0, std::move(name), {}));
}

Expr Expr::add(std::vector<Expr> operands) {
  ExprInterner &interner = ExprInterner::current();
  std::vector<ExprNodeRef> flat;
  std::int64_t constant = 0;
  // Absorbed nodes are canonicalized into the current interner so the
  // like-term merge below can key on node identity.
  std::function<void(const ExprNodeRef &)> absorb =
      [&](const ExprNodeRef &n) {
        if (n->kind == ExprKind::IntConst) {
          try {
            constant = checkedAdd(constant, n->value);
          } catch (const ArithmeticError &) {
            // Folding would overflow int64; keep the constant symbolic.
            // evaluate() reports the overflow as nullopt at use time —
            // construction itself must not throw.
            flat.push_back(interner.reintern(n));
          }
        } else if (n->kind == ExprKind::Add) {
          for (const auto &o : n->operands)
            absorb(o);
        } else {
          flat.push_back(interner.reintern(n));
        }
      };
  for (const Expr &e : operands)
    absorb(e.node_);

  // Combine like terms: each term is (coeff, residual factors). Terms are
  // either Param/other nodes (coeff 1) or Mul nodes with a leading const.
  // Factors are canonical nodes in the current interner, so "same
  // residual" is pointer-vector equality — no string keys, and no false
  // merges when param names contain key metacharacters.
  struct Term {
    std::int64_t coeff;
    std::vector<ExprNodeRef> factors; // non-const factors, sorted
  };
  std::vector<Term> terms;
  for (const auto &n : flat) {
    Term t;
    t.coeff = 1;
    if (n->kind == ExprKind::Mul) {
      for (const auto &f : n->operands) {
        if (f->kind == ExprKind::IntConst) {
          try {
            t.coeff = checkedMul(t.coeff, f->value);
          } catch (const ArithmeticError &) {
            t.factors.push_back(f); // overflow: keep the const as a factor
          }
        } else {
          t.factors.push_back(f);
        }
      }
    } else {
      t.factors.push_back(n);
    }
    bool merged = false;
    for (Term &prev : terms) {
      if (prev.factors == t.factors) {
        try {
          prev.coeff = checkedAdd(prev.coeff, t.coeff);
          merged = true;
        } catch (const ArithmeticError &) {
          // Coefficient sum overflows; keep the terms separate.
        }
        break;
      }
    }
    if (!merged)
      terms.push_back(std::move(t));
  }

  std::vector<ExprNodeRef> result;
  for (Term &t : terms) {
    if (t.coeff == 0)
      continue;
    if (t.coeff == 1 && t.factors.size() == 1) {
      result.push_back(t.factors[0]);
    } else {
      std::vector<Expr> factors;
      if (t.coeff != 1)
        factors.push_back(Expr::intConst(t.coeff));
      for (auto &f : t.factors)
        factors.push_back(Expr(f));
      result.push_back(Expr::mul(std::move(factors)).node_);
    }
  }

  std::sort(result.begin(), result.end(), keyLess);
  if (constant != 0 || result.empty())
    result.push_back(makeConst(constant));
  if (result.size() == 1)
    return Expr(result[0]);
  return Expr(internNode(ExprKind::Add, 0, {}, std::move(result)));
}

Expr Expr::mul(std::vector<Expr> operands) {
  ExprInterner &interner = ExprInterner::current();
  std::vector<ExprNodeRef> flat;
  std::int64_t constant = 1;
  std::function<void(const ExprNodeRef &)> absorb =
      [&](const ExprNodeRef &n) {
        if (n->kind == ExprKind::IntConst) {
          try {
            constant = checkedMul(constant, n->value);
          } catch (const ArithmeticError &) {
            flat.push_back(interner.reintern(n));
          }
        } else if (n->kind == ExprKind::Mul) {
          for (const auto &o : n->operands)
            absorb(o);
        } else {
          flat.push_back(interner.reintern(n));
        }
      };
  for (const Expr &e : operands)
    absorb(e.node_);

  if (constant == 0)
    return Expr::intConst(0);

  std::sort(flat.begin(), flat.end(), keyLess);
  std::vector<ExprNodeRef> result;
  if (constant != 1 || flat.empty())
    result.push_back(makeConst(constant));
  result.insert(result.end(), flat.begin(), flat.end());
  if (result.size() == 1)
    return Expr(result[0]);
  return Expr(internNode(ExprKind::Mul, 0, {}, std::move(result)));
}

Expr Expr::floorDiv(Expr a, Expr b) {
  if (b.node_->kind == ExprKind::IntConst &&
      a.node_->kind == ExprKind::IntConst) {
    try {
      return Expr::intConst(
          mira::symbolic::floorDiv(a.node_->value, b.node_->value));
    } catch (const ArithmeticError &) {
      // Zero divisor (or INT64_MIN / -1): the fold is undefined, but
      // construction must not throw — build the symbolic node and let
      // evaluate() report nullopt, per its documented contract.
    }
  }
  if (isConst(b.node_, 1))
    return a;
  return Expr(internNode(ExprKind::FloorDiv, 0, {}, {a.node_, b.node_}));
}

Expr Expr::exactDiv(Expr a, Expr b) {
  if (b.node_->kind == ExprKind::IntConst &&
      a.node_->kind == ExprKind::IntConst && b.node_->value != 0 &&
      !(a.node_->value == std::numeric_limits<std::int64_t>::min() &&
        b.node_->value == -1) &&
      a.node_->value % b.node_->value == 0)
    return Expr::intConst(a.node_->value / b.node_->value);
  if (isConst(b.node_, 1))
    return a;
  return Expr(internNode(ExprKind::ExactDiv, 0, {}, {a.node_, b.node_}));
}

Expr Expr::mod(Expr a, Expr b) {
  if (a.node_->kind == ExprKind::IntConst &&
      b.node_->kind == ExprKind::IntConst) {
    try {
      return Expr::intConst(floorMod(a.node_->value, b.node_->value));
    } catch (const ArithmeticError &) {
      // Zero divisor: keep the node symbolic; see floorDiv.
    }
  }
  return Expr(internNode(ExprKind::Mod, 0, {}, {a.node_, b.node_}));
}

Expr Expr::min(Expr a, Expr b) {
  if (a.equals(b))
    return a;
  if (a.node_->kind == ExprKind::IntConst && b.node_->kind == ExprKind::IntConst)
    return Expr::intConst(std::min(a.node_->value, b.node_->value));
  return Expr(internNode(ExprKind::Min, 0, {}, {a.node_, b.node_}));
}

Expr Expr::max(Expr a, Expr b) {
  if (a.equals(b))
    return a;
  if (a.node_->kind == ExprKind::IntConst && b.node_->kind == ExprKind::IntConst)
    return Expr::intConst(std::max(a.node_->value, b.node_->value));
  return Expr(internNode(ExprKind::Max, 0, {}, {a.node_, b.node_}));
}

Expr Expr::sum(std::string var, Expr lo, Expr hi, Expr body) {
  // Fully constant range with constant body folds immediately.
  if (lo.isIntConst() && hi.isIntConst()) {
    std::int64_t l = *lo.constValue();
    std::int64_t h = *hi.constValue();
    if (h < l)
      return Expr::intConst(0);
    if (body.isIntConst()) {
      try {
        return Expr::intConst(
            checkedMul(checkedAdd(checkedSub(h, l), 1), *body.constValue()));
      } catch (const ArithmeticError &) {
        // Count or product overflows int64: keep the Sum symbolic.
      }
    }
  }
  return Expr(internNode(ExprKind::Sum, 0, std::move(var),
                         {lo.node_, hi.node_, body.node_}));
}

Expr Expr::fromNode(ExprNodeRef node) {
  if (!node)
    return Expr();
  // Structure-preserving: reintern never reorders or rewrites, it only
  // replaces each subtree with the interner's canonical copy (itself,
  // when the interner already owns it), so serialized bytes cannot drift.
  return Expr(ExprInterner::current().reintern(node));
}

Expr operator+(const Expr &a, const Expr &b) { return Expr::add({a, b}); }
Expr operator-(const Expr &a, const Expr &b) {
  return Expr::add({a, Expr::mul({Expr::intConst(-1), b})});
}
Expr operator*(const Expr &a, const Expr &b) { return Expr::mul({a, b}); }
Expr Expr::operator-() const {
  return Expr::mul({Expr::intConst(-1), *this});
}

ExprKind Expr::kind() const { return node_->kind; }

bool Expr::isIntConst() const { return node_->kind == ExprKind::IntConst; }

bool Expr::isIntConst(std::int64_t value) const {
  return isIntConst() && node_->value == value;
}

std::optional<std::int64_t> Expr::constValue() const {
  if (isIntConst())
    return node_->value;
  return std::nullopt;
}

std::set<std::string> Expr::parameters() const {
  std::set<std::string> out;
  std::function<void(const ExprNodeRef &, std::set<std::string> &)> walk =
      [&](const ExprNodeRef &n, std::set<std::string> &bound) {
        if (n->kind == ExprKind::Param) {
          if (!bound.count(n->name))
            out.insert(n->name);
          return;
        }
        if (n->kind == ExprKind::Sum) {
          // lo/hi are in the outer scope; the body binds n->name.
          walk(n->operands[0], bound);
          walk(n->operands[1], bound);
          std::set<std::string> inner = bound;
          inner.insert(n->name);
          walk(n->operands[2], inner);
          return;
        }
        for (const auto &o : n->operands)
          walk(o, bound);
      };
  std::set<std::string> bound;
  walk(node_, bound);
  return out;
}

namespace {

bool nodesEqual(const ExprNodeRef &a, const ExprNodeRef &b) {
  if (a == b) // canonical within an interner: the common case
    return true;
  if (a->hash != b->hash)
    return false;
  if (a->kind != b->kind || a->value != b->value || a->name != b->name ||
      a->operands.size() != b->operands.size())
    return false;
  for (std::size_t i = 0; i < a->operands.size(); ++i)
    if (!nodesEqual(a->operands[i], b->operands[i]))
      return false;
  return true;
}

} // namespace

bool Expr::equals(const Expr &other) const {
  return nodesEqual(node_, other.node_);
}

namespace {

std::optional<std::int64_t> evalNode(const ExprNodeRef &n, const Env &env) {
  switch (n->kind) {
  case ExprKind::IntConst:
    return n->value;
  case ExprKind::Param: {
    auto it = env.find(n->name);
    if (it == env.end())
      return std::nullopt;
    return it->second;
  }
  case ExprKind::Add: {
    std::int64_t acc = 0;
    for (const auto &o : n->operands) {
      auto v = evalNode(o, env);
      if (!v)
        return std::nullopt;
      acc = checkedAdd(acc, *v);
    }
    return acc;
  }
  case ExprKind::Mul: {
    std::int64_t acc = 1;
    for (const auto &o : n->operands) {
      auto v = evalNode(o, env);
      if (!v)
        return std::nullopt;
      acc = checkedMul(acc, *v);
    }
    return acc;
  }
  case ExprKind::FloorDiv: {
    auto a = evalNode(n->operands[0], env);
    auto b = evalNode(n->operands[1], env);
    if (!a || !b || *b == 0)
      return std::nullopt;
    return floorDiv(*a, *b);
  }
  case ExprKind::ExactDiv: {
    auto a = evalNode(n->operands[0], env);
    auto b = evalNode(n->operands[1], env);
    if (!a || !b || *b == 0)
      return std::nullopt;
    if (*a == std::numeric_limits<std::int64_t>::min() && *b == -1)
      return std::nullopt; // quotient unrepresentable; '/' would be UB
    if (*a % *b != 0)
      return std::nullopt; // closed form produced a non-integer: bug upstream
    return *a / *b;
  }
  case ExprKind::Mod: {
    auto a = evalNode(n->operands[0], env);
    auto b = evalNode(n->operands[1], env);
    if (!a || !b || *b == 0)
      return std::nullopt;
    return floorMod(*a, *b);
  }
  case ExprKind::Min: {
    auto a = evalNode(n->operands[0], env);
    auto b = evalNode(n->operands[1], env);
    if (!a || !b)
      return std::nullopt;
    return std::min(*a, *b);
  }
  case ExprKind::Max: {
    auto a = evalNode(n->operands[0], env);
    auto b = evalNode(n->operands[1], env);
    if (!a || !b)
      return std::nullopt;
    return std::max(*a, *b);
  }
  case ExprKind::Sum: {
    auto lo = evalNode(n->operands[0], env);
    auto hi = evalNode(n->operands[1], env);
    if (!lo || !hi)
      return std::nullopt;
    std::int64_t acc = 0;
    Env inner = env;
    for (std::int64_t v = *lo; v <= *hi; ++v) {
      inner[n->name] = v;
      auto b = evalNode(n->operands[2], inner);
      if (!b)
        return std::nullopt;
      acc = checkedAdd(acc, *b);
    }
    return acc;
  }
  }
  return std::nullopt;
}

enum class PrintStyle { Debug, Python };

std::string printNode(const ExprNodeRef &n, PrintStyle style);

std::string printJoin(const std::vector<ExprNodeRef> &ops, const char *sep,
                      PrintStyle style) {
  std::string out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i)
      out += sep;
    out += printNode(ops[i], style);
  }
  return out;
}

std::string printNode(const ExprNodeRef &n, PrintStyle style) {
  switch (n->kind) {
  case ExprKind::IntConst:
    return std::to_string(n->value);
  case ExprKind::Param:
    return n->name;
  case ExprKind::Add:
    return "(" + printJoin(n->operands, " + ", style) + ")";
  case ExprKind::Mul:
    return "(" + printJoin(n->operands, "*", style) + ")";
  case ExprKind::FloorDiv:
    return "(" + printNode(n->operands[0], style) +
           (style == PrintStyle::Python ? " // " : " fdiv ") +
           printNode(n->operands[1], style) + ")";
  case ExprKind::ExactDiv:
    return "(" + printNode(n->operands[0], style) +
           (style == PrintStyle::Python ? " // " : " / ") +
           printNode(n->operands[1], style) + ")";
  case ExprKind::Mod:
    return "(" + printNode(n->operands[0], style) + " % " +
           printNode(n->operands[1], style) + ")";
  case ExprKind::Min:
    return "min(" + printJoin(n->operands, ", ", style) + ")";
  case ExprKind::Max:
    return "max(" + printJoin(n->operands, ", ", style) + ")";
  case ExprKind::Sum:
    if (style == PrintStyle::Python)
      return "sum((" + printNode(n->operands[2], style) + ") for " + n->name +
             " in range(" + printNode(n->operands[0], style) + ", " +
             printNode(n->operands[1], style) + " + 1))";
    return "Sum(" + n->name + "=" + printNode(n->operands[0], style) + ".." +
           printNode(n->operands[1], style) + ", " +
           printNode(n->operands[2], style) + ")";
  }
  return "?";
}

} // namespace

std::optional<std::int64_t> Expr::evaluate(const Env &env) const {
  try {
    return evalNode(node_, env);
  } catch (const ArithmeticError &) {
    return std::nullopt;
  }
}

Expr Expr::substitute(const std::string &name, const Expr &replacement) const {
  std::function<Expr(const ExprNodeRef &)> walk =
      [&](const ExprNodeRef &n) -> Expr {
    switch (n->kind) {
    case ExprKind::IntConst:
      return Expr::intConst(n->value);
    case ExprKind::Param:
      return n->name == name ? replacement : Expr(Expr::param(n->name));
    case ExprKind::Add: {
      std::vector<Expr> ops;
      for (const auto &o : n->operands)
        ops.push_back(walk(o));
      return Expr::add(std::move(ops));
    }
    case ExprKind::Mul: {
      std::vector<Expr> ops;
      for (const auto &o : n->operands)
        ops.push_back(walk(o));
      return Expr::mul(std::move(ops));
    }
    case ExprKind::FloorDiv:
      return Expr::floorDiv(walk(n->operands[0]), walk(n->operands[1]));
    case ExprKind::ExactDiv:
      return Expr::exactDiv(walk(n->operands[0]), walk(n->operands[1]));
    case ExprKind::Mod:
      return Expr::mod(walk(n->operands[0]), walk(n->operands[1]));
    case ExprKind::Min:
      return Expr::min(walk(n->operands[0]), walk(n->operands[1]));
    case ExprKind::Max:
      return Expr::max(walk(n->operands[0]), walk(n->operands[1]));
    case ExprKind::Sum: {
      Expr lo = walk(n->operands[0]);
      Expr hi = walk(n->operands[1]);
      // The bound variable shadows same-named outer parameters.
      if (n->name == name)
        return Expr::sum(n->name, lo, hi, Expr(n->operands[2]));
      Expr body = Expr(n->operands[2]);
      std::string var = n->name;
      if (body.parameters().count(name) &&
          replacement.parameters().count(var)) {
        // The replacement references the bound variable: substituting
        // under this binder would capture it (N -> i under Sum(i, ...)
        // must not turn occurrences of N into the loop variable).
        // Alpha-rename the binder to a fresh name first; the rename is
        // itself a substitute() call, so a clashing inner binder gets
        // renamed recursively by this same rule.
        std::set<std::string> avoid = replacement.parameters();
        std::set<std::string> bodyParams = body.parameters();
        avoid.insert(bodyParams.begin(), bodyParams.end());
        avoid.insert(name);
        std::string fresh;
        for (std::uint64_t i = 1;; ++i) {
          fresh = var + "_" + std::to_string(i);
          if (!avoid.count(fresh))
            break;
        }
        body = body.substitute(var, Expr::param(fresh));
        var = fresh;
      }
      return Expr::sum(var, lo, hi, body.substitute(name, replacement));
    }
    }
    return Expr::intConst(0);
  };
  return walk(node_);
}

std::string Expr::str() const { return printNode(node_, PrintStyle::Debug); }

std::string Expr::toPython() const {
  return printNode(node_, PrintStyle::Python);
}

} // namespace mira::symbolic
