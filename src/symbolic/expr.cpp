#include "symbolic/expr.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "symbolic/interner.h"

namespace mira::symbolic {

namespace {

bool isConst(const ExprNodeRef &n, std::int64_t v) {
  return n->kind == ExprKind::IntConst && n->value == v;
}

/// Canonical ordering for commutative operand lists: the interner caches
/// the historical string key on every node, so comparison is a string
/// compare, never a subtree walk.
bool keyLess(const ExprNodeRef &a, const ExprNodeRef &b) {
  return a->key < b->key;
}

/// Interns a fixed-arity node over the current interner's copies of its
/// operands (borrowed: the operand array is copied only on a miss).
template <std::size_t N>
ExprNodeRef internOver(ExprKind kind, std::string_view name,
                       const ExprNodeRef (&operands)[N]) {
  ExprInterner &interner = ExprInterner::current();
  ExprNodeRef owned[N];
  for (std::size_t i = 0; i < N; ++i)
    owned[i] = interner.reintern(operands[i]);
  return interner.intern(kind, 0, name, owned, N);
}

/// One summand of an n-ary add: coeff * (its non-constant factors), the
/// factors being a range of tAddFactors rather than a vector of its own.
struct AddTerm {
  std::int64_t coeff;
  std::size_t begin;
  std::size_t count;
};

// Per-thread operand storage for the n-ary builders, reused across calls
// so a steady-state build allocates only the nodes it creates. A builder
// appends above the size it found and truncates back when it finishes;
// an add that builds a product for a merged like-term nests a MulBuilder,
// which uses its own vector, so offsets into these stay valid.
thread_local std::vector<ExprNodeRef> tMulFlat;
thread_local std::vector<ExprNodeRef> tAddFlat;
thread_local std::vector<ExprNodeRef> tAddResult;
thread_local std::vector<const ExprNodeRef *> tAddFactors;
thread_local std::vector<AddTerm> tAddTerms;

/// The part of a scratch vector one builder call appends: truncated back
/// on exit, which releases the nodes and keeps the capacity.
template <class T> class ScratchRange {
public:
  explicit ScratchRange(std::vector<T> &v) : vector_(v), base_(v.size()) {}
  ~ScratchRange() { vector_.resize(base_); }
  ScratchRange(const ScratchRange &) = delete;
  ScratchRange &operator=(const ScratchRange &) = delete;
  std::size_t base() const { return base_; }

private:
  std::vector<T> &vector_;
  std::size_t base_;
};

/// Flattens nested products, folds integer factors, sorts the rest by
/// key and interns the product.
class MulBuilder {
public:
  explicit MulBuilder(ExprInterner &interner, std::int64_t constant = 1)
      : interner_(interner), range_(tMulFlat), constant_(constant) {}

  void absorb(const ExprNodeRef &n) {
    if (n->kind == ExprKind::IntConst) {
      try {
        constant_ = checkedMul(constant_, n->value);
      } catch (const ArithmeticError &) {
        // Folding would overflow int64; keep the factor symbolic.
        // evaluate() reports the overflow as nullopt at use time —
        // construction itself must not throw.
        tMulFlat.push_back(interner_.reintern(n));
      }
    } else if (n->kind == ExprKind::Mul) {
      for (const ExprNodeRef &o : n->operands)
        absorb(o);
    } else {
      tMulFlat.push_back(interner_.reintern(n));
    }
  }

  ExprNodeRef finish() {
    if (constant_ == 0)
      return interner_.constant(0);
    const auto first = tMulFlat.begin() + range_.base();
    std::sort(first, tMulFlat.end(), keyLess);
    if (constant_ != 1 || first == tMulFlat.end()) {
      tMulFlat.push_back(interner_.constant(constant_));
      std::rotate(tMulFlat.begin() + range_.base(), tMulFlat.end() - 1,
                  tMulFlat.end());
    }
    const std::size_t count = tMulFlat.size() - range_.base();
    if (count == 1)
      return tMulFlat[range_.base()];
    return interner_.intern(ExprKind::Mul, 0, {},
                            tMulFlat.data() + range_.base(), count);
  }

private:
  ExprInterner &interner_;
  ScratchRange<ExprNodeRef> range_;
  std::int64_t constant_;
};

/// Flattens nested sums, folds integer summands, merges like terms
/// (c1*X + c2*X -> (c1+c2)*X), sorts by key and interns the sum.
class AddBuilder {
public:
  explicit AddBuilder(ExprInterner &interner)
      : interner_(interner), flat_(tAddFlat), factors_(tAddFactors),
        terms_(tAddTerms), result_(tAddResult) {}

  void absorb(const ExprNodeRef &n) {
    if (n->kind == ExprKind::IntConst) {
      try {
        constant_ = checkedAdd(constant_, n->value);
      } catch (const ArithmeticError &) {
        // Folding would overflow int64; keep the constant symbolic.
        tAddFlat.push_back(interner_.reintern(n));
      }
    } else if (n->kind == ExprKind::Add) {
      for (const ExprNodeRef &o : n->operands)
        absorb(o);
    } else {
      tAddFlat.push_back(interner_.reintern(n));
    }
  }

  ExprNodeRef finish() {
    // Each summand is a term coeff * (non-constant factors): a Mul node
    // contributes its operands, anything else is one factor. The factors
    // are canonical nodes in this interner, so "same term" is an equal
    // range of node pointers — no string keys, and no false merges when
    // parameter names contain key metacharacters.
    for (std::size_t i = flat_.base(); i < tAddFlat.size(); ++i) {
      const ExprNodeRef &n = tAddFlat[i];
      AddTerm t{1, tAddFactors.size(), 0};
      if (n->kind == ExprKind::Mul) {
        for (const ExprNodeRef &f : n->operands) {
          if (f->kind == ExprKind::IntConst) {
            try {
              t.coeff = checkedMul(t.coeff, f->value);
              continue;
            } catch (const ArithmeticError &) {
              // Overflow: keep the constant as a factor.
            }
          }
          tAddFactors.push_back(&f);
        }
      } else {
        tAddFactors.push_back(&n);
      }
      t.count = tAddFactors.size() - t.begin;
      bool merged = false;
      for (std::size_t p = terms_.base(); p < tAddTerms.size(); ++p) {
        AddTerm &prev = tAddTerms[p];
        if (!sameFactors(prev, t))
          continue;
        try {
          prev.coeff = checkedAdd(prev.coeff, t.coeff);
          merged = true;
        } catch (const ArithmeticError &) {
          // Coefficient sum overflows; keep the terms separate.
        }
        break;
      }
      if (merged)
        tAddFactors.resize(t.begin);
      else
        tAddTerms.push_back(t);
    }

    for (std::size_t p = terms_.base(); p < tAddTerms.size(); ++p) {
      const AddTerm &t = tAddTerms[p];
      if (t.coeff == 0)
        continue;
      if (t.coeff == 1 && t.count == 1) {
        tAddResult.push_back(*tAddFactors[t.begin]);
        continue;
      }
      MulBuilder product(interner_, t.coeff);
      for (std::size_t k = 0; k < t.count; ++k)
        product.absorb(*tAddFactors[t.begin + k]);
      tAddResult.push_back(product.finish());
    }

    std::sort(tAddResult.begin() + result_.base(), tAddResult.end(),
              keyLess);
    if (constant_ != 0 || tAddResult.size() == result_.base())
      tAddResult.push_back(interner_.constant(constant_));
    const std::size_t count = tAddResult.size() - result_.base();
    if (count == 1)
      return tAddResult[result_.base()];
    return interner_.intern(ExprKind::Add, 0, {},
                            tAddResult.data() + result_.base(), count);
  }

private:
  static bool sameFactors(const AddTerm &a, const AddTerm &b) {
    if (a.count != b.count)
      return false;
    for (std::size_t k = 0; k < a.count; ++k)
      if (tAddFactors[a.begin + k]->get() != tAddFactors[b.begin + k]->get())
        return false;
    return true;
  }

  ExprInterner &interner_;
  ScratchRange<ExprNodeRef> flat_;
  ScratchRange<const ExprNodeRef *> factors_;
  ScratchRange<AddTerm> terms_;
  ScratchRange<ExprNodeRef> result_;
  std::int64_t constant_ = 0;
};

} // namespace

Expr::Expr() : node_(ExprInterner::current().constant(0)) {}

Expr Expr::intConst(std::int64_t value) {
  return Expr(ExprInterner::current().constant(value));
}

Expr Expr::param(std::string_view name) {
  return Expr(
      ExprInterner::current().intern(ExprKind::Param, 0, name, nullptr, 0));
}

Expr Expr::param(Symbol symbol) {
  return Expr(ExprInterner::current().param(symbol));
}

Expr Expr::add(const std::vector<Expr> &operands) {
  return add(operands.data(), operands.size());
}

Expr Expr::mul(const std::vector<Expr> &operands) {
  return mul(operands.data(), operands.size());
}

Expr Expr::add(const Expr *operands, std::size_t count) {
  AddBuilder sum(ExprInterner::current());
  for (std::size_t i = 0; i < count; ++i)
    sum.absorb(operands[i].node_);
  return Expr(sum.finish());
}

Expr Expr::mul(const Expr *operands, std::size_t count) {
  MulBuilder product(ExprInterner::current());
  for (std::size_t i = 0; i < count; ++i)
    product.absorb(operands[i].node_);
  return Expr(product.finish());
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
  return Expr(internOver(ExprKind::FloorDiv, {}, {a.node_, b.node_}));
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
  return Expr(internOver(ExprKind::ExactDiv, {}, {a.node_, b.node_}));
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
  return Expr(internOver(ExprKind::Mod, {}, {a.node_, b.node_}));
}

Expr Expr::min(Expr a, Expr b) {
  if (a.equals(b))
    return a;
  if (a.node_->kind == ExprKind::IntConst && b.node_->kind == ExprKind::IntConst)
    return Expr::intConst(std::min(a.node_->value, b.node_->value));
  return Expr(internOver(ExprKind::Min, {}, {a.node_, b.node_}));
}

Expr Expr::max(Expr a, Expr b) {
  if (a.equals(b))
    return a;
  if (a.node_->kind == ExprKind::IntConst && b.node_->kind == ExprKind::IntConst)
    return Expr::intConst(std::max(a.node_->value, b.node_->value));
  return Expr(internOver(ExprKind::Max, {}, {a.node_, b.node_}));
}

Expr Expr::sum(std::string_view var, Expr lo, Expr hi, Expr body) {
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
  return Expr(internOver(ExprKind::Sum, var, {lo.node_, hi.node_, body.node_}));
}

Expr Expr::fromNode(ExprNodeRef node) {
  if (!node)
    return Expr();
  // Structure-preserving: reintern never reorders or rewrites, it only
  // replaces each subtree with the interner's canonical copy (itself,
  // when the interner already owns it), so serialized bytes cannot drift.
  return Expr(ExprInterner::current().reintern(node));
}

namespace {

ExprNodeRef negated(ExprInterner &interner, const ExprNodeRef &n) {
  MulBuilder product(interner, -1);
  product.absorb(n);
  return product.finish();
}

} // namespace

Expr operator+(const Expr &a, const Expr &b) {
  AddBuilder sum(ExprInterner::current());
  sum.absorb(a.node_);
  sum.absorb(b.node_);
  return Expr(sum.finish());
}
Expr operator-(const Expr &a, const Expr &b) {
  ExprInterner &interner = ExprInterner::current();
  const ExprNodeRef minusB = negated(interner, b.node_);
  AddBuilder sum(interner);
  sum.absorb(a.node_);
  sum.absorb(minusB);
  return Expr(sum.finish());
}
Expr operator*(const Expr &a, const Expr &b) {
  MulBuilder product(ExprInterner::current());
  product.absorb(a.node_);
  product.absorb(b.node_);
  return Expr(product.finish());
}
Expr Expr::operator-() const {
  return Expr(negated(ExprInterner::current(), node_));
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
