// Affine expressions over symbols with integer coefficients.
//
// The polyhedral model (paper Sec. II-B, III-B2) represents loop bounds and
// branch conditions as affine inequalities over iteration variables and
// parameters; AffineExpr is that representation: c0 + sum(ci * vi). The
// variables are Symbols of the calling thread's ExprInterner
// (symbolic/interner.h), held as a constant plus an inline array of
// (Symbol, coeff) terms sorted by Symbol, so building or copying one with
// up to three variables does not allocate. Symbols sort by mint order;
// str() prints the terms in name order, so text does not depend on the
// order a walk minted them in.
//
// Arithmetic is checked: an int64 overflow throws symbolic::ArithmeticError,
// which callers turn into "not affine" or a fallback path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "support/inline_vector.h"
#include "symbolic/expr.h"
#include "symbolic/polynomial.h"

namespace mira::polyhedral {

using symbolic::Expr;
using symbolic::Polynomial;
using symbolic::Symbol;
using symbolic::SymbolValues;

class AffineExpr {
public:
  /// One coeff * var term; coeff is never 0.
  struct Term {
    Symbol var;
    std::int64_t coeff;

    friend bool operator==(const Term &a, const Term &b) {
      return a.var == b.var && a.coeff == b.coeff;
    }
  };
  /// The terms, sorted by Symbol.
  using Terms = InlineVector<Term, 3>;

  AffineExpr() = default;
  explicit AffineExpr(std::int64_t constant) : constant_(constant) {}
  static AffineExpr variable(Symbol var, std::int64_t coeff = 1);

  std::int64_t constant() const { return constant_; }
  std::int64_t coeff(Symbol var) const;
  const Terms &terms() const { return terms_; }

  bool isConstant() const { return terms_.empty(); }
  /// True if `var` appears with a nonzero coefficient.
  bool involves(Symbol var) const { return coeff(var) != 0; }

  friend AffineExpr operator+(const AffineExpr &a, const AffineExpr &b);
  friend AffineExpr operator-(const AffineExpr &a, const AffineExpr &b);
  AffineExpr operator-() const;
  AffineExpr scaled(std::int64_t factor) const;
  AffineExpr &operator+=(const AffineExpr &o) { return *this = *this + o; }
  AffineExpr &operator-=(const AffineExpr &o) { return *this = *this - o; }

  /// Remove `var`, returning the expression with that term dropped.
  AffineExpr without(Symbol var) const;

  /// Substitute `var := replacement` (replacement affine).
  AffineExpr substitute(Symbol var, const AffineExpr &replacement) const;

  /// nullopt when a variable is unbound or the value overflows int64.
  std::optional<std::int64_t> evaluate(const SymbolValues &values) const;
  Polynomial toPolynomial() const;
  Expr toExpr() const;
  /// Expr of degree <= 1 converts back; nullopt otherwise.
  static std::optional<AffineExpr> fromExpr(const Expr &expr);

  bool operator==(const AffineExpr &o) const {
    return constant_ == o.constant_ && terms_ == o.terms_;
  }

  std::string str() const;

private:
  std::int64_t constant_ = 0;
  Terms terms_;

  // a + b, or a - b when `subtract`: one merge of the sorted terms.
  static AffineExpr merge(const AffineExpr &a, const AffineExpr &b,
                          bool subtract);
};

/// Comparison relations usable in loop conditions and branch guards.
enum class CmpRel { LT, LE, GT, GE, EQ, NE };

const char *toString(CmpRel rel);

/// An affine constraint `expr REL 0`. Normal form used by the solver is
/// GE: expr >= 0; helpers convert LT/LE/GT from source-level comparisons.
struct AffineConstraint {
  AffineExpr expr; // meaning: expr >= 0 (after normalization)

  /// Build `lhs rel rhs` as one or two GE-normal constraints.
  /// EQ yields two constraints; NE is not affine-representable (handled by
  /// the congruence/complement machinery instead).
  static std::vector<AffineConstraint> make(const AffineExpr &lhs, CmpRel rel,
                                            const AffineExpr &rhs);

  std::optional<bool> holds(const SymbolValues &values) const;
  std::string str() const;
};

/// A congruence condition `expr % modulus REL 0` with REL in {EQ, NE}.
/// Models branch guards like `j % 4 != 0` (paper Listing 5): NE breaks
/// convexity and is counted by the complement rule.
struct Congruence {
  AffineExpr expr;
  std::int64_t modulus = 1;
  bool negated = false; // false: expr % m == 0; true: expr % m != 0

  std::optional<bool> holds(const SymbolValues &values) const;
  std::string str() const;
};

} // namespace mira::polyhedral
