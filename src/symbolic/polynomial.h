// Multivariate polynomials with rational coefficients.
//
// Closed-form iteration counts of affine loop nests are (quasi-)polynomials
// in the loop parameters. The polyhedral counter builds them by repeated
// Faulhaber summation (summation.h) and converts the result back to an
// integer Expr via a common denominator and ExactDiv.
//
// Variables are Symbols of the calling thread's ExprInterner (interner.h),
// never strings: a monomial is an inline array of (Symbol, exponent)
// pairs, and a polynomial a sorted inline array of (monomial, coefficient)
// terms, so the few-term polynomials of loop counting and their sums and
// products make no allocation. Both orders are by Symbol id, which is
// mint order; no output depends on them, since toExpr() hands its terms
// to the canonicalizing Expr builders.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/inline_vector.h"
#include "symbolic/expr.h"
#include "symbolic/rational.h"

namespace mira::symbolic {

/// One factor of a monomial: a variable raised to a positive power.
struct VarPower {
  Symbol var;
  int exponent;

  friend bool operator==(VarPower a, VarPower b) {
    return a.var == b.var && a.exponent == b.exponent;
  }
  friend bool operator<(VarPower a, VarPower b) {
    return a.var != b.var ? a.var < b.var : a.exponent < b.exponent;
  }
};

/// A monomial: product of variables raised to positive powers, e.g. x^2*y.
/// Canonical form: sorted by Symbol, exponents >= 1; empty for 1. Up to
/// three variables stay inline, more move to the heap.
using Monomial = InlineVector<VarPower, 3>;

/// Polynomial = sum of coeff * monomial. The empty monomial is the constant
/// term. Zero coefficients are never stored.
class Polynomial {
public:
  using Term = std::pair<Monomial, Rational>;
  using Terms = InlineVector<Term, 4>;

  Polynomial() = default;
  explicit Polynomial(Rational constant);
  static Polynomial variable(Symbol var);
  static Polynomial constant(Rational value) { return Polynomial(value); }

  bool isZero() const { return terms_.empty(); }
  bool isConstant() const;
  /// Constant value (requires isConstant()).
  Rational constantValue() const;

  /// Total degree; 0 for constants and the zero polynomial.
  int degree() const;
  /// Highest exponent of `var` across all terms.
  int degreeIn(Symbol var) const;

  friend Polynomial operator+(const Polynomial &a, const Polynomial &b);
  friend Polynomial operator-(const Polynomial &a, const Polynomial &b);
  friend Polynomial operator*(const Polynomial &a, const Polynomial &b);
  Polynomial operator-() const;
  Polynomial &operator+=(const Polynomial &o) { return *this = *this + o; }
  Polynomial &operator-=(const Polynomial &o) { return *this = *this - o; }
  Polynomial &operator*=(const Polynomial &o) { return *this = *this * o; }

  Polynomial scaled(const Rational &factor) const;
  Polynomial pow(int exponent) const;

  /// Replace `var` by another polynomial. Each power of `replacement` is
  /// built once.
  Polynomial substitute(Symbol var, const Polynomial &replacement) const;

  /// Rewrite as a univariate polynomial in `var`: index k holds the
  /// coefficient polynomial (free of `var`) of var^k.
  std::vector<Polynomial> coefficientsIn(Symbol var) const;

  /// Exact evaluation; nullopt when a variable is unbound or the result
  /// is not an integer.
  std::optional<std::int64_t> evaluate(const SymbolValues &values) const;
  std::optional<Rational> evaluateRational(const SymbolValues &values) const;

  /// Convert to an integer Expr: multiply through by the coefficient LCM
  /// and wrap in ExactDiv. Integer-valued polynomials (all counts are)
  /// evaluate exactly.
  Expr toExpr() const;

  /// Parse an Expr into a polynomial, minting a Symbol per parameter;
  /// nullopt for non-polynomial kinds (FloorDiv, Mod, Min, Max, Sum).
  static std::optional<Polynomial> fromExpr(const Expr &expr);

  /// Debug form; terms in storage order.
  std::string str() const;

  /// Terms sorted by monomial.
  const Terms &terms() const { return terms_; }

private:
  Terms terms_;

  void addTerm(Monomial m, const Rational &c);
  // a + b, or a - b when `subtract`: one merge of the sorted term lists.
  static Polynomial merge(const Polynomial &a, const Polynomial &b,
                          bool subtract);
};

} // namespace mira::symbolic
