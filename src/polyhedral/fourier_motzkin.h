// Fourier–Motzkin elimination over rational constraint systems.
//
// Used for (a) emptiness checks of fully numeric polyhedra, (b) deriving
// per-variable bounds for the brute-force reference enumerator, and
// (c) convexity sanity checks. Counting itself lives in counting.h.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "polyhedral/affine.h"

namespace mira::polyhedral {

/// A conjunction of affine constraints (each `expr >= 0`) over a set of
/// variables. Variables not eliminated are treated as free/rational.
class ConstraintSystem {
public:
  ConstraintSystem() = default;
  explicit ConstraintSystem(std::vector<AffineConstraint> constraints)
      : constraints_(std::move(constraints)) {}

  void add(AffineConstraint c) { constraints_.push_back(std::move(c)); }
  void add(const std::vector<AffineConstraint> &cs) {
    constraints_.insert(constraints_.end(), cs.begin(), cs.end());
  }
  const std::vector<AffineConstraint> &constraints() const {
    return constraints_;
  }

  /// All variables mentioned by any constraint, in name order.
  std::vector<Symbol> variables() const;

  /// Eliminate `var` by Fourier–Motzkin: pair every lower bound with every
  /// upper bound. Exact over rationals (sufficient for emptiness checks).
  ConstraintSystem eliminate(Symbol var) const;

  /// True if the rational relaxation is infeasible: after eliminating all
  /// variables (in name order, so the intermediate constraints do not
  /// depend on the order symbols were minted in), some constant
  /// constraint is negative. (Rational emptiness implies integer
  /// emptiness; the converse may not hold, which is fine for the uses
  /// here.) Throws symbolic::ArithmeticError when a combined coefficient
  /// overflows int64.
  bool isRationallyEmpty() const;

  /// Substitute a concrete value for `var`.
  ConstraintSystem substituted(Symbol var, std::int64_t value) const;

  /// Tight integer bounds of `var` implied by constraints where all other
  /// variables are already bound in `values`. Returns nullopt if unbounded
  /// on either side.
  std::optional<std::pair<std::int64_t, std::int64_t>>
  integerBounds(Symbol var, const SymbolValues &values) const;

  std::string str() const;

private:
  std::vector<AffineConstraint> constraints_;
};

} // namespace mira::polyhedral
