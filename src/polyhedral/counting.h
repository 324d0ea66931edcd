// Parametric lattice-point counting for loop iteration domains.
//
// This is the engine behind Mira's loop modeling (paper Sec. III-B2/3):
//   * affine nests with known numeric bounds      -> exact enumeration;
//   * parametric affine nests (single bound pair
//     per level)                                  -> closed-form polynomial
//                                                    via Faulhaber summation;
//   * branch guards inside loops                  -> constraints folded into
//                                                    the polyhedron (Fig 4b);
//   * congruence guards (j % c != 0)              -> complement rule
//                                                    count(true) = count(all)
//                                                    - count(false) (Fig 4c);
//   * min/max bounds, residual guards             -> lazy Sum expressions or
//                                                    an annotation request
//                                                    (paper Listing 3).
//
// Loop variables and parameters are Symbols of the calling thread's
// ExprInterner; they turn back into names only in text: the Sum binders
// and Param nodes of the count, and the notes, which print affine terms
// in name order. A closed form whose rational arithmetic overflows int64
// falls back to the lazy-sum path, whose Expr builders never throw.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "polyhedral/affine.h"
#include "polyhedral/fourier_motzkin.h"

namespace mira::polyhedral {

/// One loop level: `for (var = lb; var <= ub; var += step)`. Multiple
/// lower/upper bounds arise when branch guards are folded in; the
/// effective range is [max(lowerBounds), min(upperBounds)]. Two bounds a
/// side are stored inline, so copying a level (domains are copied per
/// guard and per count) makes no allocation.
struct LoopLevel {
  using Bounds = InlineVector<AffineExpr, 2>;

  Symbol var{};
  Bounds lowerBounds;
  Bounds upperBounds;
  std::int64_t step = 1;

  static LoopLevel make(Symbol var, AffineExpr lb, AffineExpr ub,
                        std::int64_t step = 1);
};

/// A (possibly parametric) iteration domain: a loop nest plus extra affine
/// guards and congruence guards contributed by `if` statements.
struct IterationDomain {
  std::vector<LoopLevel> levels; // outermost first
  std::vector<AffineConstraint> guards;
  std::vector<Congruence> congruences;

  /// Domain restricted by an additional guard (used for if-in-loop
  /// modeling: the branch body's domain = loop domain + condition).
  IterationDomain withGuard(const AffineConstraint &guard) const;
  IterationDomain withCongruence(const Congruence &congruence) const;

  std::string str() const;
};

enum class CountMethod {
  Enumeration, // fully numeric, counted exactly by walking the domain
  ClosedForm,  // polynomial in the parameters (Faulhaber)
  LazySum,     // nested symbolic Sum, evaluated on demand
};

const char *toString(CountMethod method);

struct CountResult {
  Expr count;
  CountMethod method = CountMethod::Enumeration;
  /// False when the counter had to assume something it could not prove
  /// (e.g. a parameter-only guard treated as true); the metrics layer
  /// surfaces this as "annotation recommended".
  bool exact = true;
  /// True when the domain cannot be handled statically at all (paper
  /// Listing 3: min/max bounds from function calls); callers must supply
  /// a user annotation.
  bool requiresAnnotation = false;
  std::string note;
};

/// Count the integer points of `domain`.
CountResult countIterations(const IterationDomain &domain);

/// Reference brute-force enumerator: binds `env` for all parameters (by
/// name) and walks the nest. nullopt if some parameter is missing or a
/// level is unbounded. Used to validate countIterations in tests.
std::optional<std::int64_t> enumerateDomain(const IterationDomain &domain,
                                            const symbolic::Env &env);

/// Count points of `range` [lo, hi] congruent to the congruence class of
/// `cong` (helper exposed for tests): number of v in [lo,hi] with
/// v ≡ target (mod m), all symbolic.
Expr countCongruentInRange(const Expr &lo, const Expr &hi, const Expr &target,
                           std::int64_t modulus);

} // namespace mira::polyhedral
