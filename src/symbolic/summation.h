// Closed-form summation of polynomials over integer ranges (Faulhaber).
//
// The polyhedral counter reduces "number of lattice points in an affine
// loop nest" to nested sums: count(level d) = sum_{i=lb..ub} count(d+1),
// where count(d+1) is a polynomial in i and the outer parameters. Faulhaber
// formulas give Sum_{i=1}^{n} i^k as a degree-(k+1) polynomial, so each
// level of summation stays polynomial — the parametric model the paper
// generates for affine SCoPs.
//
// The formulas S_0..S_16 form one static table of univariate rational
// coefficients, built once per process and free of any arena's symbols;
// sumOverRange() combines it with the powers of the bounds, each built
// once, without a temporary variable.
//
// Domain note: the closed form Sum_{i=L}^{U} P(i) = F(U) - F(L-1) is exact
// whenever U >= L-1 (including the empty range U = L-1). Callers must
// guarantee non-degenerate ranges (the polyhedral layer checks emptiness
// separately and clamps numeric evaluation at zero).
#pragma once

#include <vector>

#include "symbolic/polynomial.h"

namespace mira::symbolic {

/// Bernoulli numbers with the B1 = +1/2 convention, as exact rationals.
/// Index 0..max supported (kMaxFaulhaberDegree).
inline constexpr int kMaxFaulhaberDegree = 16;
Rational bernoulliPlus(int index);

/// The coefficients of S_k(n) = Sum_{i=1}^{n} i^k: element j is the
/// coefficient of n^j, for j = 0..k+1. k must be in
/// [0, kMaxFaulhaberDegree].
const std::vector<Rational> &faulhaberCoefficients(int k);

/// Faulhaber: the polynomial S_k(n) in variable `var`.
Polynomial faulhaber(int k, Symbol var);

/// Sum_{iterVar = lo}^{hi} P(iterVar), where lo/hi are polynomials in outer
/// variables. Exact for hi >= lo-1 (see domain note above). Throws
/// ArithmeticError when an intermediate coefficient overflows int64.
Polynomial sumOverRange(const Polynomial &poly, Symbol iterVar,
                        const Polynomial &lo, const Polynomial &hi);

} // namespace mira::symbolic
