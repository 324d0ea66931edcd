#include "symbolic/summation.h"

#include <array>
#include <cassert>

namespace mira::symbolic {

namespace {

/// Compute Bernoulli numbers (B- convention) by the standard recurrence
///   Sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, B_0 = 1,
/// then flip B1 to +1/2 (the only difference between conventions).
const std::array<Rational, kMaxFaulhaberDegree + 1> &bernoulliTable() {
  static const std::array<Rational, kMaxFaulhaberDegree + 1> table = [] {
    std::array<Rational, kMaxFaulhaberDegree + 1> b{};
    b[0] = Rational(1);
    for (int m = 1; m <= kMaxFaulhaberDegree; ++m) {
      Rational acc(0);
      for (int j = 0; j < m; ++j)
        acc += Rational(binomial(m + 1, j)) * b[static_cast<std::size_t>(j)];
      b[static_cast<std::size_t>(m)] =
          -acc / Rational(binomial(m + 1, m));
    }
    b[1] = Rational(1, 2); // switch to the B+ convention
    return b;
  }();
  return table;
}

/// S_k(n) = 1/(k+1) * Sum_{j=0}^{k} C(k+1, j) * B+_j * n^{k+1-j}.
const std::array<std::vector<Rational>, kMaxFaulhaberDegree + 1> &
faulhaberTable() {
  static const std::array<std::vector<Rational>, kMaxFaulhaberDegree + 1>
      table = [] {
        std::array<std::vector<Rational>, kMaxFaulhaberDegree + 1> s;
        for (int k = 0; k <= kMaxFaulhaberDegree; ++k) {
          std::vector<Rational> &row = s[static_cast<std::size_t>(k)];
          row.assign(static_cast<std::size_t>(k) + 2, Rational(0));
          const Rational scale(1, static_cast<std::int64_t>(k) + 1);
          for (int j = 0; j <= k; ++j)
            row[static_cast<std::size_t>(k + 1 - j)] =
                Rational(binomial(k + 1, j)) * bernoulliPlus(j) * scale;
        }
        return s;
      }();
  return table;
}

} // namespace

Rational bernoulliPlus(int index) {
  assert(index >= 0 && index <= kMaxFaulhaberDegree);
  return bernoulliTable()[static_cast<std::size_t>(index)];
}

const std::vector<Rational> &faulhaberCoefficients(int k) {
  assert(k >= 0 && k <= kMaxFaulhaberDegree);
  return faulhaberTable()[static_cast<std::size_t>(k)];
}

Polynomial faulhaber(int k, Symbol var) {
  const std::vector<Rational> &coeffs = faulhaberCoefficients(k);
  const Polynomial n = Polynomial::variable(var);
  Polynomial acc;
  Polynomial power = n;
  for (std::size_t j = 1; j < coeffs.size(); ++j) {
    if (j > 1)
      power *= n;
    acc += power.scaled(coeffs[j]);
  }
  return acc;
}

Polynomial sumOverRange(const Polynomial &poly, Symbol iterVar,
                        const Polynomial &lo, const Polynomial &hi) {
  // With P(i) = Sum_k c_k i^k and S_k(n) = Sum_j a_kj n^j (a_k0 = 0):
  //   Sum_{i=lo}^{hi} P(i) = F(hi) - F(lo - 1),  F(n) = Sum_k c_k S_k(n)
  //                        = Sum_j (Sum_k c_k a_kj) * (hi^j - (lo-1)^j).
  const std::vector<Polynomial> c = poly.coefficientsIn(iterVar);
  if (c.size() > static_cast<std::size_t>(kMaxFaulhaberDegree) + 1)
    throw ArithmeticError("summand degree exceeds the Faulhaber table");
  const Polynomial below = lo - Polynomial{Rational(1)};
  Polynomial hiPower = hi;
  Polynomial belowPower = below;
  Polynomial acc;
  for (std::size_t j = 1; j <= c.size(); ++j) {
    if (j > 1) {
      hiPower *= hi;
      belowPower *= below;
    }
    Polynomial weight;
    for (std::size_t k = j - 1; k < c.size(); ++k) {
      const Rational &a = faulhaberCoefficients(static_cast<int>(k))[j];
      if (!a.isZero() && !c[k].isZero())
        weight += c[k].scaled(a);
    }
    if (!weight.isZero())
      acc += weight * (hiPower - belowPower);
  }
  return acc;
}

} // namespace mira::symbolic
