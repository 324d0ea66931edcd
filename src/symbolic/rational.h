// Exact rational arithmetic over 64-bit integers.
//
// Used for polynomial coefficients during Faulhaber summation (closed-form
// sums of integer polynomials have rational coefficients, e.g. n(n+1)/2).
// All operations normalize (reduced fraction, positive denominator) and
// check for overflow via __int128 intermediates.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace mira::symbolic {

/// Thrown on arithmetic overflow or division by zero in exact arithmetic.
class ArithmeticError : public std::runtime_error {
public:
  explicit ArithmeticError(const std::string &what)
      : std::runtime_error(what) {}
};

/// Checked int64 helpers (throw ArithmeticError on overflow).
std::int64_t checkedAdd(std::int64_t a, std::int64_t b);
std::int64_t checkedSub(std::int64_t a, std::int64_t b);
std::int64_t checkedMul(std::int64_t a, std::int64_t b);

/// Mathematical floor division / modulus (sign of divisor-independent,
/// matches how loop-iteration counting needs them; C++ '/' truncates).
std::int64_t floorDiv(std::int64_t a, std::int64_t b);
std::int64_t floorMod(std::int64_t a, std::int64_t b);

std::int64_t gcd64(std::int64_t a, std::int64_t b);

/// A reduced fraction num/den with den > 0.
class Rational {
public:
  constexpr Rational() = default;
  Rational(std::int64_t numerator) : num_(numerator), den_(1) {} // NOLINT
  Rational(std::int64_t numerator, std::int64_t denominator);

  std::int64_t num() const { return num_; }
  std::int64_t den() const { return den_; }

  bool isZero() const { return num_ == 0; }
  bool isInteger() const { return den_ == 1; }
  /// Requires isInteger().
  std::int64_t asInteger() const;

  Rational operator-() const;
  friend Rational operator+(const Rational &a, const Rational &b);
  friend Rational operator-(const Rational &a, const Rational &b);
  friend Rational operator*(const Rational &a, const Rational &b);
  friend Rational operator/(const Rational &a, const Rational &b);
  Rational &operator+=(const Rational &o) { return *this = *this + o; }
  Rational &operator-=(const Rational &o) { return *this = *this - o; }
  Rational &operator*=(const Rational &o) { return *this = *this * o; }
  Rational &operator/=(const Rational &o) { return *this = *this / o; }

  friend bool operator==(const Rational &a, const Rational &b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend bool operator!=(const Rational &a, const Rational &b) {
    return !(a == b);
  }
  friend bool operator<(const Rational &a, const Rational &b);
  friend bool operator<=(const Rational &a, const Rational &b) {
    return a < b || a == b;
  }
  friend bool operator>(const Rational &a, const Rational &b) { return b < a; }
  friend bool operator>=(const Rational &a, const Rational &b) {
    return b <= a;
  }

  std::string str() const;

private:
  void normalize();

  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

/// Binomial coefficient C(n, k) with overflow checking (n small).
std::int64_t binomial(int n, int k);

} // namespace mira::symbolic
