#pragma once

// Overflow-checked 64-bit integer arithmetic.
//
// Every exact computation in lmre (determinants, normal forms, window-size
// formulas) goes through these helpers so that overflow raises
// OverflowError instead of silently wrapping.

#include <cstdint>
#include <limits>

namespace lmre {

/// Scalar type used throughout lmre for exact integer arithmetic.
using Int = std::int64_t;

/// Throws OverflowError with `what`; the out-of-line failure path of the
/// inline helpers below, so a result that fits costs one overflow test.
[[noreturn]] void throw_overflow(const char* what);

/// Returns a + b, throwing OverflowError when the sum does not fit in Int.
inline Int checked_add(Int a, Int b) {
  Int r;
  if (__builtin_add_overflow(a, b, &r)) [[unlikely]]
    throw_overflow("checked_add overflow");
  return r;
}

/// Returns a - b, throwing OverflowError when the difference does not fit.
inline Int checked_sub(Int a, Int b) {
  Int r;
  if (__builtin_sub_overflow(a, b, &r)) [[unlikely]]
    throw_overflow("checked_sub overflow");
  return r;
}

/// Returns a * b, throwing OverflowError when the product does not fit.
inline Int checked_mul(Int a, Int b) {
  Int r;
  if (__builtin_mul_overflow(a, b, &r)) [[unlikely]]
    throw_overflow("checked_mul overflow");
  return r;
}

/// Returns -a, throwing OverflowError for the INT64_MIN corner case.
inline Int checked_neg(Int a) {
  if (a == std::numeric_limits<Int>::min()) [[unlikely]]
    throw_overflow("checked_neg overflow");
  return -a;
}

/// Returns |a|, throwing OverflowError for the INT64_MIN corner case.
inline Int checked_abs(Int a) { return a < 0 ? checked_neg(a) : a; }

/// Greatest common divisor; gcd(0,0) == 0, result is non-negative.
Int gcd(Int a, Int b);

/// Least common multiple (non-negative); throws OverflowError if it
/// does not fit in Int.  lcm(0, x) == 0.
Int lcm(Int a, Int b);

/// Extended Euclid: returns g = gcd(a,b) >= 0 and sets x, y so that
/// a*x + b*y == g.
Int extended_gcd(Int a, Int b, Int& x, Int& y);

/// Floor division: largest q with q*b <= a.  b must be nonzero.
Int floor_div(Int a, Int b);

/// Ceiling division: smallest q with q*b >= a.  b must be nonzero.
Int ceil_div(Int a, Int b);

/// Euclidean modulus: the residue of a modulo |b|, always in [0, |b|).
Int mod_floor(Int a, Int b);

/// Sign of a: -1, 0, or +1.
int sign(Int a);

}  // namespace lmre
