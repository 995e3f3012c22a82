#include "support/checked.h"

#include "support/error.h"

namespace lmre {

void throw_overflow(const char* what) { throw OverflowError(what); }

Int gcd(Int a, Int b) {
  a = checked_abs(a);
  b = checked_abs(b);
  while (b != 0) {
    Int t = a % b;
    a = b;
    b = t;
  }
  return a;
}

Int lcm(Int a, Int b) {
  if (a == 0 || b == 0) return 0;
  Int g = gcd(a, b);
  return checked_mul(checked_abs(a) / g, checked_abs(b));
}

Int extended_gcd(Int a, Int b, Int& x, Int& y) {
  // Iterative extended Euclid on absolute values, signs fixed afterwards.
  Int old_r = a, r = b;
  Int old_x = 1, cur_x = 0;
  Int old_y = 0, cur_y = 1;
  while (r != 0) {
    Int q = old_r / r;
    Int t;
    t = checked_sub(old_r, checked_mul(q, r)); old_r = r; r = t;
    t = checked_sub(old_x, checked_mul(q, cur_x)); old_x = cur_x; cur_x = t;
    t = checked_sub(old_y, checked_mul(q, cur_y)); old_y = cur_y; cur_y = t;
  }
  if (old_r < 0) {
    old_r = checked_neg(old_r);
    old_x = checked_neg(old_x);
    old_y = checked_neg(old_y);
  }
  x = old_x;
  y = old_y;
  return old_r;
}

Int floor_div(Int a, Int b) {
  require(b != 0, "floor_div by zero");
  Int q = a / b;
  Int r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) --q;
  return q;
}

Int ceil_div(Int a, Int b) {
  require(b != 0, "ceil_div by zero");
  Int q = a / b;
  Int r = a % b;
  if (r != 0 && ((r < 0) == (b < 0))) ++q;
  return q;
}

Int mod_floor(Int a, Int b) {
  require(b != 0, "mod_floor by zero");
  Int m = a % b;
  if (m < 0) m = checked_add(m, checked_abs(b));
  return m;
}

int sign(Int a) { return a < 0 ? -1 : (a > 0 ? 1 : 0); }

}  // namespace lmre
