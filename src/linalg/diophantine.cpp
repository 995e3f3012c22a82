#include "linalg/diophantine.h"

#include "linalg/normal_form.h"
#include "support/error.h"

namespace lmre {

std::optional<DiophantineSolution> solve_diophantine(const IntMat& a, const IntVec& b) {
  require(a.rows() == b.size(), "solve_diophantine: shape mismatch");
  // U A V == D  =>  A x == b  <=>  D y == U b  with  x == V y.
  SnfResult snf = smith_normal_form(a);
  IntVec c = snf.u * b;
  const size_t n = a.cols();
  const size_t k = std::min(a.rows(), n);
  IntVec y(n);
  for (size_t i = 0; i < a.rows(); ++i) {
    Int di = i < k ? snf.d(i, i) : 0;
    if (di != 0) {
      if (c[i] % di != 0) return std::nullopt;  // no integer solution
      y[i] = c[i] / di;
    } else if (c[i] != 0) {
      return std::nullopt;  // inconsistent equation 0 == c[i]
    }
  }
  DiophantineSolution sol;
  sol.particular = snf.v * y;
  for (size_t i = 0; i < n; ++i) {
    Int di = i < k ? snf.d(i, i) : 0;
    if (di == 0) sol.kernel.push_back(snf.v.col(i));
  }
  return sol;
}

std::optional<EchelonCoset> echelon_solutions(const IntMat& a, const IntVec& b) {
  std::optional<DiophantineSolution> sol = solve_diophantine(a, b);
  if (!sol) return std::nullopt;
  IntMat basis =
      sol->kernel.empty()
          ? IntMat(a.cols(), 0)
          : column_hermite(IntMat::from_rows(sol->kernel).transposed()).h;
  return EchelonCoset{std::move(sol->particular), std::move(basis)};
}

std::optional<std::pair<Int, Int>> solve_linear2(Int a, Int b, Int c) {
  if (a == 0 && b == 0) {
    if (c != 0) return std::nullopt;
    return std::make_pair(Int{0}, Int{0});
  }
  Int x, y;
  Int g = extended_gcd(a, b, x, y);
  if (c % g != 0) return std::nullopt;
  Int s = c / g;
  return std::make_pair(checked_mul(x, s), checked_mul(y, s));
}

}  // namespace lmre
