#pragma once

// Linear Diophantine systems A x == b over the integers.
//
// Dependence testing between two uniformly generated references reduces to
// exactly this: the set of distance vectors is a particular solution plus
// the kernel lattice of the access matrix.

#include <optional>
#include <vector>

#include "linalg/mat.h"

namespace lmre {

/// Full solution set of A x == b over Z: x = particular + sum k_i * kernel[i].
struct DiophantineSolution {
  IntVec particular;           ///< one integer solution
  std::vector<IntVec> kernel;  ///< lattice basis of the homogeneous solutions
};

/// Solves A x == b over the integers via the Smith normal form.
/// Returns nullopt when no integer solution exists.
std::optional<DiophantineSolution> solve_diophantine(const IntMat& a, const IntVec& b);

/// The integer solutions of A x == b as a lattice coset
/// x = particular + basis * t over t in Z^k, k = dim ker A.  `basis`
/// (cols(A) x k) is in column-echelon form -- strictly increasing pivot
/// rows, positive pivots -- so t -> x preserves lexicographic order: the
/// lex-first t of any set is the lex-min x of its image.
struct EchelonCoset {
  IntVec particular;
  IntMat basis;
};

/// Solves A x == b and puts the kernel basis into column-echelon form
/// (column_hermite).  Returns nullopt when no integer solution exists.
std::optional<EchelonCoset> echelon_solutions(const IntMat& a, const IntVec& b);

/// Solves the two-variable equation a*x + b*y == c.  Returns nullopt when
/// gcd(a,b) does not divide c (and when a==b==0 with c!=0).
std::optional<std::pair<Int, Int>> solve_linear2(Int a, Int b, Int c);

}  // namespace lmre
