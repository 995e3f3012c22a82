#pragma once

// Intermediate representation of perfectly nested affine loops.
//
// This mirrors the paper's program model (Section 2): an n-deep perfect
// nest with constant bounds, a body of statements, and affine references
// A_D * I + b into declared arrays.

#include <string>
#include <utility>
#include <vector>

#include "linalg/mat.h"
#include "polyhedra/box.h"

namespace lmre {

/// Identifier of an array within its LoopNest (index into arrays()).
using ArrayId = size_t;

/// A declared array: its name and declared extents.  declared_size() is the
/// "default" memory column of the paper's Figure 2.
struct Array {
  std::string name;
  std::vector<Int> extents;

  size_t dims() const { return extents.size(); }

  /// Product of the extents: the number of declared elements.
  Int declared_size() const;
};

enum class AccessKind { kRead, kWrite };

/// An affine array reference: element accessed at iteration I is
/// access * I + offset.
struct ArrayRef {
  ArrayId array = 0;
  AccessKind kind = AccessKind::kRead;
  IntMat access;  ///< d x n data reference matrix
  IntVec offset;  ///< d-vector

  /// The d-dimensional index touched at iteration `iter`.
  IntVec index_at(const IntVec& iter) const;

  /// Linearizes the reference against a row-major element box: writes the
  /// flat address sum_d stride[d] * (index_at(iter)[d] - lo[d]) as the
  /// affine form coef . iter + c0.  `lo`/`stride` are per array dimension;
  /// all arithmetic is overflow-checked (OverflowError on blow-up), which
  /// is how the dense trace engine detects un-linearizable nests.
  void linearize(const std::vector<Int>& lo, const std::vector<Int>& stride,
                 IntVec* coef, Int* c0) const;

  bool is_write() const { return kind == AccessKind::kWrite; }

  /// True when `o` is uniformly generated with this reference: same array
  /// and same access matrix (offsets may differ) -- Section 2.3.
  bool uniformly_generated_with(const ArrayRef& o) const;
};

/// Range [min, max] of one affine subscript expression coeffs . I + constant
/// over the box (interval arithmetic; exact for boxes).  Overflow-checked.
std::pair<Int, Int> subscript_range(const IntVec& coeffs, Int constant, const IntBox& box);

/// A statement is an ordered list of references (writes first by
/// convention, matching "lhs = rhs" source order).
struct Statement {
  std::vector<ArrayRef> refs;
};

/// A perfect loop nest: bounds box, declared arrays, body statements.
class LoopNest {
 public:
  LoopNest(std::vector<std::string> loop_vars, IntBox bounds,
           std::vector<Array> arrays, std::vector<Statement> statements);

  size_t depth() const { return bounds_.dims(); }
  const IntBox& bounds() const { return bounds_; }
  const std::vector<std::string>& loop_vars() const { return loop_vars_; }
  const std::vector<Array>& arrays() const { return arrays_; }
  const Array& array(ArrayId id) const;
  const std::vector<Statement>& statements() const { return statements_; }

  /// Total number of iterations.
  Int iteration_count() const { return bounds_.volume(); }

  /// All references (across statements) in execution order.  Built once
  /// by the constructor: the nest is immutable.
  const std::vector<ArrayRef>& all_refs() const { return all_refs_; }

  /// All references to a given array, in execution order (empty for an
  /// array the body never touches).
  const std::vector<ArrayRef>& refs_to(ArrayId id) const;

  /// Sum of declared sizes over all arrays referenced in the body.
  Int default_memory() const;

  /// Validates shapes (access matrices d x n, offsets length d, array ids in
  /// range); throws InvalidArgument on violations.  Called by the ctor.
  void validate() const;

 private:
  std::vector<std::string> loop_vars_;
  IntBox bounds_;
  std::vector<Array> arrays_;
  std::vector<Statement> statements_;
  std::vector<ArrayRef> all_refs_;
  std::vector<std::vector<ArrayRef>> refs_by_array_;  ///< indexed by ArrayId
};

}  // namespace lmre
