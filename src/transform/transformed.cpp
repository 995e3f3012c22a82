#include "transform/transformed.h"

#include <algorithm>
#include <sstream>

#include "ir/printer.h"
#include "polyhedra/scanner.h"
#include "support/error.h"
#include "support/text.h"

namespace lmre {

TransformedNest::TransformedNest(LoopNest nest, IntMat t)
    : nest_(std::move(nest)), t_(std::move(t)), t_inv_(IntMat::identity(0)) {
  require(t_.rows() == nest_.depth() && t_.cols() == nest_.depth(),
          "TransformedNest: transform shape mismatch");
  require(t_.is_unimodular(), "TransformedNest: transform must be unimodular");
  t_inv_ = t_.inverse_unimodular();
}

ArrayRef TransformedNest::transformed_ref(const ArrayRef& ref) const {
  ArrayRef out = ref;
  out.access = ref.access * t_inv_;
  return out;
}

ConstraintSystem TransformedNest::space() const {
  return nest_.bounds().image_constraints(t_inv_);
}

LoopBounds TransformedNest::bounds() const { return extract_loop_bounds(space()); }

Int TransformedNest::maxspan_inner() const {
  // The widest innermost row over every outer prefix.
  Int best = 0;
  scan_rows(bounds(), [&best](const IntVec&, Int lo, Int hi) {
    best = std::max(best, checked_sub(hi, lo));
  });
  return best;
}

TraceStats TransformedNest::simulate() const { return simulate_transformed(nest_, t_); }

namespace {

std::string bound_str(const Bound& b, const std::vector<std::string>& names, bool lower) {
  std::string e = b.expr.str(names);
  if (b.divisor == 1) return e;
  return (lower ? "ceild(" : "floord(") + e + ", " + std::to_string(b.divisor) + ")";
}

std::string bounds_str(const std::vector<Bound>& bs, const std::vector<std::string>& names,
                       bool lower) {
  if (bs.size() == 1) return bound_str(bs[0], names, lower);
  std::vector<std::string> parts;
  for (const auto& b : bs) parts.push_back(bound_str(b, names, lower));
  return std::string(lower ? "max(" : "min(") + join(parts, ", ") + ")";
}

}  // namespace

std::string TransformedNest::print() const {
  LoopBounds lb = bounds();
  const size_t n = nest_.depth();
  std::vector<std::string> names;
  for (size_t k = 0; k < n; ++k) names.push_back("u" + std::to_string(k));

  std::ostringstream os;
  if (lb.known_empty) {
    os << "// empty iteration space\n";
    return os.str();
  }
  for (size_t k = 0; k < n; ++k) {
    os << repeat("  ", static_cast<int>(k)) << "for (" << names[k] << " = "
       << bounds_str(lb.lowers[k], names, true) << "; " << names[k]
       << " <= " << bounds_str(lb.uppers[k], names, false) << "; ++" << names[k] << ")\n";
  }
  std::string indent = repeat("  ", static_cast<int>(n));
  for (const auto& stmt : nest_.statements()) {
    os << indent;
    std::vector<std::string> parts;
    for (const auto& ref : stmt.refs) {
      ArrayRef tr = transformed_ref(ref);
      std::ostringstream rs;
      rs << nest_.array(tr.array).name;
      for (size_t dim = 0; dim < tr.access.rows(); ++dim) {
        AffineExpr e(tr.access.row(dim), tr.offset[dim]);
        rs << '[' << e.str(names) << ']';
      }
      parts.push_back(rs.str());
    }
    os << join(parts, ", ") << ";\n";
  }
  return os.str();
}

}  // namespace lmre
