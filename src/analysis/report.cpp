#include "analysis/report.h"

#include <sstream>

#include "analysis/distinct.h"
#include "analysis/nonuniform.h"
#include "analysis/window.h"
#include "dependence/dependence.h"
#include "exact/oracle.h"
#include "support/text.h"

namespace lmre {

namespace {

MemoryReport report_from(const LoopNest& nest, const std::optional<TraceStats>& exact) {
  MemoryReport rep;
  rep.default_memory = nest.default_memory();

  // At most one dependence analysis serves every array's window estimate.
  // The total is their sum: estimate_mws_total's value when every array
  // has an estimate, nullopt otherwise or when no array is referenced.
  std::optional<DependenceInfo> deps;
  bool mws_total_known = true;
  for (ArrayId id = 0; id < nest.arrays().size(); ++id) {
    std::vector<ArrayRef> refs = nest.refs_to(id);
    if (refs.empty()) continue;
    ArrayReport ar;
    ar.name = nest.array(id).name;
    ar.declared = nest.array(id).declared_size();

    bool uniform = true;
    for (size_t i = 1; i < refs.size(); ++i) {
      if (!refs[i].uniformly_generated_with(refs[0])) uniform = false;
    }
    if (uniform) {
      ar.distinct_estimate = estimate_distinct(nest, id).distinct;
      rep.distinct_estimate_total += *ar.distinct_estimate;
    } else {
      NonUniformBounds b = nonuniform_bounds(nest, id);
      ar.distinct_upper = b.upper;
      ar.distinct_lower = b.lower_paper;
      rep.distinct_estimate_total += b.upper;
    }
    ar.mws_estimate = estimate_mws_array(nest, deps, id);
    if (!ar.mws_estimate) mws_total_known = false;

    rep.arrays.push_back(std::move(ar));
  }

  if (mws_total_known && !rep.arrays.empty()) {
    Int total = 0;
    for (const ArrayReport& a : rep.arrays) total = checked_add(total, *a.mws_estimate);
    rep.mws_estimate_total = total;
  }
  if (exact) attach_exact(rep, nest, *exact);
  return rep;
}

}  // namespace

void attach_exact(MemoryReport& report, const LoopNest& nest, const TraceStats& exact) {
  // report.arrays holds the referenced arrays in ArrayId order.
  size_t next = 0;
  for (ArrayId id = 0; id < nest.arrays().size() && next < report.arrays.size(); ++id) {
    if (nest.refs_to(id).empty()) continue;
    ArrayReport& ar = report.arrays[next++];
    auto dit = exact.distinct.find(id);
    ar.distinct_exact = dit == exact.distinct.end() ? 0 : dit->second;
    auto mit = exact.mws.find(id);
    ar.mws_exact = mit == exact.mws.end() ? 0 : mit->second;
  }
  report.distinct_exact_total = exact.distinct_total;
  report.mws_exact_total = exact.mws_total;
}

MemoryReport analyze_memory(const LoopNest& nest, bool with_oracle) {
  std::optional<TraceStats> exact;
  if (with_oracle) exact = simulate(nest);
  return report_from(nest, exact);
}

MemoryReport analyze_memory(const LoopNest& nest, const RunOptions& run) {
  std::optional<TraceStats> exact;
  if (nest.iteration_count() <= run.verify_limit) {
    exact = simulate(nest);
  }
  return report_from(nest, exact);
}

namespace {

std::string opt_str(const std::optional<Int>& v) {
  return v ? with_commas(*v) : std::string("-");
}

}  // namespace

std::string render(const MemoryReport& report) {
  TextTable t;
  t.header({"array", "declared", "distinct est", "distinct exact", "MWS est", "MWS exact"});
  for (const auto& a : report.arrays) {
    std::string dist_est;
    if (a.distinct_estimate) {
      dist_est = with_commas(*a.distinct_estimate);
    } else if (a.distinct_upper) {
      dist_est = "[" + opt_str(a.distinct_lower) + ", " + opt_str(a.distinct_upper) + "]";
    } else {
      dist_est = "-";
    }
    t.row({a.name, with_commas(a.declared), dist_est, opt_str(a.distinct_exact),
           opt_str(a.mws_estimate), opt_str(a.mws_exact)});
  }
  t.row({"TOTAL", with_commas(report.default_memory),
         with_commas(report.distinct_estimate_total), opt_str(report.distinct_exact_total),
         opt_str(report.mws_estimate_total), opt_str(report.mws_exact_total)});
  return t.render();
}

}  // namespace lmre
