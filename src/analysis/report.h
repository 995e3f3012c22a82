#pragma once

// Memory-requirement reports: the end-to-end estimation pipeline.
//
// Combines declared ("default") sizes, the closed-form estimates of
// Section 3/4, and (optionally) the exact oracle into one per-nest report;
// this is what the Figure-2 bench and the examples print.

#include <optional>
#include <string>
#include <vector>

#include "ir/nest.h"
#include "support/options.h"

namespace lmre {

struct TraceStats;  // exact/oracle.h

struct ArrayReport {
  std::string name;
  Int declared = 0;  ///< declared size (the paper's "default" column)

  std::optional<Int> distinct_estimate;  ///< closed-form; nullopt: non-uniform
  std::optional<Int> distinct_upper;     ///< non-uniform upper bound, if used
  std::optional<Int> distinct_lower;     ///< non-uniform lower bound (paper rule)
  std::optional<Int> mws_estimate;       ///< closed-form window estimate

  std::optional<Int> distinct_exact;  ///< from the oracle, when requested
  std::optional<Int> mws_exact;
};

struct MemoryReport {
  Int default_memory = 0;
  Int distinct_estimate_total = 0;
  std::optional<Int> mws_estimate_total;
  std::optional<Int> distinct_exact_total;
  std::optional<Int> mws_exact_total;  ///< exact max_I of the combined window
  std::vector<ArrayReport> arrays;
};

/// Runs estimation (and the oracle when `with_oracle`) on the nest.
MemoryReport analyze_memory(const LoopNest& nest, bool with_oracle = true);

/// analyze_memory under the shared pipeline options: the oracle runs only
/// when the nest's iteration count is within run.verify_limit.
MemoryReport analyze_memory(const LoopNest& nest, const RunOptions& run);

/// Fills the report's exact columns from an oracle run over the same nest
/// -- what analyze_memory does when it runs the oracle itself.
void attach_exact(MemoryReport& report, const LoopNest& nest, const TraceStats& exact);

/// Renders the report as an aligned text table.
std::string render(const MemoryReport& report);

}  // namespace lmre
