#pragma once

// Shared run options for the analysis pipeline.
//
// RunOptions is the one struct a caller fills once and hands to every
// stage (directly, or via the per-stage overloads in transform/minimizer.h
// and analysis/report.h); runtime/session.h threads it through the whole
// parse -> lint -> estimate -> MWS -> optimize pipeline.
//
// None of these fields may change a stage's *result* except by disabling
// work outright (verify_limit) or tightening acceptance (strict).  Every
// request runs on one thread; `threads` only sets how many requests a
// batch runs at once, which is why the result cache excludes it from its
// content hash.

#include "support/checked.h"

namespace lmre {

struct RunOptions {
  /// Batch fan-out width: how many requests AnalysisSession::run_batch
  /// runs at once (0 = hardware concurrency).  Each request itself runs on
  /// one thread, so this never affects results, only wall-clock time.
  int threads = 1;

  /// Iteration budget for exact (enumerating) analyses: the oracle runs
  /// only when the nest's iteration count -- or a candidate's transformed
  /// scan volume -- stays within this.  Matches the historical
  /// MinimizerOptions::verify_iteration_limit default.
  Int verify_limit = 2'000'000;

  /// Treat lint warnings like errors (the CLI's --strict).
  bool strict = false;
};

}  // namespace lmre
