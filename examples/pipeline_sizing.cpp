// Scenario: sizing memory for a whole multi-phase pipeline, not one nest.
//
// Phase 1 computes a difference frame, phase 2 runs motion estimation on
// it, phase 3 filters the scores.  Per-phase windows ignore the data that
// must SURVIVE between phases; the Program model measures the combined
// window and the live set crossing each boundary.
//
// Usage: pipeline_sizing [--block=12] [--shift=4]

#include <iostream>

#include "exact/oracle.h"
#include "ir/builder.h"
#include "program/program.h"
#include "support/cli.h"
#include "support/text.h"

using namespace lmre;

namespace {

// Phase 1: diff[i][j] = cur[i][j] - prev[i][j].
LoopNest phase_diff(Int n) {
  NestBuilder b;
  b.loop("i", 1, n).loop("j", 1, n);
  ArrayId cur = b.array("cur", {n, n});
  ArrayId prev = b.array("prev", {n, n});
  ArrayId diff = b.array("diff", {n, n});
  b.statement()
      .write(diff, {{1, 0}, {0, 1}}, {0, 0})
      .read(cur, {{1, 0}, {0, 1}}, {0, 0})
      .read(prev, {{1, 0}, {0, 1}}, {0, 0});
  return b.build();
}

// Phase 2: score[c] accumulates |diff| along diagonal shifts.
LoopNest phase_motion(Int n, Int shift) {
  NestBuilder b;
  b.loop("c", -shift, shift).loop("i", 1, n).loop("j", 1, n);
  ArrayId diff = b.array("diff", {n, n});
  ArrayId score = b.array("score", {static_cast<Int>(2 * shift + 1)});
  b.statement()
      .write(score, {{1, 0, 0}, }, {shift + 1})
      .read(score, {{1, 0, 0}}, {shift + 1})
      .read(diff, {{0, 1, 0}, {0, 0, 1}}, {0, 0});
  return b.build();
}

// Phase 3: smooth[c] = score[c-1] + score[c] + score[c+1].
LoopNest phase_filter(Int shift) {
  Int m = 2 * shift + 1;
  NestBuilder b;
  b.loop("c", 2, m - 1);
  ArrayId score = b.array("score", {m});
  ArrayId smooth = b.array("smooth", {m});
  b.statement()
      .write(smooth, {{1}}, {0})
      .read(score, {{1}}, {-1})
      .read(score, {{1}}, {0})
      .read(score, {{1}}, {1});
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  Int n = 12, shift = 4;
  Cli cli("pipeline_sizing");
  cli.flag("block", &n, "frame edge length");
  cli.flag("shift", &shift, "motion search radius");
  if (auto rc = cli.parse_main(argc, argv)) return *rc;

  Program pipeline;
  pipeline.add_phase("diff", phase_diff(n));
  pipeline.add_phase("motion", phase_motion(n, shift));
  pipeline.add_phase("filter", phase_filter(shift));

  ProgramStats s = pipeline.simulate();

  std::cout << "Pipeline: diff -> motion -> filter  (" << s.iterations
            << " iterations total)\n\n";
  TextTable t;
  t.header({"phase", "starts at", "handoff in", "peak window in phase"});
  for (size_t k = 0; k < pipeline.phase_count(); ++k) {
    t.row({pipeline.phase_name(k), with_commas(s.phase_start[k]),
           with_commas(s.handoff[k]), with_commas(s.phase_mws[k])});
  }
  std::cout << t.render() << '\n';

  Int per_phase_sum = 0;
  for (size_t k = 0; k < pipeline.phase_count(); ++k) {
    per_phase_sum += simulate(pipeline.phase_nest(k)).mws_total;
  }
  std::cout << "declared (unified arrays):     " << with_commas(s.default_memory)
            << "\nsum of per-phase windows:      " << with_commas(per_phase_sum)
            << "\nwhole-program window (exact):  " << with_commas(s.mws_total)
            << "\n\nPer-phase analysis would miss the diff frame ("
            << with_commas(s.handoff[1])
            << " elements) parked across the\nphase boundary; the program-level "
               "window prices it in.\n";
  return 0;
}
