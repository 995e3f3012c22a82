#!/usr/bin/env bash
# Regenerates the golden files pinned by the test suite.  Run from the repo
# root after an intentional output-schema change, then review the diff:
#
#   ./scripts/regen_golden.sh [build-dir]
#
# Covers tests/golden/batch_loops.json, the byte-exact document
# `lmre batch --json examples/loops` must produce (golden_batch_test), and
# every file golden_parity_test pins: the `lmre analyze` / `lmre
# optimize` text documents (tests/golden/cli_*.txt) and the --json
# documents of analyze, analyze --symbolic, optimize, verify, codegen and
# mrc (cli_*.json, symbolic_*, verify_*, codegen_*, mrc_*).  Every --json
# document is the AnalysisSession payload in the verb's envelope, so these
# goldens also pin what `lmre batch` and `lmre serve` embed for the same
# requests.  Files whose schema did not change must come out
# byte-identical; review the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
LMRE="$BUILD/tools/lmre"
if [[ ! -x "$LMRE" ]]; then
  echo "error: $LMRE not built (cmake -B $BUILD -S . && cmake --build $BUILD)" >&2
  exit 1
fi

mkdir -p tests/golden
"$LMRE" batch --json examples/loops > tests/golden/batch_loops.json
echo "wrote tests/golden/batch_loops.json"

# Symbolic closed forms for the paper's Example 10 (Section 3.2 / 4.3
# formulas) and Example 6 (non-uniform decline, exits 3 -- that is the
# pinned behavior, not a regen failure).
"$LMRE" analyze --symbolic --json tests/golden/example10.loop \
  > tests/golden/symbolic_example10.json
echo "wrote tests/golden/symbolic_example10.json"
"$LMRE" analyze --symbolic --json tests/golden/example6.loop \
  > tests/golden/symbolic_example6.json || true
echo "wrote tests/golden/symbolic_example6.json"

# Legality certificates (src/verify).  Example 10: the optimizer's own plan,
# certified in audit mode.  Example 6: non-uniform references force the
# direction-vector path (LMRE-W020).  Example 8 with a hand-built i-reversal
# plan: refuted with concrete iteration-pair witnesses (LMRE-E019, exits 3
# -- pinned behavior, not a regen failure).
"$LMRE" verify --json tests/golden/example10.loop \
  > tests/golden/verify_example10.json
echo "wrote tests/golden/verify_example10.json"
"$LMRE" verify --json --plan="0 1; 1 0" tests/golden/example6.loop \
  > tests/golden/verify_example6.json
echo "wrote tests/golden/verify_example6.json"
"$LMRE" verify --json --plan="-1 0; 0 1" examples/loops/example8.loop \
  > tests/golden/verify_example8_witness.json || true
echo "wrote tests/golden/verify_example8_witness.json"
# The 2^62-element reference box (tests/golden/wide_box.loop): audit mode
# over the exact engine's widest addressable nests.
"$LMRE" verify --json tests/golden/wide_box.loop \
  > tests/golden/verify_wide_box.json
echo "wrote tests/golden/verify_wide_box.json"

# Codegen documents (src/codegen): identity-order lowering of the paper's
# Examples 6, 8 and 10 -- window accounting, buffer plans, and the full
# generated C unit.  Deterministic, so the whole envelope is pinned
# (golden_parity_test).
"$LMRE" codegen --json tests/golden/example6.loop \
  > tests/golden/codegen_example6.json
echo "wrote tests/golden/codegen_example6.json"
"$LMRE" codegen --json examples/loops/example8.loop \
  > tests/golden/codegen_example8.json
echo "wrote tests/golden/codegen_example8.json"
"$LMRE" codegen --json tests/golden/example10.loop \
  > tests/golden/codegen_example10.json
echo "wrote tests/golden/codegen_example10.json"
# One codegen row per trace drive: the optimizer's plans (Example 8's is a
# general T, Example 10's a skew), the 2^62-element box's sparse store, and
# tiled identity, skew and signed-permutation orders.
"$LMRE" codegen --json --plan examples/loops/example8.loop \
  > tests/golden/codegen_example8_plan.json
"$LMRE" codegen --json --plan tests/golden/example10.loop \
  > tests/golden/codegen_example10_plan.json
"$LMRE" codegen --json tests/golden/wide_box.loop \
  > tests/golden/codegen_wide_box.json
"$LMRE" codegen --json --plan=tile:4,4 examples/loops/2point.loop \
  > tests/golden/codegen_2point_tile.json
"$LMRE" codegen --json --plan="1 0; 1 1 | tile:4,8" examples/loops/2point.loop \
  > tests/golden/codegen_2point_skew_tile.json
"$LMRE" codegen --json --plan="0 1; 1 0 | tile:5,3" examples/loops/row_sum.loop \
  > tests/golden/codegen_row_sum_interchange_tile.json
echo "wrote tests/golden/codegen_{example8_plan,example10_plan,wide_box}.json"
echo "wrote tests/golden/codegen_{2point_tile,2point_skew_tile,row_sum_interchange_tile}.json"

# Miss-ratio curves (src/mrc): exact reuse-distance histograms + curves for
# the paper's Examples 6, 8 and 10 under the identity order, plus the
# optimizer's plan for Examples 8 and 10.  Example 10
# pins the LRU knee at 687 -- every reuse spans exactly 687 distinct
# elements under the identity order -- against the paper's MWS of 540
# (the forward-window policy is strictly tighter than LRU).
"$LMRE" mrc --json tests/golden/example6.loop \
  > tests/golden/mrc_example6.json
echo "wrote tests/golden/mrc_example6.json"
"$LMRE" mrc --json examples/loops/example8.loop \
  > tests/golden/mrc_example8.json
echo "wrote tests/golden/mrc_example8.json"
"$LMRE" mrc --json --plan examples/loops/example8.loop \
  > tests/golden/mrc_example8_plan.json
echo "wrote tests/golden/mrc_example8_plan.json"
"$LMRE" mrc --json --capacities=1,64,128,540,687,1024 \
  tests/golden/example10.loop > tests/golden/mrc_example10.json
echo "wrote tests/golden/mrc_example10.json"
"$LMRE" mrc --json --plan --capacities=1,64,128,540,687,1024 \
  tests/golden/example10.loop > tests/golden/mrc_example10_plan.json
echo "wrote tests/golden/mrc_example10_plan.json"
"$LMRE" mrc --json tests/golden/wide_box.loop > tests/golden/mrc_wide_box.json
echo "wrote tests/golden/mrc_wide_box.json"

# CLI documents: the analyze and optimize verbs, text and
# --json, plus the miss-ratio objective, on the paper's Examples 10 and 6
# and on the 2^62-element reference box.
for EX in example10 example6 wide_box; do
  "$LMRE" analyze "tests/golden/$EX.loop" > "tests/golden/cli_analyze_$EX.txt"
  "$LMRE" analyze --json "tests/golden/$EX.loop" \
    > "tests/golden/cli_analyze_$EX.json"
  "$LMRE" optimize "tests/golden/$EX.loop" > "tests/golden/cli_optimize_$EX.txt"
  "$LMRE" optimize --json "tests/golden/$EX.loop" \
    > "tests/golden/cli_optimize_$EX.json"
  "$LMRE" optimize --json --objective=miss-ratio:64 "tests/golden/$EX.loop" \
    > "tests/golden/cli_optimize_miss_ratio_$EX.json"
  echo "wrote tests/golden/cli_{analyze,optimize}_$EX.* and cli_optimize_miss_ratio_$EX.json"
done
