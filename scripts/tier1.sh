#!/usr/bin/env bash
# Tier-1 gate: the standard build + full ctest run, a static-analysis
# stage (clang-tidy when available + -Werror strict rebuild with a verify
# smoke), a batch smoke, a cli-smoke (every verb's --json document or
# refusal, each analysis verb's document equal to the serve payload, the
# example binaries' defaults and junk-flag refusal), a serve
# smoke (socket round trips byte-identical to batch, overload shedding,
# single-flight coalescing, graceful SIGTERM drain), a serve-load smoke
# (CLI TCP round trip byte-identical to the Unix transport + the
# bench_server --check load-harness gate), then two sanitizer passes --
# ThreadSanitizer over the batch fan-out + shared-cache/server suites
# and ASan+UBSan over the parser / lint / CLI / server suites (the layers
# that chew on untrusted input) and the optimizer / report / session suites
# -- plus a symbolic-smoke stage (closed forms
# differential vs the oracle under ASan, golden + decline corpora), the
# oracle perf gate, a codegen smoke (ASan emission, system-cc compile
# + execute round trip, bench_codegen --check latency gate), and an
# mrc-smoke stage (ASan property subset, pinned curve envelopes, the
# Example 10 knee, bench_mrc --check sampling-error gate).  Run from
# the repo root:
#
#   scripts/tier1.sh
#
# The sanitizer stages build into build-tsan/ and build-asan/ so they
# never disturb the primary build tree.  All stages must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier 1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== tier 1: static analysis (clang-tidy + -Werror strict build) =="
# Full rebuild with warnings promoted to errors and clang-tidy running
# alongside the compiler (profile in .clang-tidy, WarningsAsErrors there
# too).  When the container lacks a clang-tidy binary the CMake option
# degrades to a -Werror-only gate with a warning -- still a hard stop for
# any compiler diagnostic.  Builds into build-strict/ so the primary tree
# keeps its plain flags, then runs the verify smoke against the strict
# binary: the prover must certify the optimizer's Example 8 plan and
# refute the hand-built reversal with a checker-validated witness.
cmake -B build-strict -S . -DLMRE_WERROR=ON -DLMRE_CLANG_TIDY=ON >/dev/null
cmake --build build-strict -j "$JOBS"
./build-strict/tools/lmre verify examples/loops/example8.loop >/dev/null \
  || { echo "FAIL: strict-build verify audit of example8 did not certify"; exit 1; }
if ./build-strict/tools/lmre verify --plan="-1 0; 0 1" \
    examples/loops/example8.loop > /tmp/lmre_strict_verify.out; then
  echo "FAIL: strict-build verify certified an illegal reversal plan"; exit 1
fi
grep -q 'LMRE-E019' /tmp/lmre_strict_verify.out \
  || { echo "FAIL: refuted plan carried no LMRE-E019 witness"; exit 1; }
grep -q 'checker: ok' /tmp/lmre_strict_verify.out \
  || { echo "FAIL: independent checker rejected the verify certificate"; exit 1; }

echo "== tier 1: batch smoke (cold + warm cache, metrics emission) =="
# Run the batch verb twice against one cache dir: the cold run populates
# it, the warm run must serve from it, and both runs must agree byte for
# byte.  The metrics snapshot lands in BENCH_runtime.json (gitignored);
# the gate fails if it is missing or malformed.
BATCH_CACHE="$(mktemp -d)"
trap 'rm -rf "$BATCH_CACHE"' EXIT
./build/tools/lmre batch --json --cache-dir="$BATCH_CACHE" examples/loops \
  > "$BATCH_CACHE/cold.json"
./build/tools/lmre batch --json --cache-dir="$BATCH_CACHE" \
  --metrics=BENCH_runtime.json examples/loops > "$BATCH_CACHE/warm.json"
cmp "$BATCH_CACHE/cold.json" "$BATCH_CACHE/warm.json" \
  || { echo "FAIL: warm batch output differs from cold"; exit 1; }
[ -s BENCH_runtime.json ] \
  || { echo "FAIL: BENCH_runtime.json missing or empty"; exit 1; }
grep -q '"schema_version"' BENCH_runtime.json \
  || { echo "FAIL: BENCH_runtime.json lacks the versioned envelope"; exit 1; }
grep -q '"cache.hit_rate": 1' BENCH_runtime.json \
  || { echo "FAIL: warm batch did not hit the cache for every file"; exit 1; }

echo "== tier 1: cli-smoke (--json documents, refusals, example binaries) =="
# Every verb with a JSON form emits a document python3 parses, and the
# analysis verbs' documents carry the serve payload; every verb without
# one refuses --json with exit 2.  Each example binary runs with
# its defaults and refuses a junk value for its first flag.
for VERB in version batch analyze optimize lint verify codegen mrc; do
  INPUT=examples/loops/fir.loop
  [ "$VERB" = version ] && INPUT=
  # shellcheck disable=SC2086  # version takes no input file
  ./build/tools/lmre "$VERB" --json $INPUT > "$BATCH_CACHE/cli_$VERB.json" \
    || { echo "FAIL: lmre $VERB --json exited nonzero"; exit 1; }
  python3 -m json.tool "$BATCH_CACHE/cli_$VERB.json" >/dev/null \
    || { echo "FAIL: lmre $VERB --json is not a JSON document"; exit 1; }
done
# The analysis verbs' --json is the session payload: each document's
# "result" must parse equal to what `serve --stdio` answers for the same
# request (the verb's wire kind, the default options).
for SPEC in analyze:analyze analyze:symbolic:--symbolic optimize:optimize \
    verify:verify codegen:codegen mrc:mrc; do
  IFS=: read -r VERB KIND FLAG <<< "$SPEC"
  # shellcheck disable=SC2086  # FLAG is empty or one flag
  ./build/tools/lmre "$VERB" --json $FLAG examples/loops/fir.loop \
    > "$BATCH_CACHE/parity_cli.json"
  python3 -c 'import json, sys
print(json.dumps({"id": 1, "kind": sys.argv[1], "source": open(sys.argv[2]).read()}))' \
    "$KIND" examples/loops/fir.loop \
    | ./build/tools/lmre serve --stdio > "$BATCH_CACHE/parity_serve.json"
  python3 -c 'import json, sys
cli = json.load(open(sys.argv[1]))["result"]
served = json.load(open(sys.argv[2]))["result"]["result"]
sys.exit(cli != served)' "$BATCH_CACHE/parity_cli.json" "$BATCH_CACHE/parity_serve.json" \
    || { echo "FAIL: lmre $VERB${FLAG:+ $FLAG} --json differs from the serve payload"; exit 1; }
done
# lint --json answers a parse error with the same error document (and
# exit code 3) as the session verbs, not a stderr line.
printf 'array A[10];\nfor i = 1 to\n' > "$BATCH_CACHE/parse_error.loop"
RC=0
./build/tools/lmre lint --json "$BATCH_CACHE/parse_error.loop" \
  > "$BATCH_CACHE/cli_lint_parse.json" 2>"$BATCH_CACHE/cli_lint_parse.err" || RC=$?
[ "$RC" -eq 3 ] \
  || { echo "FAIL: lmre lint --json on a parse error exited $RC, not 3"; exit 1; }
python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
sys.exit(doc["result"]["error"]["kind"] != "parse")' "$BATCH_CACHE/cli_lint_parse.json" \
  || { echo "FAIL: lmre lint --json printed no parse-error document"; exit 1; }
for VERB in distances series request serve figure2; do
  RC=0
  ./build/tools/lmre "$VERB" --json examples/loops/fir.loop </dev/null \
    >/dev/null 2>&1 || RC=$?
  [ "$RC" -eq 2 ] \
    || { echo "FAIL: lmre $VERB --json exited $RC, not 2"; exit 1; }
done
for EXAMPLE in quickstart:n1 memory_sizing:block optimize_nest:a1 \
    filter_scheduling:frames analyze_file:file pipeline_sizing:block \
    design_space:n1; do
  BIN="./build/examples/${EXAMPLE%%:*}"
  FLAG="--${EXAMPLE#*:}=4x"
  "$BIN" < examples/loops/fir.loop >/dev/null \
    || { echo "FAIL: $BIN exited nonzero with its defaults"; exit 1; }
  if "$BIN" "$FLAG" < examples/loops/fir.loop >/dev/null 2>&1; then
    echo "FAIL: $BIN accepted $FLAG"; exit 1
  fi
done

echo "== tier 1: serve smoke (socket round trips, overload, graceful stop) =="
# Start a server, prove a cold and a warm request return byte-identical
# payloads that also appear verbatim in `lmre batch` output for the same
# file, probe load-shedding at queue depth 1 over the stdio transport, and
# check SIGTERM drains cleanly (exit 0) and flushes the metrics snapshot.
SERVE_SOCK="$BATCH_CACHE/serve.sock"
./build/tools/lmre serve "$SERVE_SOCK" --workers=2 \
  --metrics="$BATCH_CACHE/serve_metrics.json" &
SERVE_PID=$!
for _ in $(seq 50); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] || { echo "FAIL: serve socket never appeared"; exit 1; }
./build/tools/lmre request "$SERVE_SOCK" examples/loops/fir.loop --raw \
  > "$BATCH_CACHE/serve_cold.json"
./build/tools/lmre request "$SERVE_SOCK" examples/loops/fir.loop --raw \
  > "$BATCH_CACHE/serve_warm.json"
cmp "$BATCH_CACHE/serve_cold.json" "$BATCH_CACHE/serve_warm.json" \
  || { echo "FAIL: warm serve response differs from cold"; exit 1; }
./build/tools/lmre batch --json examples/loops/fir.loop \
  > "$BATCH_CACHE/serve_batch.json"
grep -qF "$(cat "$BATCH_CACHE/serve_cold.json")" "$BATCH_CACHE/serve_batch.json" \
  || { echo "FAIL: serve payload not byte-identical to lmre batch"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" \
  || { echo "FAIL: serve did not exit 0 on SIGTERM"; exit 1; }
grep -q '"serve.completed": 2' "$BATCH_CACHE/serve_metrics.json" \
  || { echo "FAIL: serve metrics snapshot missing request counts"; exit 1; }
grep -q '"serve.latency_ms"' "$BATCH_CACHE/serve_metrics.json" \
  || { echo "FAIL: serve metrics snapshot lacks the latency histogram"; exit 1; }
# The Unix transport runs on the shared socket loop: its live connection
# counters count the two request connections.
grep -q '"serve.conn_opened": 2' "$BATCH_CACHE/serve_metrics.json" \
  || { echo "FAIL: serve metrics snapshot did not count 2 connections"; exit 1; }
# One cache lookup per request: the cold request is the worker's one
# miss, the warm one is answered from memory at admission (one hit).
grep -q '"runs.cached": 1' "$BATCH_CACHE/serve_metrics.json" \
  || { echo "FAIL: warm serve request was not one cached run"; exit 1; }
grep -q '"cache.misses": 1' "$BATCH_CACHE/serve_metrics.json" \
  || { echo "FAIL: serve counted other than one miss for cold + warm"; exit 1; }
# Overload probe: one worker, queue depth 1, three back-to-back identical
# requests over stdio with coalescing disabled.  The single worker holds
# the first (heavy) request while the later lines arrive, so the bounded
# queue must shed at least one of them with "overloaded" -- and every line
# still gets a response.
OVERLOAD_OUT="$BATCH_CACHE/serve_overload.out"
OVERLOAD_SRC="$(grep -v '^#' examples/loops/matmult.loop | tr '\n' ' ')"
{ for i in 1 2 3; do
    printf '{"id":%d,"source":"%s"}\n' "$i" "$OVERLOAD_SRC"
  done
} | ./build/tools/lmre serve --stdio --workers=1 --queue-depth=1 \
  --no-coalesce > "$OVERLOAD_OUT"
[ "$(wc -l < "$OVERLOAD_OUT")" -eq 3 ] \
  || { echo "FAIL: stdio serve did not answer every request line"; exit 1; }
grep -q '"overloaded"' "$OVERLOAD_OUT" \
  || { echo "FAIL: full queue did not shed with an overloaded response"; exit 1; }
# The same three identical lines WITH coalescing (the default): the queue
# never fills because duplicates park on the in-flight computation, so all
# three answer successfully and the snapshot counts two coalesced fans.
COALESCE_OUT="$BATCH_CACHE/serve_coalesce.out"
{ for i in 1 2 3; do
    printf '{"id":%d,"source":"%s"}\n' "$i" "$OVERLOAD_SRC"
  done
} | ./build/tools/lmre serve --stdio --workers=1 --queue-depth=1 \
  --metrics="$BATCH_CACHE/serve_coalesce_metrics.json" > "$COALESCE_OUT"
[ "$(wc -l < "$COALESCE_OUT")" -eq 3 ] \
  || { echo "FAIL: coalescing stdio serve did not answer every line"; exit 1; }
grep -q '"overloaded"' "$COALESCE_OUT" \
  && { echo "FAIL: coalescing serve shed an identical duplicate"; exit 1; }
grep -q '"serve.coalesced": 2' "$BATCH_CACHE/serve_coalesce_metrics.json" \
  || { echo "FAIL: metrics snapshot did not count 2 coalesced responses"; exit 1; }

echo "== tier 1: serve-load smoke (TCP transport + load harness gate) =="
# CLI TCP round trip: an ephemeral port announced on stdout, one request
# over --tcp whose payload must be byte-identical to the Unix-socket
# payload above, SIGTERM drain, and the metrics snapshot carrying the
# connection counters and the shard configuration.
TCP_OUT="$BATCH_CACHE/serve_tcp.out"
./build/tools/lmre serve --tcp=127.0.0.1:0 --workers=2 --cache-shards=4 \
  --metrics="$BATCH_CACHE/serve_tcp_metrics.json" > "$TCP_OUT" &
TCP_PID=$!
for _ in $(seq 50); do grep -q 'listening on' "$TCP_OUT" 2>/dev/null && break; sleep 0.1; done
TCP_PORT="$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$TCP_OUT")"
[ -n "$TCP_PORT" ] \
  || { echo "FAIL: serve --tcp never announced its port"; exit 1; }
./build/tools/lmre request --tcp=127.0.0.1:"$TCP_PORT" --raw \
  examples/loops/fir.loop > "$BATCH_CACHE/tcp_cold.json"
cmp "$BATCH_CACHE/tcp_cold.json" "$BATCH_CACHE/serve_cold.json" \
  || { echo "FAIL: TCP serve payload differs from the Unix-socket payload"; exit 1; }
kill -TERM "$TCP_PID"
wait "$TCP_PID" \
  || { echo "FAIL: serve --tcp did not exit 0 on SIGTERM"; exit 1; }
grep -q '"serve.conn_opened": 1' "$BATCH_CACHE/serve_tcp_metrics.json" \
  || { echo "FAIL: TCP metrics snapshot missing the connection counters"; exit 1; }
grep -q '"cache.shards": 4' "$BATCH_CACHE/serve_tcp_metrics.json" \
  || { echo "FAIL: metrics snapshot missing the cache shard config"; exit 1; }
# Load-harness regression gate at reduced scale: sharded-cache replay,
# a 200-connection TCP storm over mixed request kinds, the single-flight
# exactly-one-computation proof, and the overload shed demo.  Runs in the
# temp dir so its check-mode BENCH_server.json never clobbers the full-run
# snapshot at the repo root.
(cd "$BATCH_CACHE" && exec "$OLDPWD/build/bench/bench_server" --check) \
  || { echo "FAIL: bench_server --check load gate"; exit 1; }

echo "== tier 1: ThreadSanitizer pass over the parallel suites =="
# parallel_map_test: the batch fan-out primitive, plus the search and the
# oracle run as concurrent requests.  Plus runtime_test: the metric handles
# are atomics that the serve loop thread and the workers update at once.
cmake -B build-tsan -S . -DLMRE_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target parallel_map_test cache_stress_test server_test runtime_test
./build-tsan/tests/parallel_map_test
./build-tsan/tests/cache_stress_test
./build-tsan/tests/server_test
./build-tsan/tests/runtime_test

echo "== tier 1: ASan+UBSan pass over the input-handling suites =="
# Plus the optimizer / report / session suites: the shared-dependence
# search overloads and the uncertified-plan downgrade path.  Plus the
# support / vector / box suites: the checked arithmetic and the
# bounds-checked accessors are inline, so a lost check shows here as
# signed overflow or an out-of-bounds read.  Plus the CLI document suites
# (every golden CLI document, each --json one byte-compared with the
# session and serve payloads; JSON envelopes): the verbs render from the
# same per-kind handlers batch and serve run.  Plus
# server_test: one socket loop frames untrusted bytes for both the TCP and
# the Unix-domain transport.  Plus the dependence / Fourier-Motzkin /
# lex-min differential suites: the echelon lex-min search and the in-place
# elimination rows index their buffers by hand.  Plus the trace-engine
# suites (oracle, liveness, stack distances, programs and the program
# differential): every exact trace steps u64 addresses through one driver.
# Plus the prover's suites (the verify corpus, the lattice-space
# differential and the first 100 cases of the order-oracle sweep): the
# searches index lattice rows and constraint buffers by hand.  Plus
# trace_engine_test: signed permutations sweep T * box with the box
# driver, whose sequence it pins to the polyhedral driver's.
# A UBSan finding stops the stage (halt_on_error), and float-cast-overflow,
# which GCC leaves out of "undefined", catches out-of-range double-to-integer
# casts such as a wire deadline past the clock's range.
# Plus payload_order_test: every payload object is streamed through the
# JsonWriter into its response string, each key written by hand in order.
# (check_alloc_test replaces operator new and stays out of this stage.)
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
cmake -B build-asan -S . -DLMRE_SANITIZE=address,undefined,float-cast-overflow >/dev/null
cmake --build build-asan -j "$JOBS" \
  --target parser_test lint_test cli_tool_test minimizer_test report_test \
  runtime_test support_test vec_mat_test scanner_box_test golden_parity_test \
  json_test server_test \
  dependence_test fourier_motzkin_test property_lattice_test \
  oracle_test liveness_test stack_distance_test program_test \
  program_differential_test verify_corpus_test verify_lattice_test \
  property_verify_test trace_engine_test payload_order_test lmre_cli
./build-asan/tests/parser_test
./build-asan/tests/lint_test
./build-asan/tests/cli_tool_test
./build-asan/tests/minimizer_test
./build-asan/tests/report_test
./build-asan/tests/runtime_test
./build-asan/tests/support_test
./build-asan/tests/vec_mat_test
./build-asan/tests/scanner_box_test
./build-asan/tests/golden_parity_test
./build-asan/tests/json_test
./build-asan/tests/server_test
./build-asan/tests/dependence_test
./build-asan/tests/fourier_motzkin_test
./build-asan/tests/property_lattice_test
./build-asan/tests/oracle_test
./build-asan/tests/liveness_test
./build-asan/tests/stack_distance_test
./build-asan/tests/program_test
./build-asan/tests/program_differential_test
./build-asan/tests/verify_corpus_test
./build-asan/tests/verify_lattice_test
./build-asan/tests/property_verify_test \
  --gtest_filter='Sweep/VerifyProperty.*/?:Sweep/VerifyProperty.*/??'
./build-asan/tests/trace_engine_test
./build-asan/tests/payload_order_test
# Nests deeper than the inline storage of IntVec (8 entries) and IntMat
# (16): their heap-spill paths run under the sanitizers end to end.  The
# 9-deep nest's iteration and distance vectors spill; analyze, codegen,
# mrc and verify (with an explicit 9 x 9 plan) run on it.  The optimizer's
# search grows factorially with depth, so optimize and verify's default
# audit (which runs the optimizer) take a 6-deep nest, whose 6 x 6
# transforms spill.  The references are uniformly generated: at depth 9
# the prover's non-uniform path alone takes seconds.
deep_nest() {
  echo "array A[5][5];"
  for d in $(seq 1 "$1"); do printf '%*sfor i%d = 1 to 2\n' $((d - 1)) '' "$d"; done
  printf '%*sA[i1 + i2][i%d + 1] = A[i1 + i2][i%d] + A[i1 + i2][i%d + 2];\n' \
    "$1" '' "$1" "$1" "$1"
}
deep_nest 9 > "$BATCH_CACHE/deep9.loop"
deep_nest 6 > "$BATCH_CACHE/deep6.loop"
IDENTITY9="$(python3 -c 'print("; ".join(" ".join("1" if r == c else "0"
  for c in range(9)) for r in range(9)))')"
for SPEC in "analyze:deep9" "codegen:deep9" "mrc:deep9" "verify:deep9:--plan=$IDENTITY9" \
    "optimize:deep6" "verify:deep6"; do
  IFS=: read -r VERB NEST FLAG <<< "$SPEC"
  # shellcheck disable=SC2086  # FLAG is empty or one flag
  ./build-asan/tools/lmre "$VERB" --json ${FLAG:+"$FLAG"} "$BATCH_CACHE/$NEST.loop" \
    > "$BATCH_CACHE/deep_$VERB.json" \
    || { echo "FAIL: lmre $VERB on the $NEST nest under ASan+UBSan"; exit 1; }
  python3 -m json.tool "$BATCH_CACHE/deep_$VERB.json" >/dev/null \
    || { echo "FAIL: lmre $VERB on the $NEST nest printed no JSON document"; exit 1; }
done

echo "== tier 1: symbolic-smoke (ASan differential subset + golden check) =="
# The symbolic closed forms must stay oracle-exact under ASan+UBSan: run
# the paper-kernel + clamping-edge differential subset (the full 300-nest
# sweep stays in the plain ctest pass, where the `symbolic` ctest label
# covers it serially and as concurrent requests), then re-pin the golden envelopes for the
# paper's Example 6 (decline) and Example 10 (Sections 3.2 / 4.3).
cmake --build build-asan -j "$JOBS" --target property_symbolic_test \
  golden_parity_test symbolic_reject_test
./build-asan/tests/property_symbolic_test \
  --gtest_filter='PropertySymbolic.PaperKernels:PropertySymbolic.Example10ClampingEdges:PropertySymbolic.LoopCorpus'
./build-asan/tests/golden_parity_test --gtest_filter='GoldenSymbolic.*'
./build-asan/tests/symbolic_reject_test
(cd build && ctest -L symbolic --output-on-failure -j "$JOBS") \
  || { echo "FAIL: symbolic-labeled ctest subset"; exit 1; }
# Latency gate: an lmre analyze --symbolic request must answer in under
# 10 ms even at 10^18-iteration bounds (writes BENCH_symbolic.json).
./build/bench/bench_symbolic --check \
  || { echo "FAIL: symbolic path missed the 10 ms budget or the oracle"; exit 1; }

echo "== tier 1: oracle smoke (dense vs reference differential + perf gate) =="
# The dense-address trace engine must stay bit-identical to the retained
# hash-map reference under ASan+UBSan (the differential property suite),
# bench_oracle --check fails if the dense engine is ever slower than 2x the
# reference on any bench kernel or on the minimizer's verify loop, and the
# lmre binary must carry no lmre::reference:: symbol.
cmake --build build-asan -j "$JOBS" --target property_oracle_test
./build-asan/tests/property_oracle_test
./build/bench/bench_oracle --check \
  || { echo "FAIL: dense oracle engine regressed past the perf gate"; exit 1; }
# One engine in production: no production object calls the hash-map
# reference engine, so the lmre binary must not link any of it (it stays in
# lmre_exact for the differential tests and the benches).
if nm -C build/tools/lmre | grep -q 'lmre::reference::'; then
  echo "FAIL: the lmre binary links the hash-map reference engine"; exit 1
fi

echo "== tier 1: codegen smoke (ASan emission + system-cc round trip) =="
# The C backend under ASan+UBSan emits two paper kernels end to end --
# fir.loop under the optimizer's plan and example8.loop in identity order
# -- and the system cc compiles and executes each generated unit, whose
# embedded self-check must report bit-identity, the predicted window and
# clean traffic (status 0).  When the container has no C compiler the
# round trip is skipped VISIBLY; emission still runs.  bench_codegen
# --check then gates emit latency (< 100 ms per kernel) and re-runs the
# whole Figure-2 + corpus table against the plain build.
cmake --build build-asan -j "$JOBS" --target lmre_cli codegen_test
./build-asan/tests/codegen_test
if command -v cc >/dev/null; then
  for KERNEL in "examples/loops/fir.loop --plan" "examples/loops/example8.loop"; do
    # shellcheck disable=SC2086  # intentional word split: file + flags
    ./build-asan/tools/lmre codegen --run --json $KERNEL \
      > "$BATCH_CACHE/codegen_smoke.json" \
      || { echo "FAIL: codegen --run exited nonzero on $KERNEL"; exit 1; }
    grep -q '"identical":true' "$BATCH_CACHE/codegen_smoke.json" \
      || { echo "FAIL: generated code not bit-identical on $KERNEL"; exit 1; }
    grep -q '"status":0' "$BATCH_CACHE/codegen_smoke.json" \
      || { echo "FAIL: generated self-check failed on $KERNEL"; exit 1; }
  done
else
  echo "SKIP: no system C compiler on PATH; codegen round trip not run"
  ./build-asan/tools/lmre codegen examples/loops/example8.loop >/dev/null \
    || { echo "FAIL: codegen emission failed without a compiler"; exit 1; }
fi
./build/bench/bench_codegen --check \
  || { echo "FAIL: codegen emit latency or self-check gate"; exit 1; }

echo "== tier 1: mrc-smoke (ASan subset + goldens + sampling error gate) =="
# The MRC subsystem under ASan+UBSan: the exact-path property subset (the
# full 256-case sweep stays in the plain ctest pass under the `mrc` ctest
# label) plus the pinned `lmre mrc --json` envelopes for the paper
# examples.  A CLI smoke pins Example 10's LRU knee at 687 -- the paper's
# MWS is 540; the forward-window policy is strictly tighter than LRU --
# and bench_mrc --check gates the sampled estimator against its declared
# error bound (and the exact path against a generous latency ceiling).
cmake --build build-asan -j "$JOBS" --target property_mrc_test golden_parity_test
./build-asan/tests/property_mrc_test \
  --gtest_filter='Sweep/MrcProperty.*/1:Sweep/MrcProperty.*/2:Sweep/MrcSampledProperty.*/1:MrcSession.*:MrcObjective.*'
./build-asan/tests/golden_parity_test --gtest_filter='GoldenMrc.*'
(cd build && ctest -L mrc --output-on-failure -j "$JOBS") \
  || { echo "FAIL: mrc-labeled ctest subset"; exit 1; }
./build/tools/lmre mrc --capacities=540,687 tests/golden/example10.loop \
  > "$BATCH_CACHE/mrc_smoke.out"
grep -q 'knee.*687' "$BATCH_CACHE/mrc_smoke.out" \
  || { echo "FAIL: Example 10 LRU knee is not 687"; exit 1; }
./build/bench/bench_mrc --check \
  || { echo "FAIL: sampled MRC missed its declared error bound"; exit 1; }

echo "tier 1 OK"
