#!/usr/bin/env bash
# Single pre-merge gate: format check, clang-tidy over src/, and the tier-1
# test suite under ASan+UBSan. Exits nonzero on ANY failure so CI (or a
# human) can rely on one command.
#
#   tools/check.sh             # everything
#   tools/check.sh --no-tidy   # skip clang-tidy (it is slow)
#
# Tools that are not installed are *skipped with a notice*, not failed: the
# container image this repo builds in carries only the GCC toolchain, and the
# gate must still be able to certify a checkout there via the sanitizer run.
# When clang-format/clang-tidy are present, any finding is fatal.

set -u

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${REPO}/build-sanitize"
JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_TIDY=1
FAILURES=0
UNRESOLVED=0

for arg in "$@"; do
  case "$arg" in
    --no-tidy) RUN_TIDY=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

note() { printf '\n== %s ==\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*" >&2; FAILURES=$((FAILURES + 1)); }

# ---------------------------------------------------------------- format ----
note "format check"
if command -v clang-format >/dev/null 2>&1; then
  # shellcheck disable=SC2046
  if ! clang-format --dry-run --Werror \
      $(find "${REPO}/src" "${REPO}/tests" "${REPO}/bench" \
             "${REPO}/examples" \
             -name '*.cc' -o -name '*.h' -o -name '*.cpp'); then
    fail "clang-format found unformatted files"
  fi
else
  echo "clang-format not installed; skipping format check"
fi

# ------------------------------------------------- sanitizer build + test ----
note "ASan+UBSan build"
mkdir -p "${BUILD_DIR}"
if ! cmake -B "${BUILD_DIR}" -S "${REPO}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DSCRUB_SANITIZE=ON -DSCRUB_WERROR=ON > "${BUILD_DIR}/cmake.log" 2>&1 \
   || ! cmake --build "${BUILD_DIR}" -j "${JOBS}" > "${BUILD_DIR}/build.log" 2>&1
then
  tail -40 "${BUILD_DIR}/build.log" 2>/dev/null
  fail "sanitizer build failed (logs: ${BUILD_DIR}/build.log)"
else
  note "tier-1 tests under ASan+UBSan"
  if ! (cd "${BUILD_DIR}" && \
        ASAN_OPTIONS=detect_leaks=1 \
        UBSAN_OPTIONS=print_stacktrace=1 \
        ctest --output-on-failure -j "${JOBS}"); then
    fail "tests failed under sanitizers"
  fi
  note "chaos seed sweep under ASan+UBSan"
  if ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${REPO}/tools/chaos_sweep.sh" "${BUILD_DIR}/tests/chaos_test"; then
    fail "chaos sweep failed (re-run one seed: SCRUB_CHAOS_SEED=<n> ${BUILD_DIR}/tests/chaos_test)"
  fi
  note "tiny-budget spill stress under ASan+UBSan (1/64 working set)"
  if ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       SCRUB_SPILL_STRESS_DIVISOR=64 \
       "${BUILD_DIR}/tests/spill_test" > /dev/null; then
    fail "spill stress failed under sanitizers (re-run: SCRUB_SPILL_STRESS_DIVISOR=64 ${BUILD_DIR}/tests/spill_test)"
  fi
  # The wire decoders parse hostile bytes and check each fixed-width run
  # once, as a whole, instead of per value; run every wire fuzz fixture and
  # the golden-bytes test by name (in addition to the full ctest pass above)
  # so a fixture rename or deletion is a visible gate change, not silent
  # coverage loss.
  WIRE_FUZZ='WireFuzzTest.*:ColumnWireFuzzTest.*:DictWireFuzzTest.*:JoinWireFuzzTest.*:GoldenWireTest.*'
  note "wire fuzz and golden bytes under ASan+UBSan"
  IFS=: read -r -a WIRE_FIXTURES <<< "${WIRE_FUZZ}"
  for fixture in "${WIRE_FIXTURES[@]}"; do
    if ! "${BUILD_DIR}/tests/wire_fuzz_test" --gtest_list_tests \
         --gtest_filter="${fixture}" 2>/dev/null | grep -q '^  '; then
      fail "${fixture%.\*} fixture missing from wire_fuzz_test"
    fi
  done
  if ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${BUILD_DIR}/tests/wire_fuzz_test" \
       --gtest_filter="${WIRE_FUZZ}" > /dev/null; then
    fail "wire fuzz failed under sanitizers (re-run: ${BUILD_DIR}/tests/wire_fuzz_test --gtest_filter='${WIRE_FUZZ}')"
  fi
  # Query text is the other trust boundary: the expression depth and
  # tree-height limits keep hostile nesting from overflowing the stack, and
  # the lowering's register limit keeps a hostile width from overflowing a
  # program's register file. Run their fixture by name for the same reason.
  note "query depth limits under ASan+UBSan"
  if ! "${BUILD_DIR}/tests/query_test" --gtest_list_tests \
       --gtest_filter='QueryLimitsTest.*' 2>/dev/null | grep -q '^  '; then
    fail "QueryLimitsTest fixture missing from query_test"
  elif ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${BUILD_DIR}/tests/query_test" \
       --gtest_filter='QueryLimitsTest.*' > /dev/null; then
    fail "query depth limits failed under sanitizers (re-run: ${BUILD_DIR}/tests/query_test --gtest_filter='QueryLimitsTest.*')"
  fi
  # The central join buffer indexes raw request ids and holds (batch, row)
  # references into pinned batches: a lifetime or indexing slip there is a
  # use-after-free or an out-of-bounds read, so its fixture also runs by
  # name.
  note "join buffer under ASan+UBSan"
  if ! "${BUILD_DIR}/tests/executor_test" --gtest_list_tests \
       --gtest_filter='JoinBufferTest.*' 2>/dev/null | grep -q '^  '; then
    fail "JoinBufferTest fixture missing from executor_test"
  elif ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${BUILD_DIR}/tests/executor_test" \
       --gtest_filter='JoinBufferTest.*' > /dev/null; then
    fail "join buffer tests failed under sanitizers (re-run: ${BUILD_DIR}/tests/executor_test --gtest_filter='JoinBufferTest.*')"
  fi
  # The window group table probes a hand-sized open-addressing index and
  # hands out references into a vector that grows under them; its fixture
  # (forced collisions, growth, the fold over many groups) runs by name.
  note "group table under ASan+UBSan"
  if ! "${BUILD_DIR}/tests/executor_test" --gtest_list_tests \
       --gtest_filter='GroupTableTest.*' 2>/dev/null | grep -q '^  '; then
    fail "GroupTableTest fixture missing from executor_test"
  elif ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${BUILD_DIR}/tests/executor_test" \
       --gtest_filter='GroupTableTest.*' > /dev/null; then
    fail "group table tests failed under sanitizers (re-run: ${BUILD_DIR}/tests/executor_test --gtest_filter='GroupTableTest.*')"
  fi
  # The agent's per-type routes hold raw pointers into its query table and
  # its staging batches: a route left stale by a remove or a retirement is
  # a use-after-free that only ASan reports, so the dispatch and shared
  # staging fixtures run by name.
  note "agent dispatch under ASan+UBSan"
  if ! "${BUILD_DIR}/tests/agent_test" --gtest_list_tests \
       --gtest_filter='AgentDispatchTest.*' 2>/dev/null | grep -q '^  '; then
    fail "AgentDispatchTest fixture missing from agent_test"
  elif ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${BUILD_DIR}/tests/agent_test" \
       --gtest_filter='AgentDispatchTest.*:*SharedStaging*' > /dev/null; then
    fail "agent dispatch tests failed under sanitizers (re-run: ${BUILD_DIR}/tests/agent_test --gtest_filter='AgentDispatchTest.*:*SharedStaging*')"
  fi
  # Spill replay is the only reader of event records: a run damaged on disk
  # (truncation, bad length or host, flipped type-name/tag/payload bytes)
  # must end as counted shed. Its fixture runs by name too.
  note "spill corruption under ASan+UBSan"
  if ! "${BUILD_DIR}/tests/spill_test" --gtest_list_tests \
       --gtest_filter='SpillCorruptionTest.*' 2>/dev/null | grep -q '^  '; then
    fail "SpillCorruptionTest fixture missing from spill_test"
  elif ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${BUILD_DIR}/tests/spill_test" \
       --gtest_filter='SpillCorruptionTest.*' > /dev/null; then
    fail "spill corruption tests failed under sanitizers (re-run: ${BUILD_DIR}/tests/spill_test --gtest_filter='SpillCorruptionTest.*')"
  fi
  # The single instance and the sharded coordinator share one Finalize body
  # fed by differently built reading stores; the fixture that holds their
  # sampled estimates and bounds equal runs by name.
  note "finalize parity under ASan+UBSan"
  if ! "${BUILD_DIR}/tests/sharded_central_test" --gtest_list_tests \
       --gtest_filter='FinalizeParityTest.*' 2>/dev/null | grep -q '^  '; then
    fail "FinalizeParityTest fixture missing from sharded_central_test"
  elif ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${BUILD_DIR}/tests/sharded_central_test" \
       --gtest_filter='FinalizeParityTest.*' > /dev/null; then
    fail "finalize parity tests failed under sanitizers (re-run: ${BUILD_DIR}/tests/sharded_central_test --gtest_filter='FinalizeParityTest.*')"
  fi
  # Only the expression IR reaches the branch-free compare kernels, and their
  # typed loops index raw column storage; the fixture that checks them
  # against the tree oracle on every column representation runs by name.
  note "compare kernels under ASan+UBSan"
  if ! "${BUILD_DIR}/tests/expr_semantics_test" --gtest_list_tests \
       --gtest_filter='CompareKernelTest.*' 2>/dev/null | grep -q '^  '; then
    fail "CompareKernelTest fixture missing from expr_semantics_test"
  elif ! ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
       "${BUILD_DIR}/tests/expr_semantics_test" \
       --gtest_filter='CompareKernelTest.*' > /dev/null; then
    fail "compare kernel tests failed under sanitizers (re-run: ${BUILD_DIR}/tests/expr_semantics_test --gtest_filter='CompareKernelTest.*')"
  fi
fi

# ------------------------------------------------- TSan build + test ---------
# The worker-pool paths (parallel shard fold, window-close fan-out, agent
# flush fan-out) get a dedicated ThreadSanitizer pass: ASan and TSan cannot
# share a binary, so this is a second build tree running only the tests that
# exercise threads.
note "TSan build"
TSAN_DIR="${REPO}/build-tsan"
# merge_algebra_test and the hierarchical halves of the determinism /
# differential / chaos suites drive the combiner tier; the worker-pool
# hierarchical runs are what TSan is here for. The join suites
# (parallel_determinism_test's JoinTranscriptIdentical* and
# differential_test's JoinStagingAcrossWorkerCounts) exercise the sharded
# kColumnarJoin re-bucket — parallel decode plus shared read-only sections —
# at workers {2, 8}, so those binaries double as the join-path race check.
# metrics_test rides along for the operator-metrics plane: sharded
# shard->coordinator delta export under the worker pool is exactly the kind
# of counter traffic TSan exists to vet.
TSAN_TESTS="common_test metrics_test parallel_determinism_test differential_test sharded_central_test chaos_test spill_test merge_algebra_test"
mkdir -p "${TSAN_DIR}"
if ! cmake -B "${TSAN_DIR}" -S "${REPO}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DSCRUB_TSAN=ON -DSCRUB_WERROR=ON > "${TSAN_DIR}/cmake.log" 2>&1 \
   || ! cmake --build "${TSAN_DIR}" -j "${JOBS}" \
        --target ${TSAN_TESTS} > "${TSAN_DIR}/build.log" 2>&1
then
  tail -40 "${TSAN_DIR}/build.log" 2>/dev/null
  fail "TSan build failed (logs: ${TSAN_DIR}/build.log)"
else
  note "parallel tests under TSan"
  for t in ${TSAN_TESTS}; do
    if ! TSAN_OPTIONS=halt_on_error=1 "${TSAN_DIR}/tests/${t}"; then
      fail "${t} failed under TSan"
    fi
  done
fi

# ------------------------------------------------- scrubbench smoke ----------
# The end-to-end benchmark's own correctness checks: its oracle on every
# workload (5 simulated seconds each) and --check-driver's stepped-driver vs
# ScrubSystem transcript comparison. run.sh builds its own Release tree in
# build-scrubbench/ and exits nonzero if either check fails.
note "scrubbench smoke (oracle + --check-driver)"
if ! "${REPO}/bench/scrubbench/run.sh" --smoke; then
  fail "scrubbench smoke failed (re-run: bench/scrubbench/run.sh --smoke)"
fi

# ------------------------------------------------- benchmark regression ------
note "benchmark suite vs committed baseline (parallel-central + ingest + fleet)"
if [ -f "${REPO}/BENCH_scrub.json" ]; then
  FRESH_BENCH="$(mktemp /tmp/BENCH_scrub.XXXXXX.json)"
  if ! "${REPO}/tools/bench_run.sh" "${FRESH_BENCH}"; then
    fail "benchmark run failed (logs: ${REPO}/build-bench/build.log)"
  elif ! python3 "${REPO}/tools/bench_compare.py" \
        "${REPO}/BENCH_scrub.json" "${FRESH_BENCH}"; then
    fail "events/sec regressed >15% vs committed BENCH_scrub.json, or the dict wire-bytes (1.3x) / folded-over-unfolded IR filter (1.05x) / metrics on-off ratio (0.95) / fleet bytes-reduction (5x) floors broke, or multitenant admission stopped rejecting"
  fi
  rm -f "${FRESH_BENCH}"
else
  echo "no committed BENCH_scrub.json; skipping benchmark gate"
fi

# ------------------------------------------------- ingest vs parent ----------
# The committed baseline was measured on some other machine; this races the
# columnar scan and both join runs against the parent commit's build on
# this one (5 to 11 alternating pairs, median >= 0.85x the parent's). When
# the parent's own runs spread wider than that 15% bound the race cannot
# tell, and says so instead of passing or failing.
note "ingest microbench vs the parent commit (same machine)"
ingest_status=0
"${REPO}/tools/ingest_vs_parent.sh" || ingest_status=$?
case "${ingest_status}" in
  0) ;;
  2) UNRESOLVED=$((UNRESOLVED + 1))
     echo "UNRESOLVED: the parent's ingest runs spread wider than the 15% bound; re-run tools/ingest_vs_parent.sh on a quieter machine" ;;
  *) fail "an ingest scan or join run fell below 0.85x the parent commit's median events/sec (re-run: tools/ingest_vs_parent.sh; logs: ${REPO}/build-parent/)" ;;
esac

# ------------------------------------------------------------- clang-tidy ----
if [ "${RUN_TIDY}" -eq 1 ]; then
  note "clang-tidy over src/"
  if command -v clang-tidy >/dev/null 2>&1; then
    # The sanitizer build exports compile_commands.json; strip the sanitizer
    # flags clang-tidy's driver may not know.
    if ! find "${REPO}/src" -name '*.cc' -print0 | \
         xargs -0 -P "${JOBS}" -n 8 clang-tidy -p "${BUILD_DIR}" \
               --quiet --warnings-as-errors='bugprone-*,performance-*'; then
      fail "clang-tidy reported findings"
    fi
  else
    echo "clang-tidy not installed; skipping tidy pass"
  fi
fi

# ---------------------------------------------------------------- verdict ----
note "summary"
if [ "${FAILURES}" -ne 0 ]; then
  echo "${FAILURES} gate(s) failed"
  exit 1
fi
if [ "${UNRESOLVED}" -ne 0 ]; then
  echo "all resolved gates passed; ${UNRESOLVED} could not resolve on this machine (see UNRESOLVED above)"
  exit 0
fi
echo "all gates passed"
