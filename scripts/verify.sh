#!/usr/bin/env bash
# Build-and-test gate for local use and CI.
#
#   scripts/verify.sh [plain|asan|tsan|checks|lint|analyze|simd|server|
#                      storage|fuzzbench|bench|all]
#
#   plain   Release build at CHECKIN warning level (-Werror), full ctest
#           suite (the tier-1 gate).
#   asan    AddressSanitizer + UBSan build, full ctest suite.
#   tsan    ThreadSanitizer build; runs the ctest label `concurrency`
#           (thread pool, sharded kernels, embedding layer, query server,
#           schedule fuzzers) with halt_on_error and a retry only for
#           timeouts — data-race findings are never retried away.
#   checks  FUZZYDB_CHECKS=ON build: paper-invariant contract macros compiled
#           in and the src/analysis property auditors exercised by the full
#           suite (analysis_contract_test runs its instrumentation leg).
#   lint    scripts/lint.sh (portable checks + clang-tidy when available).
#   analyze scripts/analyze.sh: thread-safety compile-fail harness, a Clang
#           -Wthread-safety -Werror build of the whole tree, and the Clang
#           Static Analyzer (core/deadcode/cplusplus, zero findings). Skips
#           loudly without a Clang toolchain; CI runs it strictly.
#   simd    Two CHECKIN builds, native-arch and portable Release (what
#           fuzzbench and default consumers compile); each reruns the
#           kernel-sensitive tests (simd dispatch, the fused int8 bound
#           kernel and quantized tier, embedding, sharded kernels, R-tree
#           driver source, analysis contracts, paged store and paged
#           sources, the shape/QBIC bit-identity goldens, which FMA would
#           break without -ffp-contract=off, and the end-to-end image
#           pipeline integration test) once per FUZZYDB_SIMD level in
#           {scalar, avx2, avx512}. The dispatcher clamps a forced level to
#           what the host supports, so every leg runs everywhere and the
#           widest ISA the hardware has is always exercised — bit-identical
#           answers are asserted inside the tests themselves.
#   server  Serving-layer gate: ThreadSanitizer build, then the query-server
#           suite (server_*, ticket, thread-pool, schedule fuzzers) under
#           halt_on_error with timeout-only retries, then a FUZZYDB_SMOKE=1
#           pass of exp22_query_server (open-loop harness end to end, zero
#           mismatches asserted inside the bench, no JSON write).
#   storage Out-of-core gate (DESIGN §3k): an ASan+UBSan build running the
#           storage suite with FUZZYDB_STORAGE_STRESS=1 (widened paging-
#           equivalence sweep, handle-lifetime and corruption tests under
#           the sanitizer), then TSan on the buffer pool and paged-store
#           concurrency labels, then a FUZZYDB_SMOKE=1 pass of
#           exp23_out_of_core (bounded-RSS paging end to end; warm int8
#           queries asserted to read zero disk bytes inside the bench).
#   fuzzbench
#           Configures the standalone fuzzbench/ package into
#           .bench_build/fuzzbench, builds it, and runs its fuzzbench_smoke
#           ctest once per FUZZYDB_SIMD level (as in `simd`) — catches src/
#           API changes that break the benchmark build, which the tier-1
#           suite does not compile, and checks every workload's answers
#           through each kernel level the host has.
#   bench   Native-arch Release build; runs the paper's filter bench (exp5)
#           and the perf-trajectory benches (exp16, exp21, exp22, exp23) so
#           their BENCH_*.json land in the repo root. exp5, exp16, exp21 and
#           exp23 abort, writing no report, on any false dismissal or
#           mismatch, and the leg fails when a BENCH_filter_bound.json field
#           other than a timing differs from the one committed at HEAD. The timings are not a gate: on a 1-hardware-thread host
#           it warns loudly and the reports carry "contention_only": true —
#           the guarded writer refuses to overwrite a multi-core report with
#           one.
#   all     plain + asan + tsan + checks + simd + server + storage +
#           fuzzbench + lint + analyze (default; bench is opt-in).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
MODE="${1:-all}"

configure_and_test() {
  local build_dir="$1"; shift
  local test_filter="$1"; shift
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "${JOBS}"
  if [ -n "${test_filter}" ]; then
    ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -R "${test_filter}"
  else
    ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
  fi
}

# Fails when a field of the report other than a timing (*.us_per_query,
# *.ops_per_sec) differs from the committed one at HEAD: the counts are
# deterministic, so any change to them must be committed with the change
# that caused it.
same_counts_as_head() {
  git show "HEAD:$1" | python3 -c '
import json, sys
want = json.load(sys.stdin)
with open(sys.argv[1]) as f:
    got = json.load(f)
timing = (".us_per_query", ".ops_per_sec")
moved = sorted(k for k in want.keys() | got.keys()
               if not k.endswith(timing) and want.get(k) != got.get(k))
for k in moved:
    print("%s: %s differs from HEAD: %r != %r"
          % (sys.argv[1], k, got.get(k), want.get(k)), file=sys.stderr)
sys.exit(1 if moved else 0)
' "$1"
}

case "${MODE}" in
  plain)
    configure_and_test build-verify "" \
      -DFUZZYDB_WARNING_LEVEL=CHECKIN ;;
  asan)
    configure_and_test build-asan "" -DFUZZYDB_SANITIZE=ON ;;
  tsan)
    cmake -B build-tsan -S . -DFUZZYDB_TSAN=ON
    cmake --build build-tsan -j "${JOBS}"
    TSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-tsan \
      --output-on-failure -j "${JOBS}" -L concurrency \
      --repeat after-timeout:3 ;;
  checks)
    configure_and_test build-checks "" \
      -DFUZZYDB_CHECKS=ON -DFUZZYDB_WARNING_LEVEL=CHECKIN ;;
  lint)
    scripts/lint.sh ;;
  analyze)
    scripts/analyze.sh ;;
  simd)
    for arch in native portable; do
      if [ "${arch}" = native ]; then arch_flag=ON; else arch_flag=OFF; fi
      cmake -B "build-simd-${arch}" -S . -DCMAKE_BUILD_TYPE=Release \
        -DFUZZYDB_NATIVE_ARCH="${arch_flag}" -DFUZZYDB_WARNING_LEVEL=CHECKIN
      cmake --build "build-simd-${arch}" -j "${JOBS}"
      for level in scalar avx2 avx512; do
        echo "== ${arch} build, FUZZYDB_SIMD=${level} (clamped to host support) =="
        FUZZYDB_SIMD="${level}" ctest --test-dir "build-simd-${arch}" \
          --output-on-failure -j "${JOBS}" \
          -R 'simd|quantized|embedding|parallel_kernel|aligned_buffer|analysis|rtree|storage_paged|shape|qbic|integration'
      done
    done ;;
  server)
    cmake -B build-server -S . -DFUZZYDB_TSAN=ON
    cmake --build build-server -j "${JOBS}"
    TSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-server \
      --output-on-failure -j "${JOBS}" \
      -R 'server_|fuzz_test|thread_pool|ticket' \
      --repeat after-timeout:3
    cmake --build build-server -j "${JOBS}" --target exp22_query_server
    FUZZYDB_SMOKE=1 ./build-server/bench/exp22_query_server \
      --benchmark_min_time=0.01 ;;
  storage)
    cmake -B build-asan -S . -DFUZZYDB_SANITIZE=ON
    cmake --build build-asan -j "${JOBS}"
    FUZZYDB_STORAGE_STRESS=1 ctest --test-dir build-asan \
      --output-on-failure -j "${JOBS}" -R 'storage_'
    cmake -B build-tsan -S . -DFUZZYDB_TSAN=ON
    cmake --build build-tsan -j "${JOBS}"
    TSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-tsan \
      --output-on-failure -j "${JOBS}" -R 'storage_' -L concurrency \
      --repeat after-timeout:3
    cmake --build build-asan -j "${JOBS}" --target exp23_out_of_core
    FUZZYDB_SMOKE=1 ./build-asan/bench/exp23_out_of_core \
      --benchmark_min_time=0.01 ;;
  fuzzbench)
    cmake -B .bench_build/fuzzbench -S fuzzbench -DCMAKE_BUILD_TYPE=Release
    cmake --build .bench_build/fuzzbench -j "${JOBS}"
    for level in scalar avx2 avx512; do
      echo "== FUZZYDB_SIMD=${level} (clamped to host support) =="
      FUZZYDB_SIMD="${level}" ctest --test-dir .bench_build/fuzzbench \
        --output-on-failure -R fuzzbench_smoke
    done ;;
  bench)
    HW="$(nproc 2>/dev/null || echo 1)"
    if [ "${HW}" -le 1 ]; then
      echo "WARNING: 1 hardware thread — bench speedups are contention-only;" \
           "reports will carry \"contention_only\": true and will not" \
           "overwrite multi-core BENCH_*.json files." >&2
    fi
    cmake -B build-native -S . -DFUZZYDB_NATIVE_ARCH=ON
    cmake --build build-native -j "${JOBS}" --target \
      exp5_filter_bound exp16_embedding_cascade exp21_rtree_driver \
      exp22_query_server exp23_out_of_core
    ./build-native/bench/exp5_filter_bound \
      --benchmark_min_time=0.01
    same_counts_as_head BENCH_filter_bound.json
    ./build-native/bench/exp16_embedding_cascade \
      --benchmark_min_time=0.01
    ./build-native/bench/exp21_rtree_driver \
      --benchmark_min_time=0.01
    ./build-native/bench/exp22_query_server \
      --benchmark_min_time=0.01
    ./build-native/bench/exp23_out_of_core \
      --benchmark_min_time=0.01 ;;
  all)
    "$0" plain
    "$0" asan
    "$0" tsan
    "$0" checks
    "$0" simd
    "$0" server
    "$0" storage
    "$0" fuzzbench
    "$0" lint
    "$0" analyze ;;
  *)
    echo "usage: $0 [plain|asan|tsan|checks|lint|analyze|simd|server|storage|fuzzbench|bench|all]" >&2
    exit 2 ;;
esac

echo "verify ${MODE}: OK"
