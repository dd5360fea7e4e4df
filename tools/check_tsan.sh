#!/usr/bin/env bash
# One-command race + determinism check for the parallel subsystems
# (src/runtime/ and the pool-parallel candidate and staging phases):
#
#   1. configures and builds build-tsan/ with -DRECON_SANITIZE=thread,
#   2. runs every ctest target labeled `tsan` under ThreadSanitizer
#      (runtime primitives, evidence-cache parity, the shared value-store /
#      similarity-memo sweep with the store on and off, the CSR-graph
#      golden sweep that asserts byte-identical output at 1/2/4/8
#      threads, the incremental thread sweep, the canopy-shard sweep
#      (shard-parallel staging must stay byte-identical to the monolithic
#      run, DESIGN.md §14), the service-layer sweep where query threads
#      race a live ingest/flush loop against the snapshot swap, and the
#      crash-recovery sweep whose replay must stay byte-identical across
#      recovery thread counts, DESIGN.md §15),
#   3. re-runs the determinism sweeps in the regular (uninstrumented) build
#      when one exists — TSan's memory model can hide orderings that the
#      native build exhibits, so both must pass.
#
# Usage: tools/check_tsan.sh [tsan_build_dir] [native_build_dir]
#   tsan_build_dir    defaults to build-tsan (created if missing)
#   native_build_dir  defaults to build (step 3 is skipped if missing)

set -euo pipefail

TSAN_DIR="${1:-build-tsan}"
NATIVE_DIR="${2:-build}"

echo "== [1/3] configure + build ${TSAN_DIR} (-DRECON_SANITIZE=thread)"
cmake -B "${TSAN_DIR}" -S . -DRECON_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${TSAN_DIR}" -j

echo
echo "== [2/3] ctest -L tsan under ThreadSanitizer"
# halt_on_error: a race is a hard failure, not a log line.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  ctest --test-dir "${TSAN_DIR}" -L tsan --output-on-failure

echo
if [[ -d "${NATIVE_DIR}/tests" ]]; then
  echo "== [3/3] determinism sweeps in native build ${NATIVE_DIR}"
  ctest --test-dir "${NATIVE_DIR}" \
    -R 'IncrementalTest|GraphCsrTest|ValueStoreTest|ServiceTest|ShardEquivalenceTest|RecoveryTest' \
    --output-on-failure
else
  echo "== [3/3] skipped: ${NATIVE_DIR} not built"
fi

echo
echo "OK: tsan-labeled tests race-free and parallel output byte-identical."
