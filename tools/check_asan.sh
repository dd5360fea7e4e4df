#!/usr/bin/env bash
# One-command memory-safety check for the robustness surfaces (DESIGN.md
# §10–§11): budget exhaustion / cancellation / fault-injected degradation,
# the malformed-input extraction paths (truncated BibTeX, garbled email,
# NUL-ridden CSV), the value-store / similarity-memo degradation modes
# (shard eviction and bypass under tiny byte bounds), the CSR-graph
# determinism sweep (datasets × threads × cache/constraints/budgets/
# enrichment against committed golden fingerprints, frozen budget stops
# included), the canopy-shard layer (shard-vs-monolithic
# byte-identity across shards × threads, DESIGN.md §14), the service smoke
# test (a live daemon on an ephemeral loopback port serving query, ingest,
# malformed-request, and overload traffic end-to-end over HTTP, plus a
# SIGTERM drain of the real binary), and the crash-recovery sweep (WAL +
# checkpoint recovery across every injected I/O fault point, fault kind,
# and thread count, DESIGN.md §15 — tools/check_crash.sh adds a live
# kill -9 soak on top):
#
#   1. configures and builds build-asan/ with
#      -DRECON_SANITIZE=address-undefined (ASan + UBSan together),
#   2. runs every ctest target labeled `asan` under the sanitizers —
#      every StopReason at every probe point, the hostile-input corpus,
#      and the value-store sweep with the store on and off — with error
#      exit codes forced on.
#
# Usage: tools/check_asan.sh [asan_build_dir]
#   asan_build_dir  defaults to build-asan (created if missing)

set -euo pipefail

ASAN_DIR="${1:-build-asan}"

echo "== [1/2] configure + build ${ASAN_DIR} (-DRECON_SANITIZE=address-undefined)"
cmake -B "${ASAN_DIR}" -S . -DRECON_SANITIZE=address-undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${ASAN_DIR}" -j

echo
echo "== [2/2] ctest -L asan under AddressSanitizer + UBSan"
# halt_on_error: any finding is a hard failure, not a log line.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
  ctest --test-dir "${ASAN_DIR}" -L asan --output-on-failure

echo
echo "OK: asan-labeled tests clean under ASan + UBSan."
