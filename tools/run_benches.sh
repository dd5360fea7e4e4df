#!/usr/bin/env bash
# Runs every perf_* bench with --json and collects BENCH_<name>.json files
# so perf trajectories can be tracked across commits.
#
# Usage: tools/run_benches.sh [--gate-speedup] [--gate-kernels]
#        [build_dir] [out_dir]
#   build_dir  defaults to build (must already be built)
#   out_dir    defaults to the current directory
#
# Gates run after the benches, and only when every bench succeeded. Every
# requested gate runs (one failing gate does not hide the next), each
# prints PASS, FAIL or SKIPPED, and the script exits non-zero if any gate
# failed.
#
# --gate-speedup: assert from BENCH_scaling.json that end-to-end
#   Reconciler::Run is no slower at 4 threads than at 1, so parallelism
#   never loses: the median of the interleaved threads=4 repetitions must
#   be <= the threads=1 median. It has two halves, reported separately:
#   the PIM B curve (`section: "run"`) and the million-reference run
#   (`section: "run_1m"`, 26x PIM B). Both auto-skip when the
#   hardware-metadata row the benches emit reports nprocs_online <= 2 (e.g.
#   the 1-CPU container the committed baselines were recorded on) — a
#   machine that cannot run 4 threads concurrently cannot express the
#   comparison, and a failure there would only measure scheduler noise.
#   The PIM B half also skips below RECON_BENCH_SCALE=1: it is defined at
#   full scale, and a ~0.1 s run at scale 0.25 is dominated by thread
#   start-up, so its 4-vs-1 order flips between runs. The 1M half has no
#   scale skip, because that row ignores RECON_BENCH_SCALE.
#
# --gate-kernels: after the run, assert from BENCH_strsim.json that the
#   Myers bit-parallel Levenshtein kernel is at least 2x faster than the
#   scalar row DP on the recorded title-length workload. Auto-skips when
#   the bench's simd_dispatch context reports "scalar" (the kernels are
#   compiled out or forced off there, so the rows measure the same code).
#   Unlike the thread gates this one is single-threaded, so it runs fine
#   on 1-CPU machines.
#
# Honors RECON_BENCH_SCALE / RECON_BENCH_THREADS like the benches do.

set -euo pipefail

GATE_SPEEDUP=0
GATE_KERNELS=0
while [[ "${1:-}" == --gate-* ]]; do
  case "$1" in
    --gate-speedup) GATE_SPEEDUP=1 ;;
    --gate-kernels) GATE_KERNELS=1 ;;
    *) echo "error: unknown gate $1" >&2; exit 2 ;;
  esac
  shift
done

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
BENCH_DIR="${BUILD_DIR}/bench"

if [[ ! -d "${BENCH_DIR}" ]]; then
  echo "error: ${BENCH_DIR} not found; build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

status=0
for bench in "${BENCH_DIR}"/perf_*; do
  [[ -x "${bench}" ]] || continue
  name="$(basename "${bench}")"
  out="${OUT_DIR}/BENCH_${name#perf_}.json"
  echo "== ${name} -> ${out}"
  if ! "${bench}" --json "${out}"; then
    echo "error: ${name} failed" >&2
    status=1
    continue
  fi
  # Every result file must record the hardware it was produced on
  # ("hardware_concurrency" from JsonLog, "num_cpus" from google-benchmark),
  # so caveats like "1-CPU container, speedups ~1x" are machine-checkable.
  if ! grep -qE '"(hardware_concurrency|num_cpus)"' "${out}"; then
    echo "error: ${out} lacks hardware metadata" >&2
    status=1
  fi
done

# Gate scripts exit 0 for PASS, 77 for SKIPPED and anything else for FAIL.
readonly SKIP=77
gate_names=()
gate_results=()
failed=0

# run_gate <name> <python script> [args...]: runs one gate, records its
# outcome.
run_gate() {
  local name="$1" script="$2"
  shift 2
  echo "== gate: ${name}"
  local rc=0
  python3 -c "${script}" "$@" || rc=$?
  local result=PASS
  if [[ ${rc} -eq ${SKIP} ]]; then
    result=SKIPPED
  elif [[ ${rc} -ne 0 ]]; then
    result=FAIL
    failed=1
  fi
  gate_names+=("${name}")
  gate_results+=("${result}")
}

# Threads=4 median <= threads=1 median over the rows of one section.
# Arguments: BENCH_scaling.json, section name, 1 to skip below scale 1.
read -r -d '' SPEEDUP_GATE <<'PYEOF' || true
import json, sys

path, section, scale_skip = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
rows = json.load(open(path))
meta = next((r for r in rows if "nprocs_online" in r), None)
if meta is None:
    sys.exit(f"gate: no hardware-metadata row in {path}")
nprocs = int(meta["nprocs_online"])
if nprocs <= 2:
    print(f"gate: SKIPPED — nprocs_online={nprocs}; a machine with <= 2 "
          "online CPUs cannot run 4 threads concurrently, so the gate "
          "would only measure scheduler noise")
    sys.exit(77)
scale = float(meta.get("bench_scale", 1.0))
if scale_skip and scale < 1.0:
    print(f"gate: SKIPPED — bench_scale={scale}; this half is defined at "
          "scale 1, and a smaller run is dominated by thread start-up noise")
    sys.exit(77)
run = {r["threads"]: r for r in rows if r.get("section") == section}
if 1 not in run or 4 not in run:
    sys.exit(f"gate: no threads=1/threads=4 {section} rows in {path}")
one, four = run[1], run[4]
def spread(r):
    return (f"median {r['run_seconds_median']:.3f}s, range "
            f"{r['run_seconds_min']:.3f}-{r['run_seconds_max']:.3f}s "
            f"over {r['reps']} reps")
msg = (f"{section}: threads=4 {spread(four)} vs threads=1 {spread(one)} "
       f"(nprocs_online={nprocs})")
if float(four["run_seconds_median"]) <= float(one["run_seconds_median"]):
    print(f"gate: PASS — {msg}")
else:
    sys.exit(f"gate: FAIL — {msg}")
PYEOF

read -r -d '' KERNELS_GATE <<'PYEOF' || true
import json, sys

doc = json.load(open(sys.argv[1]))
context = doc.get("context", {})
dispatch = context.get("simd_dispatch")
if dispatch is None:
    sys.exit("gate: no simd_dispatch entry in BENCH_strsim.json context")
if dispatch == "scalar":
    print("gate: SKIPPED — simd_dispatch=scalar (detected "
          f"{context.get('simd_detected', 'unknown')}); the bit-parallel "
          "kernels are not active at this dispatch level, so the rows "
          "measure the same reference code")
    sys.exit(77)

def cpu_time(name):
    rows = [b for b in doc.get("benchmarks", [])
            if b.get("name") == name and b.get("run_type", "iteration") ==
            "iteration"]
    if not rows:
        sys.exit(f"gate: no {name} row in BENCH_strsim.json")
    return min(float(r["cpu_time"]) for r in rows)

scalar = cpu_time("BM_LevenshteinScalar")
bitpar = cpu_time("BM_LevenshteinBitParallel")
speedup = scalar / bitpar if bitpar > 0 else float("inf")
if speedup >= 2.0:
    print(f"gate: PASS — bit-parallel Levenshtein {speedup:.2f}x faster "
          f"than scalar ({scalar:.0f} ns vs {bitpar:.0f} ns, "
          f"dispatch={dispatch})")
else:
    sys.exit(f"gate: FAIL — bit-parallel Levenshtein only {speedup:.2f}x "
             f"faster than scalar ({scalar:.0f} ns vs {bitpar:.0f} ns, "
             f"dispatch={dispatch}; need >= 2x)")
PYEOF

requested=()
if [[ ${GATE_SPEEDUP} -eq 1 ]]; then
  requested+=("speedup PIM B" "speedup 1M")
fi
if [[ ${GATE_KERNELS} -eq 1 ]]; then
  requested+=("kernels")
fi

if [[ ${status} -ne 0 ]]; then
  for name in "${requested[@]}"; do
    echo "gate ${name}: SKIPPED (a bench failed)"
  done
  exit ${status}
fi

scaling="${OUT_DIR}/BENCH_scaling.json"
if [[ ${GATE_SPEEDUP} -eq 1 ]]; then
  run_gate "speedup PIM B" "${SPEEDUP_GATE}" "${scaling}" run 1
  run_gate "speedup 1M" "${SPEEDUP_GATE}" "${scaling}" run_1m 0
fi
if [[ ${GATE_KERNELS} -eq 1 ]]; then
  run_gate "kernels" "${KERNELS_GATE}" "${OUT_DIR}/BENCH_strsim.json"
fi

if [[ ${#gate_names[@]} -gt 0 ]]; then
  echo "== gate summary"
  for i in "${!gate_names[@]}"; do
    echo "gate ${gate_names[$i]}: ${gate_results[$i]}"
  done
fi
exit ${failed}
