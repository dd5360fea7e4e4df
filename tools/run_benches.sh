#!/usr/bin/env bash
# Runs every perf_* bench with --json and collects BENCH_<name>.json files
# so perf trajectories can be tracked across commits.
#
# Usage: tools/run_benches.sh [--gate-speedup] [--gate-shard]
#        [--gate-kernels] [build_dir] [out_dir]
#   build_dir  defaults to build (must already be built)
#   out_dir    defaults to the current directory
#
# --gate-speedup: after the run, assert from BENCH_scaling.json that the
#   end-to-end Reconciler::Run on PIM B is no slower at 4 threads than at
#   1: the median of the interleaved threads=4 repetitions must be <= the
#   threads=1 median, so parallelism never loses. The gate auto-skips when
#   the hardware-metadata row the benches emit reports nprocs_online <= 2
#   (e.g. the 1-CPU container the committed baselines were recorded on) —
#   a machine that cannot run 4 threads concurrently cannot express the
#   comparison, and a failure there would only measure scheduler noise.
#   It also skips below RECON_BENCH_SCALE=1: the gate is defined on PIM B
#   at full scale, and a ~0.1 s run at scale 0.25 is dominated by thread
#   start-up, so its 4-vs-1 order flips between runs.
#
# --gate-shard: after the run, assert from BENCH_shard.json that (a) every
#   sharded run's output was byte-identical to the monolithic run — checked
#   on every machine, no exceptions — and (b) the 4-shard run at 4 threads
#   beat the monolithic run by more than 1.3x. The speedup half follows the
#   same convention as --gate-speedup: it auto-skips when nprocs_online <= 2.
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
GATE_SHARD=0
GATE_KERNELS=0
while [[ "${1:-}" == --gate-* ]]; do
  case "$1" in
    --gate-speedup) GATE_SPEEDUP=1 ;;
    --gate-shard) GATE_SHARD=1 ;;
    --gate-kernels) GATE_KERNELS=1 ;;
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

if [[ ${GATE_SPEEDUP} -eq 1 && ${status} -eq 0 ]]; then
  scaling="${OUT_DIR}/BENCH_scaling.json"
  echo "== gate: end-to-end Run median at 4 threads <= 1 thread (${scaling})"
  if ! python3 - "${scaling}" <<'PYEOF'
import json, sys

rows = json.load(open(sys.argv[1]))
meta = next((r for r in rows if "nprocs_online" in r), None)
if meta is None:
    sys.exit("gate: no hardware-metadata row in BENCH_scaling.json")
nprocs = int(meta["nprocs_online"])
if nprocs <= 2:
    print(f"gate: SKIPPED — nprocs_online={nprocs}; a machine with <= 2 "
          "online CPUs cannot run 4 threads concurrently, so the gate "
          "would only measure scheduler noise")
    sys.exit(0)
scale = float(meta.get("bench_scale", 1.0))
if scale < 1.0:
    print(f"gate: SKIPPED — bench_scale={scale}; the gate is defined on "
          "PIM B at scale 1, and a smaller run is dominated by thread "
          "start-up noise")
    sys.exit(0)
run = {r["threads"]: r for r in rows if r.get("section") == "run"}
if 1 not in run or 4 not in run:
    sys.exit("gate: no threads=1/threads=4 run rows in BENCH_scaling.json")
one, four = run[1], run[4]
def spread(r):
    return (f"median {r['run_seconds_median']:.3f}s, range "
            f"{r['run_seconds_min']:.3f}-{r['run_seconds_max']:.3f}s "
            f"over {r['reps']} reps")
msg = (f"threads=4 {spread(four)} vs threads=1 {spread(one)} "
       f"(nprocs_online={nprocs})")
if float(four["run_seconds_median"]) <= float(one["run_seconds_median"]):
    print(f"gate: PASS — {msg}")
else:
    sys.exit(f"gate: FAIL — {msg}")
PYEOF
  then
    status=1
  fi
fi

if [[ ${GATE_SHARD} -eq 1 && ${status} -eq 0 ]]; then
  shard="${OUT_DIR}/BENCH_shard.json"
  echo "== gate: shard identity (always) + speedup > 1.3x at 4 shards (${shard})"
  if ! python3 - "${shard}" <<'PYEOF'
import json, sys

rows = json.load(open(sys.argv[1]))
shard_rows = [r for r in rows if r.get("section") == "shard"]
if not shard_rows:
    sys.exit("gate: no shard rows in BENCH_shard.json")

# Identity is unconditional: a machine that cannot express the speedup can
# still (and must) produce the byte-identical output.
broken = [r for r in shard_rows if r.get("identical") != "true"]
if broken:
    sys.exit("gate: FAIL — sharded output differed from the monolithic run "
             f"at shards={[r.get('shards') for r in broken]}")
print(f"gate: identity PASS — {len(shard_rows)} sharded runs byte-identical")

meta = next((r for r in rows if "nprocs_online" in r), None)
if meta is None:
    sys.exit("gate: no hardware-metadata row in BENCH_shard.json")
nprocs = int(meta["nprocs_online"])
if nprocs <= 2:
    print(f"gate: speedup SKIPPED — nprocs_online={nprocs}; a machine with "
          "<= 2 online CPUs cannot run the shard lanes concurrently, so the "
          "speedup gate would only measure scheduler noise")
    sys.exit(0)
four = [r for r in shard_rows
        if r.get("shards") == 4 and r.get("threads") == 4]
if not four:
    sys.exit("gate: no shards=4 threads=4 row in BENCH_shard.json")
worst = min(float(r["shard_speedup"]) for r in four)
if worst > 1.3:
    print(f"gate: speedup PASS — shard speedup {worst:.2f}x > 1.3x at 4 "
          f"shards (nprocs_online={nprocs})")
else:
    sys.exit(f"gate: FAIL — shard speedup {worst:.2f}x <= 1.3x at 4 shards "
             f"(nprocs_online={nprocs})")
PYEOF
  then
    status=1
  fi
fi

if [[ ${GATE_KERNELS} -eq 1 && ${status} -eq 0 ]]; then
  strsim="${OUT_DIR}/BENCH_strsim.json"
  echo "== gate: bit-parallel Levenshtein >= 2x scalar (${strsim})"
  if ! python3 - "${strsim}" <<'PYEOF'
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
    sys.exit(0)

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
  then
    status=1
  fi
fi

exit ${status}
