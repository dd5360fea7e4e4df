// End-to-end benchmark of the reconciliation system (see perfbench/README.md).
//
//   perfbench --workload batch_paper|batch_1m|serve_mixed --seed N
//             --seconds S --trace 0|1 [--scratch DIR]
//
// Prints human-readable progress, then a `context` line (machine and build),
// an `info` line (diagnostics), and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any correctness check failed, 2 on bad arguments.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload batch_paper|batch_1m|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();

  const double steal_at_start = perfbench::StealSeconds();
  perfbench::Result result;
  if (args.workload == "batch_paper" || args.workload == "batch_1m") {
    result = perfbench::RunBatch(args);
  } else if (args.workload == "serve_mixed") {
    result = perfbench::RunServe(args);
  } else {
    return Usage();
  }

  // Host contention: a run with seconds of steal time measured a slower
  // machine, not a slower program.
  result.info.Set("steal_s", perfbench::StealSeconds() - steal_at_start);
  std::cout << "info " << result.info.Dump() << "\n";
  recon::json::Value line = recon::json::Value::Object();
  line.Set("correct", result.correct);
  line.Set("attempted", result.attempted);
  line.Set("failed", result.failed);
  line.Set("metrics", std::move(result.metrics));
  std::cout << line.Dump() << std::endl;
  return result.correct ? 0 : 1;
}
