// Thread-scaling of the parallel phases at 1 / 2 / 4 / 8 threads.
//
// Section 1 — graph build: candidate generation plus dependency-graph
// construction (which contains the initial pairwise similarity scoring)
// on a Table-1-scale PIM A dataset. Reports wall time, speedup over the
// serial path, and candidate pairs scored per second.
//
// Section 2 — end to end: Reconciler::Run on PIM B, the pipeline callers
// really execute (parallel candidates and staging, serial fixed-point
// drain). Thread counts are interleaved within each of kRunReps
// repetitions so drift on a shared machine hits every count alike; rows
// report the median and the spread. tools/run_benches.sh --gate-speedup
// requires the threads=4 median to be no slower than the threads=1 median.
//
// Section 3 — the million-reference run: Reconciler::Run on PIM B scaled
// 26x (about 1M references), at 1 and 4 threads interleaved the same way.
// It is deliberately not scaled by RECON_BENCH_SCALE. At this size the
// default blocking keys stop discriminating (common-name and domain
// blocks hold tens of thousands of references), so the run uses
// max_block_size=100, the paper's popular-entity pruning, which keeps the
// candidate set and the graph near-linear in the corpus.
// references_per_sec is the headline column; --gate-speedup applies the
// same threads=4 <= threads=1 rule to these rows.
//
// At every thread count every section checks the output against the
// one-thread run — partitions, merged pairs, merge and fold counts — and
// the binary exits non-zero on any difference: parallelism must never
// change the output.

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "runtime/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace recon;

/// True when `a` and `b` are the byte-identical reconciliation outcome.
bool SameOutput(const ReconcileResult& a, const ReconcileResult& b) {
  return a.cluster == b.cluster && a.merged_pairs == b.merged_pairs &&
         a.stats.num_merges == b.stats.num_merges &&
         a.stats.num_folds == b.stats.num_folds;
}

/// Interleaved repetitions of the end-to-end thread curve.
constexpr int kRunReps = 5;

/// Median of `samples` (sorted in place).
double Median(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Times Reconciler::Run on `dataset` at each of `threads`, interleaved
/// within each of kRunReps repetitions, prints the median/min/max table
/// and logs one `section` row per thread count. Returns false (after
/// reporting) when any run's output differs from the first threads[0]
/// run.
bool RunThreadCurve(const Dataset& dataset, ReconcilerOptions options,
                    const std::vector<int>& threads,
                    const std::string& section, bench::JsonLog& json) {
  std::vector<std::vector<double>> samples(threads.size());
  ReconcileResult serial_result;
  for (int rep = 0; rep < kRunReps; ++rep) {
    for (size_t t = 0; t < threads.size(); ++t) {
      options.num_threads = threads[t];
      Timer timer;
      ReconcileResult result = Reconciler(options).Run(dataset);
      samples[t].push_back(timer.ElapsedSeconds());
      if (rep == 0 && t == 0) {
        serial_result = std::move(result);
      } else if (!SameOutput(serial_result, result)) {
        std::cerr << "FATAL: Run output at " << threads[t]
                  << " threads differs from " << threads[0] << " thread\n";
        return false;
      }
    }
  }

  TablePrinter table(
      {"Threads", "Median s", "Min s", "Max s", "Speedup", "Refs/s"});
  double serial_median = 0;
  for (size_t t = 0; t < threads.size(); ++t) {
    const double median = Median(samples[t]);
    const double lo = samples[t].front();
    const double hi = samples[t].back();
    if (t == 0) serial_median = median;
    table.AddRow({std::to_string(threads[t]), TablePrinter::Num(median, 3),
                  TablePrinter::Num(lo, 3), TablePrinter::Num(hi, 3),
                  TablePrinter::Num(serial_median / median, 2) + "x",
                  TablePrinter::Num(dataset.num_references() / median, 0)});
    json.BeginRow();
    json.Add("section", section);
    json.Add("threads", threads[t]);
    json.Add("reps", kRunReps);
    json.Add("references", dataset.num_references());
    json.Add("max_block_size", options.max_block_size);
    json.Add("run_seconds_median", median);
    json.Add("run_seconds_min", lo);
    json.Add("run_seconds_max", hi);
    json.Add("speedup", serial_median / median);
    json.Add("references_per_sec", dataset.num_references() / median);
    json.Add("candidates", serial_result.stats.num_candidates);
    json.Add("merges", serial_result.stats.num_merges);
    json.Add("graph_bytes", serial_result.stats.graph_bytes);
    json.Add("identical", std::string("true"));
  }
  table.Print(std::cout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recon;
  bench::ParseArgs(argc, argv);
  bench::PrintHeader("Perf: thread scaling of graph build and solve",
                     "runtime/ subsystem (beyond the paper)");
  std::cout << "hardware threads: "
            << runtime::ThreadPool::HardwareConcurrency() << "\n";

  bench::JsonLog json;

  // ---- Section 1: graph build scaling (PIM A) --------------------------
  {
    datagen::PimConfig config = datagen::PimConfigA();
    const double scale = bench::BenchScale();
    if (scale < 1.0) config = datagen::ScaleConfig(config, scale);
    const Dataset dataset = datagen::GeneratePim(config);
    std::cout << "\nGraph build, PIM A: " << dataset.num_references()
              << " references\n\n";

    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = 1;
    const std::vector<int> serial_cluster =
        Reconciler(options).Run(dataset).cluster;

    TablePrinter table({"Threads", "Build s", "Speedup", "Pairs/s", "Output"});
    double serial_seconds = 0;
    for (const int threads : {1, 2, 4, 8}) {
      options.num_threads = threads;
      // Best of three: thread-scaling numbers are noisy on shared machines.
      double best_seconds = 0;
      int num_candidates = 0;
      for (int rep = 0; rep < 3; ++rep) {
        Timer timer;
        const BuiltGraph built = BuildDependencyGraph(dataset, options);
        const double seconds = timer.ElapsedSeconds();
        if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
        num_candidates = built.num_candidates;
      }
      if (threads == 1) serial_seconds = best_seconds;
      const bool identical =
          Reconciler(options).Run(dataset).cluster == serial_cluster;
      table.AddRow(
          {std::to_string(threads), TablePrinter::Num(best_seconds, 3),
           TablePrinter::Num(serial_seconds / best_seconds, 2) + "x",
           TablePrinter::Num(num_candidates / best_seconds, 0),
           identical ? "identical" : "MISMATCH"});
      json.BeginRow();
      json.Add("section", std::string("build"));
      json.Add("threads", threads);
      json.Add("build_seconds", best_seconds);
      json.Add("speedup", serial_seconds / best_seconds);
      json.Add("candidates_per_sec", num_candidates / best_seconds);
      json.Add("references_per_sec", dataset.num_references() / best_seconds);
      json.Add("identical",
               identical ? std::string("true") : std::string("false"));
      if (!identical) {
        std::cerr << "FATAL: build output at " << threads
                  << " threads differs from serial\n";
        return 1;
      }
    }
    table.Print(std::cout);
  }

  // ---- Section 2: end-to-end Reconciler::Run scaling (PIM B) ----------
  {
    datagen::PimConfig config = datagen::PimConfigB();
    const double scale = bench::BenchScale();
    if (scale < 1.0) config = datagen::ScaleConfig(config, scale);
    const Dataset dataset = datagen::GeneratePim(config);
    std::cout << "\nEnd to end (Reconciler::Run), PIM B: "
              << dataset.num_references() << " references, " << kRunReps
              << " interleaved reps\n\n";

    if (!RunThreadCurve(dataset, ReconcilerOptions::DepGraph(), {1, 2, 4, 8},
                        "run", json)) {
      return 1;
    }
  }

  // ---- Section 3: the million-reference run (26x PIM B) ----------------
  {
    // Not scaled by RECON_BENCH_SCALE: the point of this row is the
    // million-reference corpus.
    const datagen::PimConfig config =
        datagen::ScaleConfig(datagen::PimConfigB(), 26.0);
    Timer gen_timer;
    const Dataset dataset = datagen::GeneratePim(config);
    std::cout << "\nEnd to end (Reconciler::Run), PIM B x26: "
              << dataset.num_references() << " references (generated in "
              << TablePrinter::Num(gen_timer.ElapsedSeconds(), 1)
              << "s), max_block_size=100, " << kRunReps
              << " interleaved reps\n\n";

    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.max_block_size = 100;  // Popular-key pruning at corpus scale.
    if (!RunThreadCurve(dataset, options, {1, 4}, "run_1m", json)) {
      return 1;
    }
  }

  json.Write(bench::JsonPathFromArgs(argc, argv));
  std::cout << "\nSpeedup is bounded by the hardware thread count above; "
               "output is\nbyte-identical at every thread count, checked "
               "above. tools/run_benches.sh\n--gate-speedup applies the "
               "end-to-end gate only when the hardware can\nexpress it.\n";
  return 0;
}
