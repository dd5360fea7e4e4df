// Fixed-point solve with the delta-propagated evidence cache off vs. on
// (ReconcilerOptions::evidence_cache). For each PIM configuration plus
// Cora, the graph is built once per mode (untimed) and the solve phase is
// timed best-of-three. Reports recomputations per second, in-edge scans
// performed and avoided, the scan-reduction factor, delta pushes, cache
// rebuilds, and the solve speedup.
//
// The cache is an invisible optimisation: the binary exits non-zero if
// the partitions, merged pairs, or merge counts differ between modes.
//
// A second guard covers the budget subsystem (DESIGN.md §10): on PIM B
// the solve is timed with no budget configured vs. a generous budget
// (every probe performs its full checks but never fires). The output must
// stay byte-identical and the probe overhead below 2% of solve time, so
// budget support stays effectively free. A third, degraded row runs under
// an already-expired deadline to show the anytime path's cost shape.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/timer.h"

namespace {

using namespace recon;

struct ModeResult {
  ReconcileResult result;
  double solve_seconds = 0;
};

/// Builds untimed, then solves best-of-`reps` with `options`.
ModeResult RunMode(const Dataset& dataset, const ReconcilerOptions& options,
                   int reps) {
  ModeResult out;
  const Reconciler reconciler(options);
  for (int rep = 0; rep < reps; ++rep) {
    BuiltGraph built = BuildDependencyGraph(dataset, options);
    Timer timer;
    ReconcileResult result = reconciler.RunOnGraph(dataset, built);
    const double seconds = timer.ElapsedSeconds();
    if (rep == 0 || seconds < out.solve_seconds) out.solve_seconds = seconds;
    if (rep == 0) out.result = std::move(result);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);
  bench::PrintHeader("Perf: fixed-point solve, evidence cache off vs. on",
                     "delta-propagated evidence caching (beyond the paper)");

  struct Case {
    std::string name;
    Dataset dataset;
  };
  std::vector<Case> cases;
  for (const datagen::PimConfig& config : bench::ScaledPimConfigs()) {
    cases.push_back({config.name, datagen::GeneratePim(config)});
  }
  {
    datagen::CoraConfig cora;
    const double scale = bench::BenchScale();
    if (scale < 1.0) {
      cora.num_papers = std::max(2, static_cast<int>(cora.num_papers * scale));
      cora.num_citations =
          std::max(4, static_cast<int>(cora.num_citations * scale));
      cora.num_authors =
          std::max(2, static_cast<int>(cora.num_authors * scale));
      cora.num_venue_series =
          std::max(2, static_cast<int>(cora.num_venue_series * scale));
    }
    cases.push_back({"Cora", datagen::GenerateCora(cora)});
  }

  TablePrinter table({"Dataset", "Recomp/s", "Scans off", "Scans on",
                      "Reduction", "Avoided", "Pushes", "Solve off s",
                      "Solve on s", "Speedup", "Output"});
  bench::JsonLog json;
  bool any_mismatch = false;
  bool reduction_ok = true;

  for (const Case& c : cases) {
    ReconcilerOptions options =
        bench::WithBenchThreads(ReconcilerOptions::DepGraph());
    options.evidence_cache = false;
    const ModeResult off = RunMode(c.dataset, options, 3);
    options.evidence_cache = true;
    const ModeResult on = RunMode(c.dataset, options, 3);

    const bool identical =
        off.result.cluster == on.result.cluster &&
        off.result.merged_pairs == on.result.merged_pairs &&
        off.result.stats.num_merges == on.result.stats.num_merges &&
        off.result.stats.num_folds == on.result.stats.num_folds;
    if (!identical) any_mismatch = true;

    const ReconcileStats& s_off = off.result.stats;
    const ReconcileStats& s_on = on.result.stats;
    // A perfect run rescans nothing; clamp the denominator so the factor
    // stays finite.
    const double reduction =
        static_cast<double>(s_off.num_inedge_scans) /
        static_cast<double>(std::max<int64_t>(1, s_on.num_inedge_scans));
    if (c.name != "Cora" && reduction < 2.0) reduction_ok = false;
    const double recomp_per_s =
        on.solve_seconds > 0
            ? static_cast<double>(s_on.num_recomputations) / on.solve_seconds
            : 0.0;

    table.AddRow({c.name, TablePrinter::Num(recomp_per_s, 0),
                  std::to_string(s_off.num_inedge_scans),
                  std::to_string(s_on.num_inedge_scans),
                  TablePrinter::Num(reduction, 2) + "x",
                  std::to_string(s_on.num_inedge_scans_avoided),
                  std::to_string(s_on.num_delta_pushes),
                  TablePrinter::Num(off.solve_seconds, 3),
                  TablePrinter::Num(on.solve_seconds, 3),
                  TablePrinter::Num(off.solve_seconds / on.solve_seconds, 2) +
                      "x",
                  identical ? "identical" : "MISMATCH"});

    json.BeginRow();
    json.Add("dataset", c.name);
    json.Add("recomputations", s_on.num_recomputations);
    json.Add("recomputations_per_sec", recomp_per_s);
    json.Add("inedge_scans_off", s_off.num_inedge_scans);
    json.Add("inedge_scans_on", s_on.num_inedge_scans);
    json.Add("scan_reduction", reduction);
    json.Add("inedge_scans_avoided", s_on.num_inedge_scans_avoided);
    json.Add("delta_pushes", s_on.num_delta_pushes);
    json.Add("cache_rebuilds", s_on.num_cache_rebuilds);
    json.Add("solve_seconds_off", off.solve_seconds);
    json.Add("solve_seconds_on", on.solve_seconds);
    // The queue drain alone (solve minus constraints and closure).
    json.Add("solve_commit_seconds_on", s_on.solve_commit_seconds);
    json.Add("identical", identical ? std::string("true")
                                    : std::string("false"));
  }

  table.Print(std::cout);
  std::cout << "\n'Avoided' counts in-edges a full rescan would have read "
               "but the valid\ncache made unnecessary; 'Pushes' counts "
               "delta updates applied instead.\n";

  // --- Budget probe overhead guard (PIM B) ---------------------------------
  bool budget_identical = true;
  double budget_overhead = 0;
  {
    const Case* pim_b = nullptr;
    for (const Case& c : cases) {
      if (c.name == "PIM B") pim_b = &c;
    }
    ReconcilerOptions options =
        bench::WithBenchThreads(ReconcilerOptions::DepGraph());
    const ModeResult off = RunMode(pim_b->dataset, options, 5);
    // Generous: every limit set, none reachable — probes do all the work
    // (counter bumps, hook dispatch, strided clock reads) with no stop.
    options.budget.deadline_ms = 3.6e6;
    options.budget.max_solver_iterations = int64_t{1} << 60;
    options.budget.max_merges = int64_t{1} << 60;
    options.budget.soft_max_memory_bytes = int64_t{1} << 60;
    const ModeResult on = RunMode(pim_b->dataset, options, 5);

    budget_identical = off.result.cluster == on.result.cluster &&
                       off.result.merged_pairs == on.result.merged_pairs &&
                       on.result.stats.stop_reason == StopReason::kConverged;
    budget_overhead =
        off.solve_seconds > 0
            ? (on.solve_seconds - off.solve_seconds) / off.solve_seconds
            : 0.0;

    // Degraded row: an already-expired deadline — the run freezes at its
    // first probe yet still returns a valid (empty-ish) partition.
    options.budget.deadline_ms = 1e-6;
    const ModeResult degraded = RunMode(pim_b->dataset, options, 1);

    std::cout << "\nBudget guard (PIM B): solve off " << off.solve_seconds
              << "s, generous-budget " << on.solve_seconds << "s, overhead "
              << budget_overhead * 100 << "% ("
              << (budget_identical ? "identical" : "MISMATCH") << ")\n"
              << "Degraded (expired deadline): stop="
              << StopReasonToString(degraded.result.stats.stop_reason)
              << " merges=" << degraded.result.stats.num_merges << " solve "
              << degraded.solve_seconds << "s\n";

    json.BeginRow();
    json.Add("dataset", std::string("PIM B [budget-guard]"));
    json.Add("solve_seconds_unbudgeted", off.solve_seconds);
    json.Add("solve_seconds_generous_budget", on.solve_seconds);
    json.Add("budget_probe_overhead_pct", budget_overhead * 100);
    json.Add("budget_probes", on.result.stats.num_budget_probes);
    json.Add("budget_identical", budget_identical ? std::string("true")
                                                  : std::string("false"));
    json.Add("degraded_stop_reason",
             std::string(StopReasonToString(
                 degraded.result.stats.stop_reason)));
    json.Add("degraded_merges", degraded.result.stats.num_merges);
    json.Add("degraded_solve_seconds", degraded.solve_seconds);
  }

  json.Write(bench::JsonPathFromArgs(argc, argv));

  if (any_mismatch) {
    std::cerr << "FATAL: partitions differ between cache off and on\n";
    return 1;
  }
  if (!reduction_ok) {
    std::cerr << "FATAL: in-edge scan reduction below 2x on a PIM config\n";
    return 1;
  }
  if (!budget_identical) {
    std::cerr << "FATAL: generous budget changed the output or did not "
                 "converge\n";
    return 1;
  }
  if (budget_overhead >= 0.02) {
    std::cerr << "FATAL: budget probe overhead "
              << budget_overhead * 100 << "% >= 2% on PIM B\n";
    return 1;
  }
  return 0;
}
