// Batch workloads: Reconciler::Run over generated datasets.
//
//   batch_paper  PIM A-D + Cora at the paper's scale, 1 thread.
//   batch_1m     PIM B x26 (about 1M references), 3 threads,
//                max_block_size=100.
//
// Work comes in rounds: one pass per dataset. Every pass runs in a child
// forked from a parent that holds no data; the child generates its dataset
// (one set-up sample) and then runs the pass, so each sample starts from
// the memory state of a fresh command-line process and none inherits the
// heap the previous one left behind. Timed rounds of Reconciler::Run repeat
// until --seconds have passed, and at least MinRounds() (kMinTracedRounds)
// times.
//
// Untraced (--trace 0): after the timed rounds the traced pipeline runs once
// per dataset as the correctness oracle, one dataset per spare CPU at a
// time, since nothing in it is timed. Traced (--trace 1): each round runs
// the untraced Run and then the traced pipeline per dataset; the per-layer
// numbers are medians over rounds.
//
// The traced pipeline calls the public entry points Reconciler::Run
// executes, in its order, timing each from outside: PremergeEqualEmails,
// BuildDependencyGraph, Reconciler::RunOnGraph, ExpandClusters, and the
// destruction of the graph and of the premerge result.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/premerge.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"

namespace perfbench {

namespace {

using recon::Dataset;
using recon::ReconcilerOptions;
using recon::ReconcileStats;

/// Whole rounds always run at least this often, so a run never rests on
/// one sample and the round count does not flip with small speed-ups.
/// batch_paper's single-threaded passes drift the most with the host, so it
/// takes three. Traced runs pair each traced round with an untraced one and
/// need more pairs for a steady phase coverage.
size_t MinRounds(const Args& args) {
  return args.workload == "batch_paper" ? 3 : 2;
}
constexpr size_t kMinTracedRounds = 3;

/// The workload seed shifts every generator's own seed; seed 0 yields the
/// repository's canonical datasets.
uint64_t Shifted(uint64_t base, uint64_t seed) { return base + 7919 * seed; }

std::vector<std::function<Dataset()>> Generators(const Args& args) {
  std::vector<std::function<Dataset()>> gens;
  if (args.workload == "batch_1m") {
    recon::datagen::PimConfig config =
        recon::datagen::ScaleConfig(recon::datagen::PimConfigB(), 26.0);
    config.seed = Shifted(config.seed, args.seed);
    gens.push_back([config] { return recon::datagen::GeneratePim(config); });
    return gens;
  }
  for (recon::datagen::PimConfig config :
       {recon::datagen::PimConfigA(), recon::datagen::PimConfigB(),
        recon::datagen::PimConfigC(), recon::datagen::PimConfigD()}) {
    config.seed = Shifted(config.seed, args.seed);
    gens.push_back([config] { return recon::datagen::GeneratePim(config); });
  }
  recon::datagen::CoraConfig cora;
  cora.seed = Shifted(cora.seed, args.seed);
  gens.push_back([cora] { return recon::datagen::GenerateCora(cora); });
  return gens;
}

ReconcilerOptions Options(const Args& args) {
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  if (args.workload == "batch_1m") {
    // One CPU is left to the rest of the machine: on a 4-CPU VM, 4 threads
    // were no faster than 3 and a burst of steal time or a stray process
    // stretched the whole Run. Fewer when the machine has fewer CPUs.
    const int cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    options.num_threads = std::clamp(cpus - 1, 1, 3);
    options.max_block_size = 100;
  }
  return options;
}

/// ReconcileStats counters the trace reports, summed over datasets.
enum Count {
  kCondensedRefs, kCandidates, kPairComparisons, kValueAnalyses, kMemoHits,
  kMemoMisses, kMemoBytes, kPrefilterSkips, kPrefilterExact, kNodes,
  kLiveNodes, kEdges, kGraphBytes, kIterations, kRecomputations, kMerges,
  kFolds, kParallelScored, kScoreHits, kInedgeScans, kInedgeScansAvoided,
  kNumCounts
};
using Counts = std::array<int64_t, kNumCounts>;

Counts CountsOf(const ReconcileStats& s, int64_t condensed_refs) {
  Counts c{};
  c[kCondensedRefs] = condensed_refs;
  c[kCandidates] = s.num_candidates;
  c[kPairComparisons] = s.num_pair_comparisons;
  c[kValueAnalyses] = s.num_value_analyses;
  c[kMemoHits] = s.num_sim_memo_hits;
  c[kMemoMisses] = s.num_sim_memo_misses;
  c[kMemoBytes] = s.sim_memo_bytes;
  c[kPrefilterSkips] = s.num_prefilter_skips;
  c[kPrefilterExact] = s.num_prefilter_exact;
  c[kNodes] = s.num_nodes;
  c[kLiveNodes] = s.num_live_nodes;
  c[kEdges] = s.num_edges;
  c[kGraphBytes] = s.graph_bytes;
  c[kIterations] = s.solver_iterations;
  c[kRecomputations] = s.num_recomputations;
  c[kMerges] = s.num_merges;
  c[kFolds] = s.num_folds;
  c[kParallelScored] = s.num_parallel_scored;
  c[kScoreHits] = s.num_score_hits;
  c[kInedgeScans] = s.num_inedge_scans;
  c[kInedgeScansAvoided] = s.num_inedge_scans_avoided;
  return c;
}

/// What one pass over one dataset reports. Plain data: it crosses a pipe
/// from the child process that ran it.
struct Pass {
  int64_t refs = 0;
  double setup_s = 0;  ///< Generating the dataset.
  double wall_s = 0;   ///< Run() wall, or the whole traced pass.
  double premerge_s = 0, build_s = 0, solve_s = 0, expand_s = 0,
         teardown_s = 0;
  double build_cpu_s = 0, solve_cpu_s = 0;
  uint64_t digest = 0;
  PairTally pairs;
  Counts counts{};

  double PhaseSum() const {
    return premerge_s + build_s + solve_s + expand_s + teardown_s;
  }
};

Pass Untraced(const Dataset& dataset, const recon::Reconciler& reconciler,
              bool with_f1) {
  Pass p;
  const Clock::time_point start = Clock::now();
  const recon::ReconcileResult result = reconciler.Run(dataset);
  p.wall_s = SecondsSince(start);
  p.digest = ClusterDigest(result.cluster);
  if (with_f1) p.pairs.Add(dataset, result.cluster);
  return p;
}

/// Mirrors Reconciler::Run for options without feedback (the DepGraph
/// defaults this benchmark uses): premerge, then build + solve on the
/// condensed dataset when it is smaller, expand back, tear down.
Pass Traced(const Dataset& dataset, const ReconcilerOptions& options) {
  Pass p;
  const Clock::time_point start = Clock::now();
  const recon::SchemaBinding binding =
      recon::SchemaBinding::Resolve(dataset.schema());
  auto premerge = std::make_unique<recon::PremergeResult>(
      recon::PremergeEqualEmails(dataset, binding));
  p.premerge_s = SecondsSince(start);
  const int condensed_refs = premerge->condensed.num_references();
  const bool condensed = condensed_refs < dataset.num_references();
  const Dataset& input = condensed ? premerge->condensed : dataset;

  recon::BudgetTracker tracker(options.budget, options.cancel,
                               options.probe_hook);
  Clock::time_point mark = Clock::now();
  double cpu = ProcessCpuSeconds();
  auto built = std::make_unique<recon::BuiltGraph>(
      recon::BuildDependencyGraph(input, options, &tracker));
  p.build_s = SecondsSince(mark);
  p.build_cpu_s = ProcessCpuSeconds() - cpu;

  mark = Clock::now();
  cpu = ProcessCpuSeconds();
  recon::ReconcileResult result =
      recon::Reconciler(options).RunOnGraph(input, *built, &tracker);
  p.solve_s = SecondsSince(mark);
  p.solve_cpu_s = ProcessCpuSeconds() - cpu;
  p.counts = CountsOf(result.stats, condensed_refs);

  mark = Clock::now();
  const std::vector<int> clusters =
      condensed ? recon::ExpandClusters(*premerge, result.cluster)
                : std::move(result.cluster);
  p.expand_s = SecondsSince(mark);

  mark = Clock::now();
  built.reset();
  premerge.reset();
  p.teardown_s = SecondsSince(mark);
  p.wall_s = SecondsSince(start);
  p.digest = ClusterDigest(clusters);
  return p;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Result RunBatch(const Args& args) {
  Result r;
  const ReconcilerOptions options = Options(args);
  std::cout << "context " << MachineContext(args, options.num_threads).Dump()
            << std::endl;

  // Every pass runs in a child forked from this process, which holds no
  // data: the child generates its dataset (the set-up sample), then runs
  // one pass over it, as a fresh command-line process would.
  const auto gens = Generators(args);
  const size_t n = gens.size();
  std::vector<std::optional<uint64_t>> digest(n);
  std::vector<double> setup_s, run_walls, round_walls;
  std::vector<Pass> traced_rounds;  // Per round, summed over datasets.
  int64_t refs_per_round = 0;
  PairTally pairs;

  // Runs one pass per dataset, `parallel` passes at a time; returns their
  // sum.
  auto round = [&](bool traced, size_t parallel) {
    Pass sum;
    const bool with_f1 = !traced && round_walls.empty();
    std::vector<Child> children(n);
    for (size_t d = 0; d < n; ++d) {
      for (size_t next = d; next < std::min(n, d + parallel); ++next) {
        if (children[next].pid >= 0) continue;
        children[next] = Spawn<Pass>([&, next] {
          const Clock::time_point start = Clock::now();
          const Dataset dataset = gens[next]();
          const double setup = SecondsSince(start);
          Pass pass = traced ? Traced(dataset, options)
                             : Untraced(dataset, recon::Reconciler(options),
                                        with_f1);
          pass.setup_s = setup;
          pass.refs = dataset.num_references();
          return pass;
        });
      }
      const auto p = Collect<Pass>(children[d]);
      const std::string what = args.workload + " dataset " +
                               std::to_string(d) +
                               (traced ? " traced pipeline" : " Run()");
      r.Check(p.has_value(), what + " finished");
      if (!p) continue;
      if (!digest[d]) digest[d] = p->digest;
      r.Check(*digest[d] == p->digest,
              what + ": cluster digest differs from the first pass");
      if (!traced) run_walls.push_back(p->wall_s);
      pairs.Add(p->pairs);
      sum.refs += p->refs;
      sum.setup_s += p->setup_s;
      sum.wall_s += p->wall_s;
      sum.premerge_s += p->premerge_s;
      sum.build_s += p->build_s;
      sum.solve_s += p->solve_s;
      sum.expand_s += p->expand_s;
      sum.teardown_s += p->teardown_s;
      sum.build_cpu_s += p->build_cpu_s;
      sum.solve_cpu_s += p->solve_cpu_s;
      for (int k = 0; k < kNumCounts; ++k) sum.counts[k] += p->counts[k];
    }
    refs_per_round = sum.refs;
    return sum;
  };

  const size_t min_rounds = args.trace ? kMinTracedRounds : MinRounds(args);
  const Clock::time_point window = Clock::now();
  do {
    const Pass timed = round(false, 1);
    round_walls.push_back(timed.wall_s);
    setup_s.push_back(timed.setup_s);
    if (args.trace) traced_rounds.push_back(round(true, 1));
  } while (round_walls.size() < min_rounds ||
           SecondsSince(window) < args.seconds);
  // The traced pipeline is the oracle every timed Run must agree with.
  if (!args.trace) {
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    round(true, static_cast<size_t>(std::max(1L, cpus - 1)));
  }
  std::cout << args.workload << ": " << n << " datasets, " << refs_per_round
            << " references, " << round_walls.size() << " rounds"
            << std::endl;

  const double pair_f1 = pairs.F1();
  r.Check(pair_f1 > 0, args.workload + ": pair F1 is positive");
  r.info.Set("rounds", static_cast<int64_t>(round_walls.size()));
  r.info.Set("refs_per_round", refs_per_round);
  r.info.Set("run_wall_s", JsonArray(run_walls));
  r.info.Set("setup_s", JsonArray(setup_s));
  r.info.Set("pair_f1", pair_f1);

  if (!args.trace) {
    r.Metric("setup_s", Median(setup_s), "s");
    r.Metric("refs_per_s", refs_per_round / Median(round_walls), "1/s");
    r.Metric("latency_p50_ms", 1e3 * Median(round_walls), "ms");
    r.Metric("pair_f1", pair_f1, "ratio");
    r.Metric("rss_mb", std::max(PeakRssMb(), ChildPeakRssMb()), "MB");
    return r;
  }

  // ---- Per-layer metrics: medians over rounds ----------------------------
  auto med = [&](double Pass::*field) {
    std::vector<double> v;
    for (const Pass& t : traced_rounds) v.push_back(t.*field);
    return Median(v);
  };
  // Each traced round is compared with the untraced round just before it,
  // so drift in machine speed between rounds cancels.
  std::vector<double> phases, untimed, coverage, overhead, build_util,
      solve_util;
  const double threads = options.num_threads;
  for (size_t i = 0; i < traced_rounds.size(); ++i) {
    const Pass& t = traced_rounds[i];
    phases.push_back(t.PhaseSum());
    untimed.push_back(round_walls[i] - t.PhaseSum());
    coverage.push_back(Ratio(t.PhaseSum(), round_walls[i]));
    overhead.push_back(t.wall_s - round_walls[i]);
    build_util.push_back(Ratio(t.build_cpu_s, t.build_s * threads));
    solve_util.push_back(Ratio(t.solve_cpu_s, t.solve_s * threads));
  }
  r.info.Set("round_wall_s", JsonArray(round_walls));
  r.info.Set("traced_phase_sum_s", JsonArray(phases));
  r.Metric("core.premerge_s", med(&Pass::premerge_s), "s");
  r.Metric("core.build_s", med(&Pass::build_s), "s");
  r.Metric("core.solve_s", med(&Pass::solve_s), "s");
  r.Metric("core.expand_s", med(&Pass::expand_s), "s");
  r.Metric("core.teardown_s", med(&Pass::teardown_s), "s");
  r.Metric("untimed_s", Median(untimed), "s");
  r.Metric("phase_coverage", Median(coverage), "ratio");
  r.Metric("trace_overhead_s", Median(overhead), "s");
  r.Metric("runtime.build_cpu_util", Median(build_util), "ratio");
  r.Metric("runtime.solve_cpu_util", Median(solve_util), "ratio");

  // Counts are deterministic: take them from the first traced round.
  const Counts& c = traced_rounds.front().counts;
  auto count = [&](const char* name, Count k, const char* unit = "count") {
    r.Metric(name, static_cast<double>(c[k]), unit);
  };
  auto ratio = [&](const char* name, Count num, double den) {
    r.Metric(name, Ratio(static_cast<double>(c[num]), den), "ratio");
  };
  ratio("premerge.condensed_ratio", kCondensedRefs,
        static_cast<double>(refs_per_round));
  count("core.candidates", kCandidates);
  count("sim.pair_comparisons", kPairComparisons);
  count("sim.value_analyses", kValueAnalyses);
  ratio("sim.memo_hit_ratio", kMemoHits,
        static_cast<double>(c[kMemoHits] + c[kMemoMisses]));
  count("sim.memo_bytes", kMemoBytes, "bytes");
  ratio("sim.prefilter_skip_ratio", kPrefilterSkips,
        static_cast<double>(c[kPrefilterSkips] + c[kPrefilterExact]));
  count("graph.nodes", kNodes);
  count("graph.live_nodes", kLiveNodes);
  count("graph.edges", kEdges);
  count("graph.bytes", kGraphBytes, "bytes");
  count("solver.iterations", kIterations);
  count("solver.recomputations", kRecomputations);
  count("solver.merges", kMerges);
  count("solver.folds", kFolds);
  ratio("solver.parallel_useful_ratio", kScoreHits,
        static_cast<double>(c[kParallelScored]));
  ratio("solver.inedge_scans_avoided_ratio", kInedgeScansAvoided,
        static_cast<double>(c[kInedgeScans] + c[kInedgeScansAvoided]));
  return r;
}

}  // namespace perfbench
