// Execution budgets, cooperative cancellation, and anytime graceful
// degradation (DESIGN.md §10). The contract under test:
//
//   * Budget exhaustion / cancellation NEVER aborts. Every stop — at any
//     probe point of any phase — still enforces constraints, computes the
//     transitive closure, and returns a valid partition plus the correct
//     StopReason and budget counters.
//   * Iteration- and merge-budget stops freeze the solve after an exact
//     prefix of the canonical commit sequence, so their output is
//     byte-identical at every thread count.
//   * Degradation is anytime: a larger iteration budget never loses a
//     merge a smaller one made, and a generous budget converges to the
//     unbudgeted result, byte-identically.
//
// Deterministic fault injection (util/fault_injection.h) drives every
// StopReason through every phase — batch build, batch solve, and
// incremental flushes — without timing flakiness. Runs under
// AddressSanitizer via the ctest `asan` label.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_builder.h"
#include "core/incremental.h"
#include "core/reconciler.h"
#include "core/solver.h"
#include "datagen/pim_generator.h"
#include "model/dataset.h"
#include "util/budget.h"
#include "util/fault_injection.h"

namespace recon {
namespace {

Dataset SmallPim(uint64_t seed = 42) {
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.10);
  config.seed = seed;
  return datagen::GeneratePim(config);
}

/// The anytime-validity contract: whatever the stop reason, the result is
/// a partition of the references — canonical representatives, class-pure
/// clusters, merged pairs consistent with the clustering.
void ExpectValidPartition(const Dataset& dataset,
                          const ReconcileResult& result) {
  ASSERT_EQ(result.cluster.size(),
            static_cast<size_t>(dataset.num_references()));
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    const int rep = result.cluster[id];
    ASSERT_GE(rep, 0);
    ASSERT_LT(rep, dataset.num_references());
    EXPECT_EQ(result.cluster[rep], rep) << "non-canonical rep for " << id;
    EXPECT_EQ(dataset.reference(id).class_id(),
              dataset.reference(rep).class_id())
        << "cross-class cluster at " << id;
  }
  for (const auto& [a, b] : result.merged_pairs) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, dataset.num_references());
    ASSERT_GE(b, 0);
    ASSERT_LT(b, dataset.num_references());
    EXPECT_EQ(result.cluster[a], result.cluster[b])
        << "merged pair (" << a << ", " << b << ") not co-clustered";
  }
}

const StopReason kInjectableReasons[] = {
    StopReason::kDeadline,        StopReason::kIterationBudget,
    StopReason::kMergeBudget,     StopReason::kMemoryBudget,
    StopReason::kCancelled,
};

std::string Describe(ProbePoint point, StopReason reason, int64_t fire_at) {
  return std::string(ProbePointToString(point)) + "/" +
         StopReasonToString(reason) + "@" + std::to_string(fire_at);
}

// ---- Fault injection: every StopReason at every batch probe point ----------

TEST(BudgetFaultInjectionTest, EveryReasonAtEveryBatchProbePoint) {
  const Dataset dataset = SmallPim();
  // Per-point fire indices. The solve probes kSolveRound exactly once per
  // Run (index 0); the other points probe repeatedly, so also exercise a
  // mid-phase stop.
  const std::vector<std::pair<ProbePoint, std::vector<int64_t>>>
      kBatchPoints = {
          {ProbePoint::kCandidates, {0, 3}},
          {ProbePoint::kBuild, {0, 3}},
          {ProbePoint::kSolveRound, {0}},
          {ProbePoint::kSolveCommit, {0, 3}},
      };
  for (const auto& [point, fire_indices] : kBatchPoints) {
    for (const StopReason reason : kInjectableReasons) {
      for (const int64_t fire_at : fire_indices) {
        SCOPED_TRACE(Describe(point, reason, fire_at));
        ReconcilerOptions options = ReconcilerOptions::DepGraph();
        auto injector =
            std::make_shared<FaultInjector>(point, fire_at, reason);
        options.probe_hook = injector;
        const ReconcileResult result = Reconciler(options).Run(dataset);
        ExpectValidPartition(dataset, result);
        EXPECT_GE(injector->fired(), 1)
            << "probe point never reached at index " << fire_at;
        EXPECT_EQ(result.stats.stop_reason, reason);
        EXPECT_GT(result.stats.num_budget_probes, 0);
      }
    }
  }
}

TEST(BudgetFaultInjectionTest, EveryReasonAtCanopyProbePoint) {
  const Dataset dataset = SmallPim();
  for (const StopReason reason : kInjectableReasons) {
    SCOPED_TRACE(Describe(ProbePoint::kCanopy, reason, 2));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.use_canopies = true;
    auto injector =
        std::make_shared<FaultInjector>(ProbePoint::kCanopy, 2, reason);
    options.probe_hook = injector;
    const ReconcileResult result = Reconciler(options).Run(dataset);
    ExpectValidPartition(dataset, result);
    EXPECT_GE(injector->fired(), 1);
    EXPECT_EQ(result.stats.stop_reason, reason);
  }
}

TEST(BudgetFaultInjectionTest, LateSolveInjectionKeepsEarlierMerges) {
  // Firing deep into the solve must preserve the work already committed.
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const ReconcileResult full = Reconciler(options).Run(dataset);
  ASSERT_GT(full.stats.num_merges, 0);
  // Inject three-quarters of the way through the full drain: far enough
  // in that merges have been committed, early enough that the stop is
  // genuinely premature.
  const int64_t fire_at = full.stats.solver_iterations * 3 / 4;
  auto injector = std::make_shared<FaultInjector>(
      ProbePoint::kSolveCommit, fire_at, StopReason::kCancelled);
  options.probe_hook = injector;
  const ReconcileResult result = Reconciler(options).Run(dataset);
  ExpectValidPartition(dataset, result);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kCancelled);
  EXPECT_GE(result.stats.solver_iterations, fire_at);
  EXPECT_GT(result.stats.num_merges, 0);
  EXPECT_LE(result.stats.num_merges, full.stats.num_merges);
}

TEST(BudgetFaultInjectionTest, HealthyRunProbesEveryBatchPhase) {
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  auto recorder = std::make_shared<ProbeRecorder>();
  options.probe_hook = recorder;
  const ReconcileResult result = Reconciler(options).Run(dataset);
  ExpectValidPartition(dataset, result);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kConverged);
  EXPECT_GT(recorder->seen(ProbePoint::kCandidates), 0);
  EXPECT_GT(recorder->seen(ProbePoint::kBuild), 0);
  EXPECT_GT(recorder->seen(ProbePoint::kSolveRound), 0);
  EXPECT_GT(recorder->seen(ProbePoint::kSolveCommit), 0);
  EXPECT_EQ(recorder->seen(ProbePoint::kCanopy), 0);  // Blocking path.
  // Probe traffic is deterministic and fully accounted: the tracker's
  // total is exactly what the hook observed.
  EXPECT_EQ(result.stats.num_budget_probes,
            recorder->seen(ProbePoint::kCandidates) +
                recorder->seen(ProbePoint::kBuild) +
                recorder->seen(ProbePoint::kSolveRound) +
                recorder->seen(ProbePoint::kSolveCommit));
}

// ---- Real (non-injected) budget exhaustion ---------------------------------

TEST(BudgetTest, TinyIterationBudgetReturnsValidPartition) {
  // Regression for the former RECON_CHECK abort: an iteration cap is a
  // degraded stop, never a crash.
  const Dataset dataset = SmallPim();
  for (const int64_t cap : {1, 2, 3, 10}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.budget.max_solver_iterations = cap;
    const ReconcileResult result = Reconciler(options).Run(dataset);
    ExpectValidPartition(dataset, result);
    EXPECT_EQ(result.stats.stop_reason, StopReason::kIterationBudget);
    EXPECT_LE(result.stats.solver_iterations, cap);
  }
}

TEST(BudgetTest, MergeBudgetStopsAtExactlyTheCap) {
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const ReconcileResult unbudgeted = Reconciler(options).Run(dataset);
  ASSERT_GT(unbudgeted.stats.num_merges, 5);

  options.budget.max_merges = 5;
  const ReconcileResult result = Reconciler(options).Run(dataset);
  ExpectValidPartition(dataset, result);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kMergeBudget);
  EXPECT_EQ(result.stats.num_merges, 5);
}

TEST(BudgetTest, ExpiredDeadlineStillYieldsValidPartition) {
  // An (effectively) already-expired deadline: the wall clock is checked
  // at the very first probe, so the run degrades immediately — but still
  // returns a partition and the right reason.
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.budget.deadline_ms = 1e-6;
  const ReconcileResult result = Reconciler(options).Run(dataset);
  ExpectValidPartition(dataset, result);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kDeadline);
}

TEST(BudgetTest, TinyMemoryBudgetStopsTheBuild) {
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.budget.soft_max_memory_bytes = 1;
  const ReconcileResult result = Reconciler(options).Run(dataset);
  ExpectValidPartition(dataset, result);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kMemoryBudget);
  // The estimate is only reported once nodes exist, so most of the graph
  // is never built — but nothing crashes and the reason is precise.
}

TEST(BudgetTest, PreCancelledTokenDegradesImmediately) {
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.cancel = std::make_shared<CancellationToken>();
  options.cancel->RequestCancel();
  const ReconcileResult result = Reconciler(options).Run(dataset);
  ExpectValidPartition(dataset, result);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(result.stats.num_merges, 0);
}

TEST(BudgetTest, UnbudgetedRunReportsConvergence) {
  const Dataset dataset = SmallPim();
  const ReconcileResult result =
      Reconciler(ReconcilerOptions::DepGraph()).Run(dataset);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kConverged);
  EXPECT_GT(result.stats.solver_iterations, 0);
  EXPECT_GT(result.stats.num_budget_probes, 0);
}

// ---- Determinism and anytime monotonicity ----------------------------------

TEST(BudgetDeterminismTest, IterationAndMergeStopsAreThreadInvariant) {
  const Dataset dataset = SmallPim();
  for (const bool use_merge_budget : {false, true}) {
    for (const int64_t limit : {int64_t{1}, int64_t{7}, int64_t{60}}) {
      ReconcilerOptions options = ReconcilerOptions::DepGraph();
      if (use_merge_budget) {
        options.budget.max_merges = limit;
      } else {
        options.budget.max_solver_iterations = limit;
      }
      options.num_threads = 1;
      const ReconcileResult reference = Reconciler(options).Run(dataset);
      ExpectValidPartition(dataset, reference);
      for (const int threads : {2, 4, 8}) {
        SCOPED_TRACE(std::string(use_merge_budget ? "merges" : "iterations") +
                     "=" + std::to_string(limit) +
                     " threads=" + std::to_string(threads));
        options.num_threads = threads;
        const ReconcileResult result = Reconciler(options).Run(dataset);
        EXPECT_EQ(reference.cluster, result.cluster);
        EXPECT_EQ(reference.merged_pairs, result.merged_pairs);
        EXPECT_EQ(reference.stats.stop_reason, result.stats.stop_reason);
        EXPECT_EQ(reference.stats.solver_iterations,
                  result.stats.solver_iterations);
        EXPECT_EQ(reference.stats.num_merges, result.stats.num_merges);
      }
    }
  }
}

TEST(BudgetDeterminismTest, SolveCommitInjectionIsThreadInvariant) {
  // kSolveCommit probes are per queue pop — a serial sequence — so
  // injecting at the Nth one stops after the same commit prefix at any
  // thread count.
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.num_threads = 1;
  options.probe_hook = std::make_shared<FaultInjector>(
      ProbePoint::kSolveCommit, 25, StopReason::kIterationBudget);
  const ReconcileResult reference = Reconciler(options).Run(dataset);
  ExpectValidPartition(dataset, reference);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    options.probe_hook = std::make_shared<FaultInjector>(
        ProbePoint::kSolveCommit, 25, StopReason::kIterationBudget);
    const ReconcileResult result = Reconciler(options).Run(dataset);
    EXPECT_EQ(reference.cluster, result.cluster);
    EXPECT_EQ(reference.merged_pairs, result.merged_pairs);
    EXPECT_EQ(reference.stats.num_merges, result.stats.num_merges);
  }
}

TEST(BudgetDeterminismTest, ConvergedDrainProbesOncePerPop) {
  // The drain probes kSolveRound once at its start and kSolveCommit before
  // every queue pop; a converged drain ends on an empty queue, so its
  // commit probes equal its iterations exactly, at every thread count.
  const Dataset dataset = SmallPim();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    auto recorder = std::make_shared<ProbeRecorder>();
    options.probe_hook = recorder;
    const ReconcileResult result = Reconciler(options).Run(dataset);
    EXPECT_EQ(result.stats.stop_reason, StopReason::kConverged);
    EXPECT_GT(result.stats.solver_iterations, 0);
    EXPECT_EQ(recorder->seen(ProbePoint::kSolveRound), 1);
    EXPECT_EQ(recorder->seen(ProbePoint::kSolveCommit),
              result.stats.solver_iterations);
  }
}

TEST(BudgetDeterminismTest, IterationStopProbesOnceBeyondTheCap) {
  // The probe before the pop that would exceed the iteration budget is the
  // one that stops the drain: one commit probe more than iterations run.
  const Dataset dataset = SmallPim();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    options.budget.max_solver_iterations = 60;
    auto recorder = std::make_shared<ProbeRecorder>();
    options.probe_hook = recorder;
    const ReconcileResult result = Reconciler(options).Run(dataset);
    ExpectValidPartition(dataset, result);
    EXPECT_EQ(result.stats.stop_reason, StopReason::kIterationBudget);
    EXPECT_EQ(result.stats.solver_iterations, 60);
    EXPECT_EQ(recorder->seen(ProbePoint::kSolveRound), 1);
    EXPECT_EQ(recorder->seen(ProbePoint::kSolveCommit), 61);
  }
}

TEST(BudgetMonotonicityTest, LargerIterationBudgetNeverLosesMerges) {
  // Anytime property: the solve commits along one canonical sequence, so
  // the merge set at budget N is a subset of the merge set at budget M>N,
  // and a generous budget reproduces the unbudgeted result exactly.
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  // Constraint propagation between runs is not part of the solve prefix;
  // keep the comparison purely about the monotone fixed point.
  options.constraints = false;
  const ReconcileResult full = Reconciler(options).Run(dataset);
  ASSERT_EQ(full.stats.stop_reason, StopReason::kConverged);

  std::set<std::pair<RefId, RefId>> previous;
  for (const int64_t cap : {int64_t{5}, int64_t{25}, int64_t{125},
                            int64_t{100000}}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    options.budget.max_solver_iterations = cap;
    const ReconcileResult result = Reconciler(options).Run(dataset);
    ExpectValidPartition(dataset, result);
    std::set<std::pair<RefId, RefId>> merges(result.merged_pairs.begin(),
                                             result.merged_pairs.end());
    EXPECT_TRUE(std::includes(merges.begin(), merges.end(),
                              previous.begin(), previous.end()))
        << "a merge was lost when the budget grew";
    previous = std::move(merges);
  }
  // The generous cap converged: byte-identical to the unbudgeted run.
  options.budget.max_solver_iterations = 100000;
  const ReconcileResult generous = Reconciler(options).Run(dataset);
  EXPECT_EQ(generous.stats.stop_reason, StopReason::kConverged);
  EXPECT_EQ(generous.cluster, full.cluster);
  EXPECT_EQ(generous.merged_pairs, full.merged_pairs);
}

TEST(BudgetTest, ClosureOnlyConstraintPassMatchesFullPropagation) {
  // The batch path propagates negative evidence in closure-only mode
  // (skipping demotions that cannot touch a merged node). The resulting
  // partition must match full propagation exactly — converged or frozen.
  const Dataset dataset = SmallPim();
  for (const int64_t cap : {int64_t{0}, int64_t{10}, int64_t{200}}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    if (cap > 0) options.budget.max_solver_iterations = cap;
    BuiltGraph full_graph = BuildDependencyGraph(dataset, options);
    BuiltGraph lazy_graph = BuildDependencyGraph(dataset, options);
    const Reconciler reconciler(options);

    ReconcileResult full;
    {
      BudgetTracker tracker(options.budget);
      ReconcileStats& stats = full.stats;
      FixedPointSolver solver(dataset, full_graph, options, &stats,
                              &tracker);
      solver.EnqueueNodes(full_graph.initial_queue);
      solver.Run();
      solver.PropagateNegativeEvidence(false);
      full.cluster = solver.Closure(&full.merged_pairs);
    }
    const ReconcileResult lazy = reconciler.RunOnGraph(dataset, lazy_graph);
    EXPECT_EQ(full.cluster, lazy.cluster);
    EXPECT_EQ(full.merged_pairs, lazy.merged_pairs);
  }
}

// ---- Incremental reconciliation --------------------------------------------

TEST(BudgetIncrementalTest, EveryReasonInjectedDuringFlush) {
  const Dataset dataset = SmallPim();
  // kSolveRound is probed once per flush — fire at 0.
  const std::vector<std::pair<ProbePoint, int64_t>> kFlushPoints = {
      {ProbePoint::kBuild, 1},
      {ProbePoint::kSolveRound, 0},
      {ProbePoint::kSolveCommit, 1}};
  for (const auto& [point, fire_at] : kFlushPoints) {
    for (const StopReason reason : kInjectableReasons) {
      SCOPED_TRACE(Describe(point, reason, fire_at));
      ReconcilerOptions options = ReconcilerOptions::DepGraph();
      options.premerge_equal_emails = false;
      auto injector = std::make_shared<FaultInjector>(point, fire_at, reason);
      options.probe_hook = injector;
      IncrementalReconciler reconciler(dataset, options);
      const ReconcileResult result = reconciler.result();
      ExpectValidPartition(reconciler.dataset(), result);
      EXPECT_GE(injector->fired(), 1);
      EXPECT_EQ(result.stats.stop_reason, reason);
    }
  }
}

TEST(BudgetIncrementalTest, BudgetedFlushesResumeAndConverge) {
  // Each Flush() spends one budget allotment and freezes with its queue
  // intact; repeated flushes resume the same canonical drain, so the
  // final result equals the unbudgeted incremental run, byte-identically.
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  // Interleaving constraint propagation with frozen partial solves is a
  // different (coarser) schedule than one straight drain; disable it so
  // resume equality is exact.
  options.constraints = false;

  IncrementalReconciler unbudgeted(dataset, options);
  const ReconcileResult want = unbudgeted.result();
  ASSERT_EQ(want.stats.stop_reason, StopReason::kConverged);

  options.budget.max_solver_iterations = 40;
  IncrementalReconciler budgeted(dataset, options);
  int flushes = 0;
  for (; flushes < 10000; ++flushes) {
    budgeted.Flush();
    if (budgeted.result().stats.stop_reason == StopReason::kConverged) break;
  }
  const ReconcileResult got = budgeted.result();
  EXPECT_EQ(got.stats.stop_reason, StopReason::kConverged);
  EXPECT_GT(flushes, 0) << "budget never froze a flush";
  EXPECT_EQ(got.cluster, want.cluster);
  ExpectValidPartition(budgeted.dataset(), got);
}

TEST(BudgetIncrementalTest, DegradedFlushReportsReasonAndStaysValid) {
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  options.budget.max_merges = 3;
  IncrementalReconciler reconciler(dataset, options);
  reconciler.Flush();
  const ReconcileResult result = reconciler.result();
  ExpectValidPartition(reconciler.dataset(), result);
  // Each flush re-arms the merge budget; whichever epoch result() landed
  // in, the run is either mid-degradation or eventually converged.
  EXPECT_TRUE(result.stats.stop_reason == StopReason::kMergeBudget ||
              result.stats.stop_reason == StopReason::kConverged);

  // Later batches still reconcile (with their own fresh allotments).
  const int person = dataset.schema().RequireClass("Person");
  const int name = dataset.schema().RequireAttribute(person, "name");
  Reference ref(person, 4);
  ref.AddAtomicValue(name, "Zebulon Quixote");
  reconciler.AddReference(std::move(ref));
  const ReconcileResult after = reconciler.result();
  ExpectValidPartition(reconciler.dataset(), after);
}

}  // namespace
}  // namespace recon
