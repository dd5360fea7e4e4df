// The queue-driven fixed-point solver at the heart of Figure 4. Exposed
// (rather than buried in reconciler.cc) so that incremental reconciliation
// can keep one solver alive across batches of new references.

#ifndef RECON_CORE_SOLVER_H_
#define RECON_CORE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/graph_builder.h"
#include "core/options.h"
#include "core/reconciler_stats.h"
#include "model/dataset.h"
#include "util/budget.h"
#include "util/ring_buffer.h"
#include "util/union_find.h"

namespace recon {

/// Runs the reconciliation fixed point over a built dependency graph.
///
/// The solver owns the active-node queue and the reference union-find that
/// canonicalizes merged references for enrichment. It may be re-entered:
/// enqueue more nodes (e.g. for newly added references) and call Run()
/// again; merged state, non-merge constraints, and cluster canonicalization
/// carry over.
class FixedPointSolver {
 public:
  /// `dataset`, `built` and `stats` must outlive the solver. `budget`
  /// (optional, must outlive the solver while set) carries the run's
  /// execution budget; without one the solver still degrades gracefully
  /// at its convergence safety cap instead of aborting.
  FixedPointSolver(const Dataset& dataset, BuiltGraph& built,
                   const ReconcilerOptions& options, ReconcileStats* stats,
                   BudgetTracker* budget = nullptr);

  FixedPointSolver(const FixedPointSolver&) = delete;
  FixedPointSolver& operator=(const FixedPointSolver&) = delete;

  /// Marks `nodes` active and appends them to the queue (dead, non-merge,
  /// and already-queued nodes are skipped).
  void EnqueueNodes(const std::vector<NodeId>& nodes);

  /// Drains the queue to the fixed point (§3.2): one node per pop, in
  /// queue order (FIFO plus strong-boolean queue jumps), exactly as in
  /// Figure 4. The drain is serial at every thread count (DESIGN.md §9).
  ///
  /// Budget exhaustion or cancellation (DESIGN.md §10) never aborts: the
  /// current pop finishes (merge, enrichment, and propagation pushes
  /// included), then the drain freezes — no further pops — leaving the
  /// pending queue intact, so a later Run() with a fresh budget resumes
  /// exactly where this one stopped. Iteration and merge budgets stop
  /// after byte-identical prefixes of the pop sequence, so their results
  /// are identical at every thread count.
  void Run();

  /// Replaces the budget tracker for the next Run() (nullptr restores the
  /// solver's own unlimited tracker). The incremental reconciler installs
  /// a fresh tracker per flush.
  void set_budget(BudgetTracker* budget) {
    budget_ = budget != nullptr ? budget : own_budget_.get();
  }

  /// True when a previous Run() froze with queued work remaining (a
  /// degraded stop); the next Run() continues the drain.
  bool HasPendingWork() const { return !queue_.empty(); }

  /// §3.4 step 3: post-fixpoint propagation of negative evidence. Called
  /// by the reconciler after Run() when constraints are enabled.
  ///
  /// With `closure_only` the pass skips source pairs whose demotions
  /// cannot touch a merged node and therefore cannot change this run's
  /// closure — the partition is identical, and a degraded (early-frozen)
  /// solve pays for constraint enforcement in proportion to the merges it
  /// actually made. Only valid when the solver is discarded afterwards
  /// (the batch path): the skipped kNonMerge demotions persist as
  /// negative evidence that later Run()s consult, so the incremental
  /// reconciler must propagate in full.
  void PropagateNegativeEvidence(bool closure_only = false);

  /// Transitive closure over merged pairs. Each reference maps to its
  /// cluster's smallest member id (canonical, independent of merge order).
  /// Also reports the directly merged pairs when `merged_pairs` is
  /// non-null.
  std::vector<int> Closure(
      std::vector<std::pair<RefId, RefId>>* merged_pairs) const;

  /// Grows the reference universe (call after Dataset/graph grew).
  void GrowReferences(int count) { refs_.Grow(count); }

  /// The union-find over references maintained by enrichment.
  UnionFind& refs() { return refs_; }

 private:
  /// Budget gate before every queue pop: probes the tracker and spends one
  /// iteration. True = freeze the drain now (the pending pop stays queued).
  bool StopBeforePop(int64_t* iterations, int64_t iteration_cap);
  /// One pop: recompute the node's similarity, then apply the state
  /// transition, merge, enrichment, delta pushes and dependent
  /// re-activation.
  void Step(NodeId id);
  void EnrichReferences(NodeId id);
  void Enqueue(NodeId id, bool front);
  /// The uncached full recomputation; in-edge reads land in `*scans`.
  double ComputeSimilarity(NodeId id, int64_t* scans) const;

  // ---- Delta-propagated evidence caching (options_.evidence_cache) ----
  // Each node's EvidenceCache is born valid (empty node, empty summary)
  // and kept equal to what a full in-edge rescan would produce: the graph
  // layer absorbs additive mutations (new edges, statics), Step() pushes a
  // node's raised sim along its real-valued out-edges and bumps merged-
  // neighbor counts along boolean out-edges at the merge transition, and
  // subtractive surgery (non-merge demotion, lost fold inputs) invalidates
  // the affected caches so they rescan exactly once on their next
  // recomputation. See DESIGN.md, "Delta-propagated evidence caching".

  /// Like ComputeSimilarity but served from the node's cache, rebuilding
  /// it first when invalid. Returns the identical value.
  double CachedSimilarity(NodeId id, Node& node);
  /// Full in-edge rescan into `*cache` (the one-time fallback). Leaves it
  /// valid.
  void BuildCacheSummary(NodeId id, EvidenceCache* cache,
                         int64_t* scans) const;
  /// The similarity a given (valid) evidence summary yields for `node`.
  double ScoreFromCache(const Node& node, const EvidenceCache& cache) const;
  /// Offers `node.sim` to every real-valued dependent's valid cache.
  void PushSimDelta(NodeId id, const Node& node);
  /// Bumps merged-neighbor counts in boolean dependents' valid caches.
  /// Called exactly once per node, at its kMerged transition.
  void PushMergeDelta(NodeId id);

  const Dataset& dataset_;
  BuiltGraph& built_;
  DependencyGraph& graph_;
  const ReconcilerOptions& options_;
  ReconcileStats* stats_;
  /// Fallback tracker (unlimited budget) for callers that pass none, so
  /// the drain has exactly one budget code path.
  std::unique_ptr<BudgetTracker> own_budget_;
  BudgetTracker* budget_;
  /// Merge budget for the current Run() (0 = unlimited) and the merges
  /// committed so far in it.
  int64_t merge_cap_ = 0;
  int64_t merges_this_run_ = 0;
  UnionFind refs_;
  RingDeque<NodeId> queue_;
};

}  // namespace recon

#endif  // RECON_CORE_SOLVER_H_
