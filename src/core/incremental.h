// Incremental reference reconciliation — the paper's first future-work
// item (§7): "an efficient incremental reconciliation approach, applied
// when new references are inserted to an already-reconciled dataset."
//
// The incremental reconciler owns a growing dataset and keeps the
// dependency graph, the blocking index, and the fixed-point solver alive
// across batches. Adding a batch of references costs work proportional to
// the candidate pairs the batch introduces, not to the dataset size;
// decisions made for earlier batches stand (merges are monotone, exactly
// as in the batch algorithm).

#ifndef RECON_CORE_INCREMENTAL_H_
#define RECON_CORE_INCREMENTAL_H_

#include <memory>
#include <vector>

#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/options.h"
#include "core/reconciler.h"
#include "core/solver.h"
#include "model/dataset.h"

namespace recon {

/// Maintains a reconciled, growing dataset.
///
/// Two batch-only options are not applied incrementally: key-attribute
/// pre-merging (the graph must keep original reference identities so later
/// batches can link to them) and user feedback (pairs would refer to
/// references that may not exist yet at construction time). Use the batch
/// Reconciler when either matters.
class IncrementalReconciler {
 public:
  /// Starts from `initial` (possibly empty of references) and stages its
  /// references without reconciling them: the first Flush(), clusters()
  /// or result() reconciles them, through the same path as later batches.
  IncrementalReconciler(Dataset initial, ReconcilerOptions options);

  IncrementalReconciler(const IncrementalReconciler&) = delete;
  IncrementalReconciler& operator=(const IncrementalReconciler&) = delete;
  ~IncrementalReconciler();

  /// Appends a reference (associations may point at any existing
  /// reference). Returns its id. References are staged; call Flush() — or
  /// result() / clusters(), which flush implicitly — to reconcile.
  RefId AddReference(Reference ref, int gold_entity = -1,
                     Provenance provenance = Provenance::kOther);

  /// Reconciles all staged references against the current state. Each
  /// Flush() is one budget epoch (options().budget applies per flush, not
  /// cumulatively); a budget stop freezes the solve with its queue intact
  /// and the next Flush() — explicit or implicit via result()/clusters()
  /// — resumes it with a fresh allotment. result().stats.stop_reason
  /// reports how the latest flush ended.
  void Flush();

  /// Current partition (flushes first).
  const std::vector<int>& clusters();

  /// Current result snapshot: clusters + cumulative stats (flushes first).
  ReconcileResult result();

  const Dataset& dataset() const { return dataset_; }
  const ReconcilerOptions& options() const { return options_; }

  // ---- Const query-side accessors (no implicit flush) ---------------------
  // The reconciliation service reads state between flushes without
  // triggering one; these never mutate and are safe while no Flush() runs.

  /// First reference id not yet reconciled.
  RefId flushed_until() const { return flushed_until_; }
  /// References added but not yet flushed.
  int num_staged() const { return dataset_.num_references() - flushed_until_; }
  /// Cumulative stats of the flushes so far.
  const ReconcileStats& stats() const { return stats_; }
  /// The cached partition, or nullptr when it is stale (staged references
  /// or an invalidated closure). Unlike clusters(), never flushes.
  const std::vector<int>* clusters_if_current() const {
    return closure_valid_ && num_staged() == 0 ? &clusters_ : nullptr;
  }
  /// The graph, value pool and per-reference ids built so far.
  const BuiltGraph& built() const { return built_; }

 private:
  Dataset dataset_;
  ReconcilerOptions options_;
  ReconcileStats stats_;
  BuiltGraph built_;
  std::unique_ptr<CandidateIndex> index_;
  std::unique_ptr<FixedPointSolver> solver_;
  /// First reference id not yet reconciled.
  RefId flushed_until_ = 0;
  /// Cached closure; invalidated by Flush().
  std::vector<int> clusters_;
  std::vector<std::pair<RefId, RefId>> merged_pairs_;
  bool closure_valid_ = false;
};

}  // namespace recon

#endif  // RECON_CORE_INCREMENTAL_H_
