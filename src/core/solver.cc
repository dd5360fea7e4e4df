#include "core/solver.h"

#include <algorithm>

#include "sim/class_sim.h"
#include "util/logging.h"
#include "util/timer.h"

namespace recon {

FixedPointSolver::FixedPointSolver(const Dataset& dataset, BuiltGraph& built,
                                   const ReconcilerOptions& options,
                                   ReconcileStats* stats,
                                   BudgetTracker* budget)
    : dataset_(dataset),
      built_(built),
      graph_(*built.graph),
      options_(options),
      stats_(stats),
      own_budget_(budget == nullptr
                      ? std::make_unique<BudgetTracker>(Budget{})
                      : nullptr),
      budget_(budget != nullptr ? budget : own_budget_.get()),
      refs_(dataset.num_references()) {}

void FixedPointSolver::EnqueueNodes(const std::vector<NodeId>& nodes) {
  for (const NodeId id : nodes) {
    Node& node = graph_.mutable_node(id);
    if (node.dead || node.queued || node.state == NodeState::kNonMerge) {
      continue;
    }
    if (node.state == NodeState::kInactive) node.state = NodeState::kActive;
    node.queued = true;
    queue_.push_back(id);
  }
}

bool FixedPointSolver::StopBeforePop(int64_t* iterations,
                                     int64_t iteration_cap) {
  if (budget_->Probe(ProbePoint::kSolveCommit)) return true;
  if (*iterations >= iteration_cap) {
    // The configured budget — or, unconfigured, the convergence safety
    // cap — is spent. Either way this is the degraded-stop path, never an
    // abort: constraints and the closure still run on the frozen state.
    if (!budget_->budget().HasIterationLimit()) {
      RECON_LOG(Warning) << "Fixed point did not converge within the "
                         << iteration_cap
                         << "-iteration safety cap; freezing the solve";
    }
    budget_->ForceStop(StopReason::kIterationBudget);
    return true;
  }
  ++*iterations;
  return false;
}

void FixedPointSolver::Run() {
  const int64_t iteration_cap =
      budget_->budget().HasIterationLimit()
          ? budget_->budget().max_solver_iterations
          : 500LL * std::max(1, graph_.num_nodes()) + 1000;
  merge_cap_ = budget_->budget().HasMergeLimit()
                   ? budget_->budget().max_merges
                   : 0;
  merges_this_run_ = 0;
  int64_t iterations = 0;
  // The whole drain is one "round" for probing purposes; the per-pop
  // kSolveCommit probes inside the loop carry the budget checks.
  budget_->Probe(ProbePoint::kSolveRound);
  Timer timer;
  while (!queue_.empty()) {
    if (StopBeforePop(&iterations, iteration_cap)) break;
    Step(queue_.pop_front());
  }
  stats_->solve_commit_seconds += timer.ElapsedSeconds();
  stats_->solver_iterations += iterations;
  stats_->stop_reason = budget_->stop_reason();
}

void FixedPointSolver::Step(NodeId id) {
  Node& node = graph_.mutable_node(id);
  node.queued = false;
  if (node.dead || node.state == NodeState::kNonMerge) return;
  if (node.state == NodeState::kActive) node.state = NodeState::kInactive;
  const double computed =
      options_.evidence_cache
          ? CachedSimilarity(id, node)
          : ComputeSimilarity(id, &stats_->num_inedge_scans);
  ++stats_->num_recomputations;
  const double old_sim = node.sim;
  // Similarities are monotone non-decreasing (§3.2 termination).
  if (computed > node.sim) node.sim = static_cast<float>(computed);
  const bool increased = node.sim > old_sim + options_.params.epsilon;

  // Any raise — even one below epsilon, which re-activates nobody — must
  // reach dependents' caches: a full rescan reads current sims, so the
  // cache has to as well.
  if (options_.evidence_cache && node.sim > old_sim) PushSimDelta(id, node);

  if (increased && options_.propagation) {
    for (const Edge& e : graph_.out_edges(id)) {
      if (e.kind == DependencyKind::kRealValued) Enqueue(e.node, false);
    }
  }

  const double threshold = node.IsRefPair()
                               ? options_.params.merge_threshold
                               : options_.params.value_merge_threshold;
  if (node.sim >= threshold && node.state != NodeState::kMerged) {
    node.state = NodeState::kMerged;
    ++stats_->num_merges;
    ++merges_this_run_;
    if (merge_cap_ > 0 && merges_this_run_ >= merge_cap_) {
      // The budget is spent, but this commit — deltas, propagation
      // pushes, enrichment — still completes: it is one deterministic
      // unit. The drain freezes before the next pop.
      budget_->ForceStop(StopReason::kMergeBudget);
    }
    if (options_.evidence_cache) PushMergeDelta(id);
    if (options_.propagation) {
      // Strong-boolean dependents jump the queue (§3.2 heuristics).
      for (const Edge& e : graph_.out_edges(id)) {
        if (e.kind == DependencyKind::kStrongBoolean) {
          Enqueue(e.node, options_.strong_neighbors_jump_queue);
        }
      }
      for (const Edge& e : graph_.out_edges(id)) {
        if (e.kind == DependencyKind::kWeakBoolean) Enqueue(e.node, false);
      }
    }
    if (node.IsRefPair() && options_.enrichment) {
      EnrichReferences(id);
    }
  }
}

void FixedPointSolver::EnrichReferences(NodeId id) {
  // Capture the pair first; MergeReferences does not add nodes but the
  // node reference would alias mutable graph state.
  const RefId a = static_cast<RefId>(graph_.node(id).a);
  const RefId b = static_cast<RefId>(graph_.node(id).b);
  const int keep = refs_.Union(a, b);
  const RefId gone = (keep == a) ? b : a;
  MergeRefsResult result = graph_.MergeReferences(keep, gone);
  stats_->num_folds += static_cast<int64_t>(result.folded.size());
  for (const NodeId m : result.gained_inputs) Enqueue(m, false);
}

void FixedPointSolver::Enqueue(NodeId id, bool front) {
  Node& node = graph_.mutable_node(id);
  if (node.dead || node.queued || node.state == NodeState::kNonMerge) {
    return;
  }
  if (node.sim >= 1.0f) return;  // Cannot increase further (§3.2).
  node.queued = true;
  if (node.state == NodeState::kInactive) node.state = NodeState::kActive;
  if (front) {
    queue_.push_front(id);
  } else {
    queue_.push_back(id);
  }
}

double FixedPointSolver::ComputeSimilarity(NodeId id,
                                           int64_t* scans) const {
  const Node& node = graph_.node(id);
  if (node.forced_merge) return 1.0;  // User-confirmed match.
  if (!node.IsRefPair()) {
    // Value pairs: initial string similarity, lifted to 1 when a merged
    // strong-boolean neighbor certifies the values denote one entity
    // (Fig. 2's n6 after the venues merge).
    double sim = node.sim;
    for (const Edge& e : graph_.in_edges(id)) {
      ++*scans;
      if (e.kind == DependencyKind::kStrongBoolean &&
          graph_.node(e.node).state == NodeState::kMerged) {
        sim = 1.0;
        break;
      }
    }
    return sim;
  }

  EvidenceSummary evidence;
  for (const StaticReal& entry : graph_.static_real(id)) {
    evidence.Offer(entry.type, entry.sim);
  }
  evidence.strong_merged = node.static_strong;
  evidence.weak_merged = node.static_weak;
  *scans += graph_.in_degree(id);
  for (const Edge& e : graph_.in_edges(id)) {
    const Node& src = graph_.node(e.node);
    if (src.dead) continue;
    switch (e.kind) {
      case DependencyKind::kRealValued:
        if (src.state != NodeState::kNonMerge) {
          evidence.Offer(e.evidence, src.sim);
        }
        break;
      case DependencyKind::kStrongBoolean:
        if (src.state == NodeState::kMerged) ++evidence.strong_merged;
        break;
      case DependencyKind::kWeakBoolean:
        if (src.state == NodeState::kMerged) ++evidence.weak_merged;
        break;
    }
  }
  const ClassSimilarity* sim_fn = built_.class_sims[node.class_id].get();
  RECON_CHECK(sim_fn != nullptr)
      << "No similarity function for class " << node.class_id;
  return sim_fn->Compute(evidence);
}

double FixedPointSolver::CachedSimilarity(NodeId id, Node& node) {
  if (node.forced_merge) return 1.0;  // User-confirmed match.
  if (!node.cache.valid) {
    BuildCacheSummary(id, &node.cache, &stats_->num_inedge_scans);
    ++stats_->num_cache_rebuilds;
  } else {
    stats_->num_inedge_scans_avoided += graph_.in_degree(id);
  }
  return ScoreFromCache(node, node.cache);
}

double FixedPointSolver::ScoreFromCache(const Node& node,
                                        const EvidenceCache& cache) const {
  if (!node.IsRefPair()) {
    return cache.strong_merged > 0 ? 1.0 : node.sim;
  }
  EvidenceSummary evidence;
  for (int e = 0; e < kNumEvidence; ++e) {
    evidence.best[e] = cache.best[e];
  }
  evidence.strong_merged = cache.strong_merged;
  evidence.weak_merged = cache.weak_merged;
  const ClassSimilarity* sim_fn = built_.class_sims[node.class_id].get();
  RECON_CHECK(sim_fn != nullptr)
      << "No similarity function for class " << node.class_id;
  return sim_fn->Compute(evidence);
}

void FixedPointSolver::BuildCacheSummary(NodeId id, EvidenceCache* cache,
                                         int64_t* scans) const {
  const Node& node = graph_.node(id);
  cache->Reset();
  if (!node.IsRefPair()) {
    // Value pairs only care whether *any* strong-boolean neighbor merged;
    // stop at the first, like the uncached path does.
    for (const Edge& e : graph_.in_edges(id)) {
      ++*scans;
      if (e.kind == DependencyKind::kStrongBoolean &&
          graph_.node(e.node).state == NodeState::kMerged) {
        cache->strong_merged = 1;
        break;
      }
    }
    cache->valid = true;
    return;
  }
  for (const StaticReal& entry : graph_.static_real(id)) {
    cache->Offer(entry.type, entry.sim);
  }
  cache->strong_merged = node.static_strong;
  cache->weak_merged = node.static_weak;
  *scans += graph_.in_degree(id);
  for (const Edge& e : graph_.in_edges(id)) {
    const Node& src = graph_.node(e.node);
    if (src.dead) continue;
    switch (e.kind) {
      case DependencyKind::kRealValued:
        if (src.state != NodeState::kNonMerge) {
          cache->Offer(e.evidence, src.sim);
        }
        break;
      case DependencyKind::kStrongBoolean:
        if (src.state == NodeState::kMerged) ++cache->strong_merged;
        break;
      case DependencyKind::kWeakBoolean:
        if (src.state == NodeState::kMerged) ++cache->weak_merged;
        break;
    }
  }
  cache->valid = true;
}

void FixedPointSolver::PushSimDelta(NodeId id, const Node& node) {
  for (const Edge& e : graph_.out_edges(id)) {
    if (e.kind != DependencyKind::kRealValued) continue;
    EvidenceCache& cache = graph_.mutable_node(e.node).cache;
    if (!cache.valid) continue;  // The eventual rebuild reads node.sim.
    cache.Offer(e.evidence, node.sim);
    ++stats_->num_delta_pushes;
  }
}

void FixedPointSolver::PushMergeDelta(NodeId id) {
  for (const Edge& e : graph_.out_edges(id)) {
    if (e.kind == DependencyKind::kRealValued) continue;
    EvidenceCache& cache = graph_.mutable_node(e.node).cache;
    if (!cache.valid) continue;
    if (e.kind == DependencyKind::kStrongBoolean) {
      ++cache.strong_merged;
    } else {
      ++cache.weak_merged;
    }
    ++stats_->num_delta_pushes;
  }
}

void FixedPointSolver::PropagateNegativeEvidence(bool closure_only) {
  std::vector<NodeId> non_merge_nodes;
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    const Node& node = graph_.node(id);
    if (!node.dead && node.IsRefPair() &&
        node.state == NodeState::kNonMerge) {
      non_merge_nodes.push_back(id);
    }
  }
  // A demotion changes the closure only when the demoted node is merged.
  // Both demotion candidates for source (r1, r2) are adjacent to r1 or
  // r2, so when neither reference touches any merged pair the source can
  // be skipped outright in closure-only mode.
  std::vector<char> touches_merge;
  if (closure_only) {
    touches_merge.assign(dataset_.num_references(), 0);
    for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
      const Node& node = graph_.node(id);
      if (!node.dead && node.IsRefPair() &&
          node.state == NodeState::kMerged) {
        touches_merge[node.a] = 1;
        touches_merge[node.b] = 1;
      }
    }
  }
  for (const NodeId lid : non_merge_nodes) {
    const Node& l = graph_.node(lid);
    const RefId r1 = static_cast<RefId>(l.a);
    const RefId r2 = static_cast<RefId>(l.b);
    if (closure_only && !touches_merge[r1] && !touches_merge[r2]) continue;
    // Copy: we only flip states, but keep iteration order stable.
    const auto around_span = graph_.NodesOfRef(r1);
    const std::vector<NodeId> around(around_span.begin(), around_span.end());
    for (const NodeId mid : around) {
      if (mid == lid) continue;
      const Node& m = graph_.node(mid);
      if (m.dead || !m.IsRefPair()) continue;
      const RefId r3 = static_cast<RefId>(m.Other(r1));
      if (r3 == r2) continue;
      const NodeId nid = graph_.FindRefPair(r2, r3);
      if (nid == kInvalidNode) continue;
      const Node& n = graph_.node(nid);
      if (n.dead) continue;
      // Demote the weaker side so r1 and r2 cannot be glued through r3
      // (deterministic tie-break on node id). SetNodeState invalidates
      // dependent caches: a non-merge source no longer contributes
      // real-valued evidence, which matters if the solver is re-entered.
      const NodeId lower =
          (m.sim > n.sim || (m.sim == n.sim && mid < nid)) ? nid : mid;
      graph_.SetNodeState(lower, NodeState::kNonMerge);
    }
  }
}

std::vector<int> FixedPointSolver::Closure(
    std::vector<std::pair<RefId, RefId>>* merged_pairs) const {
  UnionFind closure(dataset_.num_references());
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    const Node& node = graph_.node(id);
    if (node.dead || !node.IsRefPair()) continue;
    if (node.state == NodeState::kMerged) {
      closure.Union(node.a, node.b);
      if (merged_pairs != nullptr) {
        merged_pairs->emplace_back(static_cast<RefId>(node.a),
                                   static_cast<RefId>(node.b));
      }
    }
  }
  // Canonicalize every cluster to its smallest member. Raw union-find
  // representatives depend on union order (union by size), so equivalent
  // merge sequences could label the same partition differently; the
  // minimum member is a stable, order-independent id that byte-identity
  // contracts (src/shard/, incremental flushes) can compare directly.
  std::vector<int> cluster(dataset_.num_references());
  std::vector<int> canonical(dataset_.num_references(), -1);
  for (int i = 0; i < dataset_.num_references(); ++i) {
    const int root = closure.Find(i);
    if (canonical[root] < 0) canonical[root] = i;  // Ascending i: minimum.
    cluster[i] = canonical[root];
  }
  return cluster;
}

}  // namespace recon
