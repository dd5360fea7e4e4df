// The dependency graph (paper §3.1): unique similarity nodes per element
// pair, typed directed dependency edges, and the local node-folding
// operation that implements reference enrichment (§3.3).
//
// Storage is a flat CSR layout (DESIGN.md §13): one dense node array plus
// shared range pools for in-edges, out-edges, per-reference node lists,
// and static evidence, and open-addressed flat pair indexes. Compact()
// packs the pools tight after bulk construction; incremental extension
// appends into slack / relocates and re-compacts on flush.

#ifndef RECON_GRAPH_DEP_GRAPH_H_
#define RECON_GRAPH_DEP_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/node.h"
#include "graph/pair_index.h"
#include "graph/range_pool.h"
#include "graph/value_pool.h"
#include "model/reference.h"

namespace recon {

/// Result of folding the pair nodes of a merged reference (enrichment).
struct MergeRefsResult {
  /// Nodes that gained new incoming dependencies and should be re-queued.
  std::vector<NodeId> gained_inputs;
  /// Nodes removed from the graph (their pairs now covered by survivors).
  std::vector<NodeId> folded;
};

/// Heap footprint of the graph's CSR storage (ReconcileStats::graph_*).
struct GraphBytes {
  size_t nodes = 0;    ///< Node array + pooled static evidence.
  size_t edges = 0;    ///< In- and out-edge pools (buffers + range tables).
  size_t indices = 0;  ///< Pair indexes + per-reference node lists.
  size_t total() const { return nodes + edges + indices; }
};

/// Similarity dependency graph over references and attribute values.
///
/// The graph owns node/edge storage and the pair -> node indexes. It is
/// policy-free: which nodes and edges exist, and how similarities are
/// computed, is decided by the graph builder and the reconciler.
///
/// Span accessors (in_edges/out_edges/static_real/NodesOfRef) view the
/// shared pools directly and are invalidated by any mutation of the same
/// pool (AddEdge, folds, Compact) — copy first when mutating while
/// iterating.
class DependencyGraph {
 public:
  /// `num_references` fixes the RefId universe (for per-reference node
  /// lists); grow it later with AddReferences.
  explicit DependencyGraph(int num_references);

  /// Extends the RefId universe by `count` references (incremental
  /// reconciliation adds references to an existing graph).
  void AddReferences(int count) {
    RECON_CHECK_GE(count, 0);
    ref_pool_.EnsureSlots(ref_pool_.num_slots() + count);
  }

  DependencyGraph(const DependencyGraph&) = delete;
  DependencyGraph& operator=(const DependencyGraph&) = delete;

  // ---- Construction -----------------------------------------------------

  /// Adds the node for reference pair (r1, r2); returns the existing node
  /// if already present. References must differ.
  NodeId AddRefPairNode(int class_id, RefId r1, RefId r2);

  /// Adds the node for value pair (v1, v2) with an initial similarity and
  /// state; returns the existing node if present (initial values are then
  /// left untouched). Values must differ.
  NodeId AddValuePairNode(ValueId v1, ValueId v2, double sim,
                          NodeState state);

  /// Adds a directed dependency edge `from -> to` (to's similarity depends
  /// on from's). Duplicate (from, to, kind, evidence) edges are ignored.
  void AddEdge(NodeId from, NodeId to, DependencyKind kind, int evidence);

  /// Records `sim` as static evidence for (`id`, `evidence`), keeping the
  /// max, and absorbs it into `id`'s evidence cache.
  void AddStaticReal(NodeId id, int evidence, double sim);

  /// Sizes the node array, pools, and pair indexes for a build expected to
  /// stage about `expected_pairs` reference pairs (satellite: cuts rehash
  /// and relocation churn during SeedPairs).
  void ReserveBuild(size_t expected_pairs);

  /// Packs every pool into tight CSR form (ranges back to back, no slack,
  /// no garbage from folds/relocations). Call after bulk construction and
  /// after incremental flushes; spans are invalidated.
  void Compact();

  // ---- Lookup -----------------------------------------------------------

  NodeId FindRefPair(RefId r1, RefId r2) const;
  NodeId FindValuePair(ValueId v1, ValueId v2) const;

  const Node& node(NodeId id) const { return nodes_[id]; }
  Node& mutable_node(NodeId id) { return nodes_[id]; }

  std::span<const Edge> in_edges(NodeId id) const { return in_pool_.span(id); }
  std::span<const Edge> out_edges(NodeId id) const {
    return out_pool_.span(id);
  }
  int in_degree(NodeId id) const { return static_cast<int>(in_pool_.count(id)); }
  std::span<const StaticReal> static_real(NodeId id) const {
    return static_pool_.span(id);
  }

  /// Sets `id`'s processing state, invalidating dependents' evidence
  /// caches when the transition changes how `id` contributes evidence
  /// (into or out of kNonMerge excludes / re-admits its similarity; a
  /// merge flips boolean counts). Callers outside the solver's Step()
  /// must use this instead of writing `state` directly: Step() keeps the
  /// caches consistent itself via delta pushes.
  void SetNodeState(NodeId id, NodeState state);

  /// Clears the cached evidence summaries of every node whose similarity
  /// depends on `id` (its out-edge targets).
  void InvalidateDependentCaches(NodeId id);

  /// Live reference-pair nodes containing reference `r`.
  std::span<const NodeId> NodesOfRef(RefId r) const {
    return ref_pool_.span(static_cast<size_t>(r));
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Nodes not yet folded away (Table 6 reports this).
  int num_live_nodes() const { return num_live_nodes_; }
  int num_edges() const { return num_edges_; }

  /// Current heap footprint of the CSR storage, by pool family.
  GraphBytes bytes() const;

  // ---- Enrichment (§3.3) ------------------------------------------------

  /// Reference enrichment after merging `gone` into `keep`: every pair node
  /// (gone, x) is folded into (keep, x) — neighbors reconnected, the node
  /// removed — or renamed to (keep, x) if no such node exists. The node for
  /// the pair (keep, gone) itself is left in place (it records the merge).
  ///
  /// If a folded-away node was in state kNonMerge, the surviving node
  /// becomes kNonMerge (a cluster cannot merge with a reference that is
  /// constrained apart from one of its members).
  MergeRefsResult MergeReferences(RefId keep, RefId gone);

 private:
  static uint64_t PairKey(int32_t a, int32_t b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }

  /// Appends a node and opens its pool slots.
  NodeId PushNode(Node&& node);

  /// Moves all of `from`'s edges onto `into` (dropping would-be self
  /// loops), marks `from` dead. Returns true if `into` gained at least one
  /// new incoming edge.
  bool FoldInto(NodeId from, NodeId into);

  /// Removes the (source -> target) entry from source's out list and
  /// target's in list.
  void DetachEdge(NodeId source, NodeId target, DependencyKind kind,
                  int16_t evidence);

  void RemoveFromRefLists(NodeId id);

  std::vector<Node> nodes_;
  RangePool<Edge> in_pool_;
  RangePool<Edge> out_pool_;
  RangePool<StaticReal> static_pool_;
  /// Slot per RefId: the live pair nodes containing that reference.
  RangePool<NodeId> ref_pool_;
  FlatPairIndex ref_pair_index_;
  FlatPairIndex value_pair_index_;
  /// Fold scratch (FoldInto must copy edge spans before pool mutation).
  std::vector<Edge> scratch_edges_;
  std::vector<NodeId> scratch_refs_;
  std::vector<StaticReal> scratch_statics_;
  int num_live_nodes_ = 0;
  int num_edges_ = 0;
};

}  // namespace recon

#endif  // RECON_GRAPH_DEP_GRAPH_H_
