// Dependency-graph node and edge types (paper Definition 3.1 and §3.1's
// edge refinement into real-valued / strong-boolean / weak-boolean
// dependencies).

#ifndef RECON_GRAPH_NODE_H_
#define RECON_GRAPH_NODE_H_

#include <array>
#include <cstdint>

#include "sim/evidence.h"

namespace recon {

/// Dense id of a node within a DependencyGraph.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// What a node's element pair is.
enum class NodeKind : uint8_t {
  kReferencePair,  ///< Similarity of two references of the same class.
  kValuePair,      ///< Similarity of two (comparable) attribute values.
};

/// Processing state of a node (§3.2 plus the §3.4 non-merge state).
enum class NodeState : uint8_t {
  kInactive,  ///< Similarity up to date; not queued.
  kActive,    ///< Queued for (re)computation.
  kMerged,    ///< Similarity reached the merge threshold.
  kNonMerge,  ///< Constraint: the two elements are guaranteed distinct.
};

/// How a neighbor's similarity influences a node (§3.1, second refinement).
enum class DependencyKind : uint8_t {
  kRealValued,    ///< The actual similarity value matters.
  kStrongBoolean, ///< Neighbor merge (almost) implies this pair merges.
  kWeakBoolean,   ///< Neighbor merge increases this pair's similarity.
};

/// A directed dependency. In a node's `out` list, `node` is the target
/// whose similarity depends on this node; in the `in` list, `node` is the
/// source this node's similarity depends on.
struct Edge {
  NodeId node;
  DependencyKind kind;
  /// Evidence type (see sim/evidence.h): tags which term of the per-class
  /// similarity function this dependency feeds.
  int16_t evidence;
};

/// Delta-maintained summary of a node's incoming evidence, kept by the
/// fixed-point solver (ReconcilerOptions::evidence_cache). Mirrors
/// sim/class_sim.h's EvidenceSummary but stores floats: every contribution
/// is a float (neighbor sims, static evidence), so float channel maxima
/// lose nothing against the rescan's doubles.
///
/// Invariant while `valid`: the summary equals what a full in-edge rescan
/// would build at this instant. A fresh node has no in-edges and no static
/// evidence, so the empty summary is exact and caches are born valid.
/// Monotone mutations maintain the summary in place — AddEdge pushes the
/// new source's current contribution, AddStaticReal offers the static
/// value, and the solver pushes sim raises and merge transitions along
/// out-edges. Only non-monotone surgery (node folding, non-merge demotion,
/// which can *remove* contributions) clears `valid`, making the next
/// recomputation rescan once.
struct EvidenceCache {
  EvidenceCache() { best.fill(-1.0f); }

  /// Best similarity per real-valued evidence channel; -1 = no evidence.
  std::array<float, kNumEvidence> best;
  /// Merged strong-/weak-boolean incoming neighbors (statics included).
  int32_t strong_merged = 0;
  int32_t weak_merged = 0;
  bool valid = true;

  void Offer(int evidence, float sim) {
    if (sim > best[evidence]) best[evidence] = sim;
  }
  void Reset() {
    best.fill(-1.0f);
    strong_merged = 0;
    weak_merged = 0;
    valid = false;
  }
};

/// One similarity node. Element ids are RefIds for kReferencePair nodes and
/// ValueIds for kValuePair nodes, stored with a < b.
struct Node {
  int32_t a = 0;
  int32_t b = 0;
  float sim = 0.0f;
  NodeKind kind = NodeKind::kReferencePair;
  NodeState state = NodeState::kInactive;
  /// Class id for reference pairs; unused (-1) for value pairs.
  int16_t class_id = -1;
  /// True once the node has been folded away by reference enrichment.
  bool dead = false;
  /// True while the node sits in the reconciler's active queue.
  bool queued = false;
  /// User feedback: this pair is a confirmed match; its similarity
  /// computes to 1 regardless of evidence.
  bool forced_merge = false;

  /// Count of identical shared association targets acting as merged
  /// strong-/weak-boolean neighbors (paper: the self node (a, a)).
  /// (Static real-valued evidence and the in/out edge lists live in the
  /// DependencyGraph's shared CSR pools, not in the node: see
  /// DependencyGraph::in_edges/out_edges/static_real.)
  int16_t static_strong = 0;
  int16_t static_weak = 0;

  /// Cached evidence summary (see EvidenceCache). Only the solver reads
  /// it; graph surgery and the mutators below keep `valid` honest.
  EvidenceCache cache;

  bool IsRefPair() const { return kind == NodeKind::kReferencePair; }
  int32_t Other(int32_t element) const { return element == a ? b : a; }
};

/// One static real-valued evidence entry (evidence type -> comparator
/// score on a shared attribute value), pooled per node by the graph.
struct StaticReal {
  int16_t type;
  float sim;
};

}  // namespace recon

#endif  // RECON_GRAPH_NODE_H_
