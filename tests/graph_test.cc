#include <gtest/gtest.h>

#include <vector>

#include "graph/dep_graph.h"
#include "graph/value_pool.h"
#include "sim/evidence.h"

namespace recon {
namespace {

TEST(NodeTest, LayoutStaysCompact) {
  // The node array is the graph's largest pool (one Node per candidate
  // pair and per comparable value pair), so every byte here is paid once
  // per node.
  EXPECT_LE(sizeof(Node), 92u);
}

TEST(ValuePoolTest, InternsPerDomain) {
  ValuePool pool;
  const ValueDomain names{0, 0};
  const ValueDomain emails{0, 1};
  const ValueId a = pool.Intern(names, "Eugene Wong");
  const ValueId b = pool.Intern(names, "Eugene Wong");
  const ValueId c = pool.Intern(emails, "Eugene Wong");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // Same string, different domain: different element.
  EXPECT_EQ(pool.StringOf(a), "Eugene Wong");
  EXPECT_EQ(pool.DomainOf(c), emails);
  EXPECT_EQ(pool.Find(names, "Eugene Wong"), a);
  EXPECT_EQ(pool.Find(names, "nobody"), kInvalidValue);
}

class DepGraphTest : public ::testing::Test {
 protected:
  DepGraphTest() : graph_(10) {}
  DependencyGraph graph_;
};

TEST_F(DepGraphTest, RefPairNodesAreUnique) {
  const NodeId m1 = graph_.AddRefPairNode(0, 1, 2);
  const NodeId m2 = graph_.AddRefPairNode(0, 2, 1);  // Same pair, swapped.
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(graph_.num_nodes(), 1);
  EXPECT_EQ(graph_.FindRefPair(1, 2), m1);
  EXPECT_EQ(graph_.FindRefPair(2, 1), m1);
  EXPECT_EQ(graph_.FindRefPair(1, 3), kInvalidNode);
  EXPECT_EQ(graph_.node(m1).a, 1);
  EXPECT_EQ(graph_.node(m1).b, 2);
}

TEST_F(DepGraphTest, ValuePairNodesKeepInitialState) {
  const NodeId n1 = graph_.AddValuePairNode(3, 4, 0.9, NodeState::kInactive);
  const NodeId n2 = graph_.AddValuePairNode(4, 3, 0.1, NodeState::kMerged);
  EXPECT_EQ(n1, n2);
  EXPECT_FLOAT_EQ(graph_.node(n1).sim, 0.9f);
  EXPECT_EQ(graph_.node(n1).state, NodeState::kInactive);
}

TEST_F(DepGraphTest, EdgesAreDirectedAndDeduplicated) {
  const NodeId m = graph_.AddRefPairNode(0, 1, 2);
  const NodeId n = graph_.AddValuePairNode(0, 1, 0.5, NodeState::kInactive);
  graph_.AddEdge(n, m, DependencyKind::kRealValued, kEvPersonName);
  graph_.AddEdge(n, m, DependencyKind::kRealValued, kEvPersonName);  // Dup.
  graph_.AddEdge(n, m, DependencyKind::kWeakBoolean, kEvPersonName);
  EXPECT_EQ(graph_.num_edges(), 2);
  EXPECT_EQ(graph_.out_edges(n).size(), 2u);
  EXPECT_EQ(graph_.in_edges(m).size(), 2u);
  EXPECT_EQ(graph_.in_edges(m)[0].node, n);
}

TEST_F(DepGraphTest, NodesOfRefTracksMembership) {
  const NodeId m1 = graph_.AddRefPairNode(0, 1, 2);
  const NodeId m2 = graph_.AddRefPairNode(0, 1, 3);
  const auto nodes = graph_.NodesOfRef(1);
  EXPECT_EQ(nodes.size(), 2u);
  ASSERT_EQ(graph_.NodesOfRef(2).size(), 1u);
  EXPECT_EQ(graph_.NodesOfRef(2)[0], m1);
  ASSERT_EQ(graph_.NodesOfRef(3).size(), 1u);
  EXPECT_EQ(graph_.NodesOfRef(3)[0], m2);
}

TEST_F(DepGraphTest, StaticRealKeepsMax) {
  const NodeId m = graph_.AddRefPairNode(0, 1, 2);
  graph_.AddStaticReal(m, kEvPersonName, 0.5);
  graph_.AddStaticReal(m, kEvPersonName, 0.8);
  graph_.AddStaticReal(m, kEvPersonName, 0.3);
  graph_.AddStaticReal(m, kEvPersonEmail, 1.0);
  ASSERT_EQ(graph_.static_real(m).size(), 2u);
  EXPECT_FLOAT_EQ(graph_.static_real(m)[0].sim, 0.8f);
}

// Enrichment: (gone, x) folds into (keep, x) with edges reconnected.
TEST_F(DepGraphTest, MergeReferencesFoldsParallelPairs) {
  // Nodes: (1,2) merged pair; (1,3) and (2,3) both exist.
  const NodeId pair12 = graph_.AddRefPairNode(0, 1, 2);
  const NodeId pair13 = graph_.AddRefPairNode(0, 1, 3);
  const NodeId pair23 = graph_.AddRefPairNode(0, 2, 3);
  const NodeId value = graph_.AddValuePairNode(0, 1, 0.9, NodeState::kInactive);
  graph_.AddEdge(value, pair23, DependencyKind::kRealValued, kEvPersonName);
  graph_.mutable_node(pair12).state = NodeState::kMerged;

  const MergeRefsResult result = graph_.MergeReferences(1, 2);
  ASSERT_EQ(result.folded.size(), 1u);
  EXPECT_EQ(result.folded[0], pair23);
  ASSERT_EQ(result.gained_inputs.size(), 1u);
  EXPECT_EQ(result.gained_inputs[0], pair13);

  EXPECT_TRUE(graph_.node(pair23).dead);
  EXPECT_EQ(graph_.num_live_nodes(), 3);
  // The value evidence that backed (2,3) now feeds (1,3).
  ASSERT_EQ(graph_.in_edges(pair13).size(), 1u);
  EXPECT_EQ(graph_.in_edges(pair13)[0].node, value);
  EXPECT_EQ(graph_.out_edges(value)[0].node, pair13);
  // Index: (2,3) is gone; (1,3) still resolvable.
  EXPECT_EQ(graph_.FindRefPair(2, 3), kInvalidNode);
  EXPECT_EQ(graph_.FindRefPair(1, 3), pair13);
}

TEST_F(DepGraphTest, MergeReferencesRenamesWhenNoTarget) {
  const NodeId pair12 = graph_.AddRefPairNode(0, 1, 2);
  const NodeId pair23 = graph_.AddRefPairNode(0, 2, 3);
  graph_.mutable_node(pair12).state = NodeState::kMerged;

  const MergeRefsResult result = graph_.MergeReferences(1, 2);
  EXPECT_TRUE(result.folded.empty());
  // (2,3) was renamed to (1,3) and flagged for recomputation.
  ASSERT_EQ(result.gained_inputs.size(), 1u);
  EXPECT_EQ(result.gained_inputs[0], pair23);
  EXPECT_FALSE(graph_.node(pair23).dead);
  EXPECT_EQ(graph_.FindRefPair(1, 3), pair23);
  EXPECT_EQ(graph_.FindRefPair(2, 3), kInvalidNode);
  EXPECT_EQ(graph_.node(pair23).a, 1);
  EXPECT_EQ(graph_.node(pair23).b, 3);
}

TEST_F(DepGraphTest, MergePreservesMarkerAndSkipsMergedNodes) {
  const NodeId pair12 = graph_.AddRefPairNode(0, 1, 2);
  graph_.mutable_node(pair12).state = NodeState::kMerged;
  const MergeRefsResult result = graph_.MergeReferences(1, 2);
  EXPECT_TRUE(result.folded.empty());
  EXPECT_TRUE(result.gained_inputs.empty());
  EXPECT_FALSE(graph_.node(pair12).dead);
  EXPECT_EQ(graph_.FindRefPair(1, 2), pair12);
}

TEST_F(DepGraphTest, FoldTransfersNonMergeState) {
  graph_.AddRefPairNode(0, 1, 2);
  const NodeId pair13 = graph_.AddRefPairNode(0, 1, 3);
  const NodeId pair23 = graph_.AddRefPairNode(0, 2, 3);
  graph_.mutable_node(graph_.FindRefPair(1, 2)).state = NodeState::kMerged;
  graph_.mutable_node(pair23).state = NodeState::kNonMerge;

  graph_.MergeReferences(1, 2);
  // 3 was constrained apart from 2; the cluster {1,2} inherits that.
  EXPECT_EQ(graph_.node(pair13).state, NodeState::kNonMerge);
}

TEST_F(DepGraphTest, FoldAccumulatesStaticEvidence) {
  graph_.AddRefPairNode(0, 1, 2);
  const NodeId pair13 = graph_.AddRefPairNode(0, 1, 3);
  const NodeId pair23 = graph_.AddRefPairNode(0, 2, 3);
  graph_.mutable_node(graph_.FindRefPair(1, 2)).state = NodeState::kMerged;
  graph_.AddStaticReal(pair23, kEvPersonEmail, 1.0);
  graph_.mutable_node(pair23).static_weak = 2;

  graph_.MergeReferences(1, 2);
  const Node& survivor = graph_.node(pair13);
  ASSERT_EQ(graph_.static_real(pair13).size(), 1u);
  EXPECT_FLOAT_EQ(graph_.static_real(pair13)[0].sim, 1.0f);
  EXPECT_EQ(survivor.static_weak, 2);
}

TEST_F(DepGraphTest, FoldKeepsMaxSimilarity) {
  graph_.AddRefPairNode(0, 1, 2);
  const NodeId pair13 = graph_.AddRefPairNode(0, 1, 3);
  const NodeId pair23 = graph_.AddRefPairNode(0, 2, 3);
  graph_.mutable_node(graph_.FindRefPair(1, 2)).state = NodeState::kMerged;
  graph_.mutable_node(pair13).sim = 0.2f;
  graph_.mutable_node(pair23).sim = 0.7f;
  graph_.MergeReferences(1, 2);
  EXPECT_FLOAT_EQ(graph_.node(pair13).sim, 0.7f);
}

// ---- Edge dedup over the shorter list ---------------------------------------

bool SameEdge(const Edge& a, const Edge& b) {
  return a.node == b.node && a.kind == b.kind && a.evidence == b.evidence;
}

/// Every out-edge has exactly one matching in-edge (and the totals agree
/// with num_edges()), no list holds a duplicate, and dead nodes hold none.
void ExpectEdgeListsConsistent(const DependencyGraph& g) {
  int64_t out_total = 0;
  int64_t in_total = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.node(n).dead) {
      EXPECT_TRUE(g.out_edges(n).empty()) << "dead node " << n;
      EXPECT_TRUE(g.in_edges(n).empty()) << "dead node " << n;
    }
    const auto out = g.out_edges(n);
    for (size_t i = 0; i < out.size(); ++i) {
      ++out_total;
      for (size_t j = i + 1; j < out.size(); ++j) {
        EXPECT_FALSE(SameEdge(out[i], out[j])) << "duplicate out of " << n;
      }
      int matches = 0;
      for (const Edge& back : g.in_edges(out[i].node)) {
        if (SameEdge(back, Edge{n, out[i].kind, out[i].evidence})) ++matches;
      }
      EXPECT_EQ(matches, 1) << n << " -> " << out[i].node;
    }
    in_total += static_cast<int64_t>(g.in_edges(n).size());
  }
  EXPECT_EQ(out_total, g.num_edges());
  EXPECT_EQ(in_total, g.num_edges());
}

TEST(EdgeDedupTest, DuplicatesAreIgnoredWhicheverListIsShorter) {
  DependencyGraph graph(400);
  // A hub value pair feeding 120 reference pairs: out(hub) is long.
  const NodeId hub = graph.AddValuePairNode(0, 1, 0.9, NodeState::kInactive);
  std::vector<NodeId> fed;
  for (RefId r = 1; r <= 120; ++r) {
    fed.push_back(graph.AddRefPairNode(0, 0, r));
    graph.AddEdge(hub, fed.back(), DependencyKind::kRealValued,
                  kEvPersonName);
  }
  ASSERT_GE(graph.out_edges(hub).size(), 100u);
  // A sink fed by 150 more value pairs: in(sink) is long.
  const NodeId sink = fed[7];
  std::vector<NodeId> feeders;
  for (ValueId v = 10; v < 310; v += 2) {
    feeders.push_back(
        graph.AddValuePairNode(v, v + 1, 0.5, NodeState::kInactive));
    graph.AddEdge(feeders.back(), sink, DependencyKind::kRealValued,
                  kEvPersonEmail);
  }
  ASSERT_GT(graph.in_edges(sink).size(), graph.out_edges(hub).size());
  const int edges = graph.num_edges();

  // in(to) shorter: hub (120 out) -> fed[5] (1 in).
  ASSERT_LT(graph.in_edges(fed[5]).size(), graph.out_edges(hub).size());
  graph.AddEdge(hub, fed[5], DependencyKind::kRealValued, kEvPersonName);
  // out(from) shorter: hub (120 out) -> sink (151 in).
  graph.AddEdge(hub, sink, DependencyKind::kRealValued, kEvPersonName);
  // out(from) shorter: a feeder (1 out) -> sink (151 in).
  graph.AddEdge(feeders[3], sink, DependencyKind::kRealValued,
                kEvPersonEmail);
  EXPECT_EQ(graph.num_edges(), edges);
  EXPECT_EQ(graph.in_edges(fed[5]).size(), 1u);
  EXPECT_EQ(graph.out_edges(feeders[3]).size(), 1u);

  // The same endpoints with another kind or evidence are new edges.
  graph.AddEdge(hub, fed[5], DependencyKind::kStrongBoolean, kEvPersonName);
  graph.AddEdge(hub, fed[5], DependencyKind::kRealValued, kEvPersonEmail);
  graph.AddEdge(feeders[3], sink, DependencyKind::kWeakBoolean,
                kEvPersonEmail);
  graph.AddEdge(feeders[3], sink, DependencyKind::kRealValued,
                kEvPersonName);
  EXPECT_EQ(graph.num_edges(), edges + 4);
  EXPECT_EQ(graph.in_edges(fed[5]).size(), 3u);
  EXPECT_EQ(graph.out_edges(feeders[3]).size(), 3u);
  ExpectEdgeListsConsistent(graph);
}

TEST(EdgeDedupTest, MergeAcrossTheHubKeepsBothListsInStep) {
  DependencyGraph graph(400);
  const NodeId hub = graph.AddValuePairNode(0, 1, 0.9, NodeState::kInactive);
  // The hub feeds (0, r) for r in [2, 122) and (1, r) for r in [2, 82);
  // every (1, r) also propagates back into the hub, as venue names do,
  // and so do the even (0, r).
  for (RefId r = 2; r < 122; ++r) {
    const NodeId m = graph.AddRefPairNode(0, 0, r);
    graph.AddEdge(hub, m, DependencyKind::kRealValued, kEvVenueName);
    if (r % 2 == 0) {
      graph.AddEdge(m, hub, DependencyKind::kStrongBoolean, kEvVenueName);
    }
  }
  for (RefId r = 2; r < 82; ++r) {
    const NodeId m = graph.AddRefPairNode(0, 1, r);
    graph.AddEdge(hub, m, DependencyKind::kRealValued, kEvVenueName);
    graph.AddEdge(m, hub, DependencyKind::kStrongBoolean, kEvVenueName);
    // A second in-edge kind, so folds also move non-duplicate inputs.
    graph.AddEdge(hub, m, DependencyKind::kWeakBoolean, kEvVenueName);
  }
  const NodeId marker = graph.AddRefPairNode(0, 0, 1);
  graph.mutable_node(marker).state = NodeState::kMerged;
  ASSERT_GE(graph.out_edges(hub).size(), 100u);
  ExpectEdgeListsConsistent(graph);

  // Folds (1, r) into (0, r): the hub -> (1, r) real-valued inputs and
  // the even (1, r) -> hub outputs are duplicates of the survivor's.
  const MergeRefsResult result = graph.MergeReferences(0, 1);
  EXPECT_EQ(result.folded.size(), 80u);
  ExpectEdgeListsConsistent(graph);
  // 120 real-valued hub outputs, 80 weak ones moved onto (0, r) for r < 82,
  // and one strong input per (0, r) for even r plus r < 82.
  int strong_in = 0;
  for (const Edge& e : graph.in_edges(hub)) {
    EXPECT_EQ(e.kind, DependencyKind::kStrongBoolean);
    ++strong_in;
  }
  EXPECT_EQ(graph.out_edges(hub).size(), 200u);
  EXPECT_EQ(strong_in, 60 + 40);
}

}  // namespace
}  // namespace recon
