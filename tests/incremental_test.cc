// Tests for incremental reconciliation (paper §7 future work) and for the
// key-attribute pre-merge optimization (§3.4).

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_builder.h"
#include "core/incremental.h"
#include "core/premerge.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "model/subset.h"

namespace recon {
namespace {

datagen::PimConfig SmallPim(uint64_t seed) {
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.04);
  config.seed = seed;
  return config;
}

// ---- Pre-merge --------------------------------------------------------------

TEST(PremergeTest, GroupsEqualEmails) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int email = data.schema().RequireAttribute(person, "email");
  const int name = data.schema().RequireAttribute(person, "name");
  const RefId a = data.NewReference(person, 0);
  data.mutable_reference(a).AddAtomicValue(email, "x@y.edu");
  data.mutable_reference(a).AddAtomicValue(name, "Xavier Young");
  const RefId b = data.NewReference(person, 0);
  data.mutable_reference(b).AddAtomicValue(email, "X@Y.EDU");  // Case diff.
  data.mutable_reference(b).AddAtomicValue(name, "X. Young");
  const RefId c = data.NewReference(person, 1);
  data.mutable_reference(c).AddAtomicValue(email, "z@y.edu");

  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const PremergeResult pre = PremergeEqualEmails(data, binding);
  EXPECT_EQ(pre.condensed.num_references(), 2);
  EXPECT_EQ(pre.condensed_of[a], pre.condensed_of[b]);
  EXPECT_NE(pre.condensed_of[a], pre.condensed_of[c]);
  // Values pooled.
  const Reference& merged = pre.condensed.reference(pre.condensed_of[a]);
  EXPECT_EQ(merged.atomic_values(name).size(), 2u);
  EXPECT_EQ(merged.atomic_values(email).size(), 2u);  // Case variants kept.
}

TEST(PremergeTest, RemapsAssociationsAndDropsSelfLinks) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int email = data.schema().RequireAttribute(person, "email");
  const int contact = data.schema().RequireAttribute(person, "emailContact");
  const RefId a = data.NewReference(person, 0);
  data.mutable_reference(a).AddAtomicValue(email, "a@s.edu");
  const RefId b = data.NewReference(person, 0);
  data.mutable_reference(b).AddAtomicValue(email, "a@s.edu");
  const RefId c = data.NewReference(person, 1);
  data.mutable_reference(c).AddAtomicValue(email, "c@s.edu");
  data.mutable_reference(a).AddAssociation(contact, c);
  data.mutable_reference(c).AddAssociation(contact, b);
  data.mutable_reference(a).AddAssociation(contact, b);  // Becomes self.

  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const PremergeResult pre = PremergeEqualEmails(data, binding);
  const Reference& ab = pre.condensed.reference(pre.condensed_of[a]);
  const Reference& cc = pre.condensed.reference(pre.condensed_of[c]);
  EXPECT_EQ(ab.associations(contact),
            (std::vector<RefId>{pre.condensed_of[c]}));
  EXPECT_EQ(cc.associations(contact),
            (std::vector<RefId>{pre.condensed_of[a]}));
}

TEST(PremergeTest, ExpandClustersIsCanonical) {
  const Dataset data = datagen::GeneratePim(SmallPim(71));
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const PremergeResult pre = PremergeEqualEmails(data, binding);
  ASSERT_LT(pre.condensed.num_references(), data.num_references());

  // Identity clustering over the condensed space expands to the premerge
  // partition over the original space.
  std::vector<int> identity(pre.condensed.num_references());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = static_cast<int>(i);
  const std::vector<int> expanded = ExpandClusters(pre, identity);
  for (RefId id = 0; id < data.num_references(); ++id) {
    EXPECT_EQ(expanded[expanded[id]], expanded[id]);
    EXPECT_EQ(pre.condensed_of[expanded[id]], pre.condensed_of[id]);
  }
}

TEST(PremergeTest, PremergeDoesNotChangeQualityMuch) {
  // The key attribute would merge those pairs anyway; pre-merging is an
  // optimization, not a semantic change. Allow small drift (order effects).
  const Dataset data = datagen::GeneratePim(SmallPim(72));
  const int person = data.schema().RequireClass("Person");

  ReconcilerOptions with = ReconcilerOptions::DepGraph();
  ReconcilerOptions without = ReconcilerOptions::DepGraph();
  without.premerge_equal_emails = false;
  const PairMetrics m_with =
      EvaluateClass(data, Reconciler(with).Run(data).cluster, person);
  const PairMetrics m_without =
      EvaluateClass(data, Reconciler(without).Run(data).cluster, person);
  EXPECT_NEAR(m_with.f1, m_without.f1, 0.05);
  EXPECT_GE(m_with.recall, m_without.recall - 0.03);
}

// ---- Incremental reconciliation -----------------------------------------------

TEST(IncrementalTest, MatchesBatchOnWholeDataset) {
  // Feeding the whole dataset as one batch must match the batch
  // reconciler's partition (premerge is a batch-only optimization, so
  // compare against a batch run without it).
  const Dataset data = datagen::GeneratePim(SmallPim(73));
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  const ReconcileResult batch = Reconciler(options).Run(data);

  IncrementalReconciler incremental(data, options);
  const std::vector<int>& clusters = incremental.clusters();

  std::map<int, int> mapping;
  for (RefId id = 0; id < data.num_references(); ++id) {
    auto [it, inserted] = mapping.try_emplace(batch.cluster[id], clusters[id]);
    EXPECT_EQ(it->second, clusters[id]) << "ref " << id;
  }
}

TEST(IncrementalTest, AddingReferencesExtendsClusters) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int name = data.schema().RequireAttribute(person, "name");
  const int email = data.schema().RequireAttribute(person, "email");

  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(std::move(data), options);

  auto add_person = [&](const std::string& n, const std::string& e) {
    Reference ref(person, 4);
    if (!n.empty()) ref.AddAtomicValue(name, n);
    if (!e.empty()) ref.AddAtomicValue(email, e);
    return reconciler.AddReference(std::move(ref));
  };

  const RefId p1 = add_person("Eugene Wong", "eugene@berkeley.edu");
  const RefId p2 = add_person("Eugene Wong", "");
  EXPECT_EQ(reconciler.clusters()[p1], reconciler.clusters()[p2]);

  // A later batch: the same email as p1 must join the existing cluster.
  const RefId p3 = add_person("", "eugene@berkeley.edu");
  const RefId p4 = add_person("Robert Epstein", "");
  EXPECT_EQ(reconciler.clusters()[p3], reconciler.clusters()[p1]);
  EXPECT_NE(reconciler.clusters()[p4], reconciler.clusters()[p1]);
}

TEST(IncrementalTest, DecisionsAreMonotone) {
  // Previously merged pairs stay merged after any number of insertions.
  const Dataset data = datagen::GeneratePim(SmallPim(74));
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(data, options);
  const std::vector<int> before = reconciler.clusters();

  const int person = data.schema().RequireClass("Person");
  const int name = data.schema().RequireAttribute(person, "name");
  for (int i = 0; i < 10; ++i) {
    Reference ref(person, 4);
    ref.AddAtomicValue(name, "Zebulon Quixote");
    reconciler.AddReference(std::move(ref));
  }
  const std::vector<int>& after = reconciler.clusters();
  for (RefId id = 0; id < data.num_references(); ++id) {
    for (RefId other = id + 1; other < data.num_references(); ++other) {
      if (before[id] == before[other]) {
        EXPECT_EQ(after[id], after[other])
            << "pair (" << id << "," << other << ") was unmerged";
      }
    }
  }
}

TEST(IncrementalTest, BatchedInsertionApproximatesBatchQuality) {
  const Dataset full = datagen::GeneratePim(SmallPim(75));
  const int person = full.schema().RequireClass("Person");

  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  const PairMetrics batch =
      EvaluateClass(full, Reconciler(options).Run(full).cluster, person);

  // Split: first 60% of references, then the rest in one more batch.
  // (Keep association targets valid: links in the PIM generator always
  // point within the same extraction unit, and references are ordered by
  // unit, so a prefix cut is safe apart from a few dangling links we
  // filter.)
  const RefId cut = full.num_references() * 6 / 10;
  const Dataset head =
      FilterDataset(full, [&](RefId id) { return id < cut; });
  IncrementalReconciler reconciler(head, options);
  for (RefId id = cut; id < full.num_references(); ++id) {
    const Reference& ref = full.reference(id);
    Reference copy(ref.class_id(), ref.num_attributes());
    for (int attr = 0; attr < ref.num_attributes(); ++attr) {
      for (const auto& v : ref.atomic_values(attr)) {
        copy.AddAtomicValue(attr, v);
      }
      for (const RefId t : ref.associations(attr)) {
        if (t < full.num_references()) copy.AddAssociation(attr, t);
      }
    }
    reconciler.AddReference(std::move(copy), full.gold_entity(id),
                            full.provenance(id));
  }
  // Evaluate against the full dataset's gold labels.
  const std::vector<int>& clusters = reconciler.clusters();
  const PairMetrics incremental =
      EvaluateClass(reconciler.dataset(), clusters, person);

  EXPECT_GE(incremental.recall, batch.recall - 0.08);
  EXPECT_GE(incremental.precision, batch.precision - 0.05);
}

TEST(IncrementalTest, FlushIsIdempotent) {
  const Dataset data = datagen::GeneratePim(SmallPim(76));
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(data, options);
  reconciler.Flush();
  const std::vector<int> first = reconciler.clusters();
  reconciler.Flush();
  reconciler.Flush();
  EXPECT_EQ(reconciler.clusters(), first);
}

TEST(IncrementalTest, ConstructorOnlyStages) {
  // The initial references are staged, not reconciled: nothing is current
  // until the first flush.
  const Dataset data = datagen::GeneratePim(SmallPim(78));
  ASSERT_GT(data.num_references(), 0);
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(data, options);
  EXPECT_EQ(reconciler.num_staged(), data.num_references());
  EXPECT_EQ(reconciler.flushed_until(), 0);
  EXPECT_EQ(reconciler.clusters_if_current(), nullptr);
  EXPECT_EQ(reconciler.stats().solver_iterations, 0);

  reconciler.Flush();
  EXPECT_EQ(reconciler.num_staged(), 0);
  EXPECT_GT(reconciler.stats().solver_iterations, 0);
  const std::vector<int> clusters = reconciler.clusters();
  ASSERT_NE(reconciler.clusters_if_current(), nullptr);
  EXPECT_EQ(*reconciler.clusters_if_current(), clusters);
}

TEST(IncrementalTest, IncrementalBatchesMatch) {
  // Incremental reconciliation re-enters the solver after graph surgery,
  // and candidate generation and staging run on the pool; the partition
  // after many small flushes must still be identical at every thread count.
  const Dataset dataset = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.10));
  std::vector<std::vector<int>> clusters;
  for (const int threads : {1, 4}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    IncrementalReconciler inc(Dataset(dataset.schema()), options);
    for (RefId id = 0; id < dataset.num_references(); ++id) {
      inc.AddReference(dataset.reference(id), /*gold_entity=*/-1,
                       dataset.provenance(id));
      if (id % 97 == 0) inc.Flush();
    }
    clusters.push_back(inc.clusters());
  }
  EXPECT_EQ(clusters[0], clusters[1]);
}

TEST(IncrementalTest, IncrementalCoraBatchesMatch) {
  // The same thread-invariance on Cora, whose papers, authors and venues
  // are linked by citations, with the evidence cache off so every
  // recomputation rescans its in-edges.
  datagen::CoraConfig config;
  config.num_papers = 30;
  config.num_citations = 300;
  config.num_authors = 60;
  config.num_venue_series = 12;
  const Dataset dataset = datagen::GenerateCora(config);
  std::vector<std::vector<int>> clusters;
  for (const int threads : {1, 4}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    options.evidence_cache = false;
    IncrementalReconciler inc(Dataset(dataset.schema()), options);
    for (RefId id = 0; id < dataset.num_references(); ++id) {
      inc.AddReference(dataset.reference(id), /*gold_entity=*/-1,
                       dataset.provenance(id));
      if (id % 31 == 0) inc.Flush();
    }
    clusters.push_back(inc.clusters());
  }
  EXPECT_EQ(clusters[0], clusters[1]);
  // Not vacuous: the flushes merged something.
  EXPECT_LT(std::set<int>(clusters[0].begin(), clusters[0].end()).size(),
            clusters[0].size());
}

TEST(IncrementalTest, ParallelScoreCountersReadZero) {
  // The fixed-point solve is serial: the two parallel-score counters kept
  // in ReconcileStats read 0 at every thread count, batch and incremental.
  const Dataset data = datagen::GeneratePim(SmallPim(79));
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    const ReconcileResult batch = Reconciler(options).Run(data);
    EXPECT_GT(batch.stats.num_recomputations, 0);
    EXPECT_EQ(batch.stats.num_parallel_scored, 0);
    EXPECT_EQ(batch.stats.num_score_hits, 0);

    IncrementalReconciler inc(data, options);
    inc.Flush();
    EXPECT_GT(inc.stats().num_recomputations, 0);
    EXPECT_EQ(inc.stats().num_parallel_scored, 0);
    EXPECT_EQ(inc.stats().num_score_hits, 0);
  }
}

TEST(IncrementalTest, StatsAccumulate) {
  const Dataset data = datagen::GeneratePim(SmallPim(77));
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(data, options);
  const ReconcileResult result = reconciler.result();
  EXPECT_GT(result.stats.num_nodes, 0);
  EXPECT_GT(result.stats.num_merges, 0);
  EXPECT_FALSE(result.merged_pairs.empty());
}

// ---- Per-reference ValueIds --------------------------------------------------

/// Every reference's recorded id span per bound attribute equals looking
/// each raw value up in the pool; unbound slots and other classes are
/// empty. The slot order is the documented RefValueIds one.
void ExpectRefValueIdsMatchPool(const Dataset& dataset,
                                const BuiltGraph& built) {
  const SchemaBinding& b = built.binding;
  ASSERT_EQ(built.ref_values.num_refs(), dataset.num_references());
  int64_t checked = 0;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    const Reference& r = dataset.reference(id);
    std::vector<int> attrs(RefValueIds::kSlots, -1);
    if (r.class_id() == b.person) {
      attrs = {b.person_name, b.person_email, -1};
    } else if (r.class_id() == b.article) {
      attrs = {b.article_title, b.article_year, b.article_pages};
    } else if (r.class_id() == b.venue) {
      attrs = {b.venue_name, b.venue_year, b.venue_location};
    }
    for (int slot = 0; slot < RefValueIds::kSlots; ++slot) {
      std::vector<ValueId> expected;
      if (attrs[slot] >= 0) {
        const ValueDomain domain{r.class_id(), attrs[slot]};
        for (const std::string& raw : r.atomic_values(attrs[slot])) {
          expected.push_back(built.values.Find(domain, raw));
          EXPECT_NE(expected.back(), kInvalidValue);
          ++checked;
        }
      }
      const auto span = built.ref_values.Of(id, slot);
      ASSERT_EQ(std::vector<ValueId>(span.begin(), span.end()), expected)
          << "ref " << id << " slot " << slot;
    }
  }
  EXPECT_GT(checked, dataset.num_references());
}

Dataset SmallCoraForIds() {
  datagen::CoraConfig config;
  config.num_papers = 30;
  config.num_citations = 300;
  config.num_authors = 60;
  config.num_venue_series = 12;
  return datagen::GenerateCora(config);
}

TEST(RefValueIdsTest, BatchBuildRecordsEveryReference) {
  const ReconcilerOptions options = ReconcilerOptions::DepGraph();
  for (const Dataset& dataset :
       {datagen::GeneratePim(SmallPim(81)), SmallCoraForIds()}) {
    const BuiltGraph built = BuildDependencyGraph(dataset, options);
    ExpectRefValueIdsMatchPool(dataset, built);
  }
}

TEST(RefValueIdsTest, IncrementalFlushesRecordEachReferenceOnce) {
  // Flush() interns the batch before candidate generation and then
  // extends the graph, which interns again: the second pass must find
  // every reference recorded and append nothing.
  for (const Dataset& dataset :
       {datagen::GeneratePim(SmallPim(83)), SmallCoraForIds()}) {
    for (const bool store : {true, false}) {
      ReconcilerOptions options = ReconcilerOptions::DepGraph();
      options.value_store = store;
      IncrementalReconciler inc(Dataset(dataset.schema()), options);
      int flushes = 0;
      for (RefId id = 0; id < dataset.num_references(); ++id) {
        inc.AddReference(dataset.reference(id), /*gold_entity=*/-1,
                         dataset.provenance(id));
        if (id % 53 == 0) {
          inc.Flush();
          ++flushes;
          ASSERT_EQ(inc.built().ref_values.num_refs(), id + 1);
        }
      }
      inc.Flush();
      EXPECT_GT(flushes, 3);
      ExpectRefValueIdsMatchPool(inc.dataset(), inc.built());
    }
  }
}

}  // namespace
}  // namespace recon
