// Graph-build staging (DESIGN.md §13, §14): candidate pairs are staged on
// the pool through one blocked path and applied serially in pair order,
// so staging must be undetectable in the output. For every tested thread
// count — popular-key pruning binding or not, budget epochs live, a
// binding similarity memo, execution caps and staging-chunk stops — the
// partition, the merged-pair sequence and the scoring counters of
// Reconciler::Run equal its one-thread run, and the reported merged pairs
// close to the reported partition. The straddler cases pin what blocking
// decides: a pair sharing only one (common) block is staged, and pruning
// that block drops it. Runs under AddressSanitizer and ThreadSanitizer via
// the ctest `asan` / `tsan` labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "model/dataset.h"
#include "util/fault_injection.h"
#include "util/union_find.h"

namespace recon {
namespace {

Dataset SmallPimB() {
  datagen::PimConfig config = datagen::PimConfigB();
  config = datagen::ScaleConfig(config, 0.12);
  return datagen::GeneratePim(config);
}

Dataset SmallCora() {
  datagen::CoraConfig config;
  config.num_papers = 30;
  config.num_citations = 300;
  config.num_authors = 60;
  config.num_venue_series = 12;
  return datagen::GenerateCora(config);
}

/// The partition the merged pairs induce under transitive closure,
/// canonicalized to smallest member (matching FixedPointSolver::Closure).
std::vector<int> ClosureOfPairs(
    int n, const std::vector<std::pair<RefId, RefId>>& pairs) {
  UnionFind uf(n);
  for (const auto& [a, b] : pairs) uf.Union(a, b);
  std::vector<int> cluster(n);
  std::vector<int> canonical(n, -1);
  for (int i = 0; i < n; ++i) {
    const int root = uf.Find(i);
    if (canonical[root] < 0) canonical[root] = i;
    cluster[i] = canonical[root];
  }
  return cluster;
}

/// Partition, merge sequence, stop reason and every staging counter must
/// match: staging is a pure function of the pair, whatever lane ran it.
void ExpectSameRun(const ReconcileResult& want, const ReconcileResult& got) {
  EXPECT_EQ(want.cluster, got.cluster);
  EXPECT_EQ(want.merged_pairs, got.merged_pairs);
  EXPECT_EQ(want.stats.stop_reason, got.stats.stop_reason);
  EXPECT_EQ(want.stats.num_candidates, got.stats.num_candidates);
  EXPECT_EQ(want.stats.num_nodes, got.stats.num_nodes);
  EXPECT_EQ(want.stats.num_edges, got.stats.num_edges);
  EXPECT_EQ(want.stats.num_merges, got.stats.num_merges);
  EXPECT_EQ(want.stats.num_pair_comparisons, got.stats.num_pair_comparisons);
  EXPECT_EQ(want.stats.num_value_analyses, got.stats.num_value_analyses);
  EXPECT_EQ(want.stats.num_sim_memo_hits, got.stats.num_sim_memo_hits);
  EXPECT_EQ(want.stats.num_sim_memo_misses, got.stats.num_sim_memo_misses);
  EXPECT_EQ(want.stats.num_prefilter_skips, got.stats.num_prefilter_skips);
  EXPECT_EQ(want.stats.num_prefilter_exact, got.stats.num_prefilter_exact);
}

/// Runs `options` at one thread, then at each of `threads`, and expects
/// every run to equal the one-thread run. Returns the one-thread run.
ReconcileResult ExpectThreadInvariant(const Dataset& dataset,
                                      ReconcilerOptions options,
                                      const std::vector<int>& threads) {
  options.num_threads = 1;
  const ReconcileResult serial = Reconciler(options).Run(dataset);
  for (const int t : threads) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    options.num_threads = t;
    ExpectSameRun(serial, Reconciler(options).Run(dataset));
  }
  return serial;
}

void ExpectPairsCloseToPartition(const Dataset& dataset) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReconcilerOptions options;
    options.num_threads = threads;
    const ReconcileResult result = Reconciler(options).Run(dataset);
    ASSERT_FALSE(result.merged_pairs.empty());
    EXPECT_EQ(ClosureOfPairs(dataset.num_references(), result.merged_pairs),
              result.cluster);
  }
}

// ---- Thread invariance --------------------------------------------------

// PIM B is the family the million-reference row scales up (26x, with
// max_block_size=100). Here the bound is shrunk until it prunes at this
// size, so the sweep covers the same pruned configuration.
TEST(StagingTest, PrunedPimBByteIdenticalAcrossThreads) {
  const Dataset dataset = SmallPimB();
  ReconcilerOptions options;
  options.num_threads = 1;
  const ReconcileResult unpruned = Reconciler(options).Run(dataset);
  options.max_block_size = 20;
  const ReconcileResult pruned =
      ExpectThreadInvariant(dataset, options, {2, 4, 8});
  // The pruning must bind, or this input tests nothing new.
  EXPECT_LT(pruned.stats.num_candidates, unpruned.stats.num_candidates);
}

TEST(StagingTest, CoraByteIdenticalAcrossThreads) {
  ExpectThreadInvariant(SmallCora(), ReconcilerOptions{}, {2, 4, 8});
}

// Budget epoch live: a generous soft memory cap (never trips, but probes
// compare the graph estimate at every staging chunk) plus a deliberately
// tiny similarity-memo bound (binding: constant evictions or bypasses).
// Both are output-neutral by design, so the run must equal the default.
TEST(StagingTest, BindingMemoAndLiveBudgetMatchDefault) {
  const Dataset dataset = SmallPimB();
  const ReconcileResult plain = Reconciler(ReconcilerOptions{}).Run(dataset);
  ReconcilerOptions options;
  options.budget.soft_max_memory_bytes = int64_t{4} << 30;
  options.sim_memo_max_bytes = 1 << 12;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    const ReconcileResult budgeted = Reconciler(options).Run(dataset);
    EXPECT_EQ(plain.cluster, budgeted.cluster);
    EXPECT_EQ(plain.merged_pairs, budgeted.merged_pairs);
    EXPECT_EQ(plain.stats.num_pair_comparisons,
              budgeted.stats.num_pair_comparisons);
    EXPECT_EQ(budgeted.stats.stop_reason, StopReason::kConverged);
    EXPECT_GT(budgeted.stats.num_budget_probes, 0);
    EXPECT_GT(budgeted.stats.num_sim_memo_evictions +
                  budgeted.stats.num_sim_memo_bypasses,
              0)
        << "the memo bound must bind";
  }
}

// ---- Deterministic stops --------------------------------------------------

// An iteration cap freezes the solve after a prefix of the canonical
// commit sequence, so the capped run is thread-invariant and never merges
// what the uncapped run keeps apart.
TEST(StagingTest, IterationCapIsThreadInvariantAndNeverOvermerges) {
  const Dataset dataset = SmallCora();
  const ReconcileResult full = Reconciler(ReconcilerOptions{}).Run(dataset);
  ReconcilerOptions options;
  options.budget.max_solver_iterations = 500;  // Binding: freezes mid-solve.
  const ReconcileResult capped =
      ExpectThreadInvariant(dataset, options, {4});
  EXPECT_EQ(capped.stats.stop_reason, StopReason::kIterationBudget);
  EXPECT_LT(capped.stats.num_merges, full.stats.num_merges);
  for (const auto& [a, b] : capped.merged_pairs) {
    EXPECT_EQ(full.cluster[a], full.cluster[b])
        << "capped run merged (" << a << ", " << b << ")";
  }
}

// A stop injected at a staging-chunk probe truncates the serial apply
// loop: the graph holds a prefix of the canonical pair order whatever the
// lanes staged, so the degraded run is still thread-invariant.
TEST(StagingTest, StagingChunkStopIsThreadInvariant) {
  const Dataset dataset = SmallPimB();
  const ReconcileResult full = Reconciler(ReconcilerOptions{}).Run(dataset);
  ReconcilerOptions options;
  options.num_threads = 1;
  options.probe_hook = std::make_shared<FaultInjector>(
      ProbePoint::kBuild, 2, StopReason::kMemoryBudget);
  const ReconcileResult serial = Reconciler(options).Run(dataset);
  EXPECT_EQ(serial.stats.stop_reason, StopReason::kMemoryBudget);
  EXPECT_LT(serial.stats.num_nodes, full.stats.num_nodes);
  EXPECT_EQ(ClosureOfPairs(dataset.num_references(), serial.merged_pairs),
            serial.cluster);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    options.probe_hook = std::make_shared<FaultInjector>(
        ProbePoint::kBuild, 2, StopReason::kMemoryBudget);
    ExpectSameRun(serial, Reconciler(options).Run(dataset));
  }
}

// ---- Merged pairs -----------------------------------------------------------

TEST(StagingTest, PimBMergedPairsCloseToPartition) {
  ExpectPairsCloseToPartition(SmallPimB());
}

TEST(StagingTest, CoraMergedPairsCloseToPartition) {
  ExpectPairsCloseToPartition(SmallCora());
}

// ---- Blocking decides what is staged ----------------------------------------

/// Two references of one person: "Jonathan Strudelmeyer" vs "Jonathan
/// Strudelmayer" share only the (common) first-name block; each last name
/// is its own rarer block, anchored by filler references (distinct
/// persons). Their pair is staged only through the shared block.
Dataset StraddlingDataset(RefId* left, RefId* right) {
  Dataset data(BuildPimSchema());
  const Schema& s = data.schema();
  const int kPerson = s.RequireClass("Person");
  const int kName = s.RequireAttribute(kPerson, "name");

  auto person = [&](int gold, const std::string& name) {
    const RefId id = data.NewReference(kPerson, gold);
    data.mutable_reference(id).AddAtomicValue(kName, name);
    return id;
  };

  *left = person(0, "Jonathan Strudelmeyer");
  *right = person(0, "Jonathan Strudelmayer");
  person(1, "Augusta Strudelmeyer");
  person(2, "Bertram Strudelmeyer");
  person(3, "Cordelia Strudelmayer");
  person(4, "Dagobert Strudelmayer");
  person(5, "Jonathan Quiggleworth");
  person(6, "Jonathan Pfefferberg");
  person(7, "Jonathan Ollivander");
  person(8, "Jonathan Nimbleton");
  return data;
}

TEST(StagingTest, StraddlingPairReconciledThroughSharedBlock) {
  RefId left = kInvalidRef;
  RefId right = kInvalidRef;
  const Dataset dataset = StraddlingDataset(&left, &right);
  ReconcilerOptions options;
  options.premerge_equal_emails = false;
  const ReconcileResult result =
      ExpectThreadInvariant(dataset, options, {2, 4});
  EXPECT_EQ(result.cluster[left], result.cluster[right]);
  // The fillers stay apart from the straddler and from each other.
  for (RefId id = 2; id < dataset.num_references(); ++id) {
    EXPECT_EQ(result.cluster[id], id) << "filler " << id << " merged";
  }
}

TEST(StagingTest, PruningTheSharedBlockDropsTheStraddlingPair) {
  RefId left = kInvalidRef;
  RefId right = kInvalidRef;
  const Dataset dataset = StraddlingDataset(&left, &right);
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());

  // Block sizes, and the one key the two spellings share.
  std::unordered_map<std::string, int> block_size;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    for (const std::string& key : BlockingKeys(dataset, id, binding)) {
      ++block_size[key];
    }
  }
  std::vector<std::string> left_keys = BlockingKeys(dataset, left, binding);
  std::vector<std::string> right_keys = BlockingKeys(dataset, right, binding);
  std::sort(left_keys.begin(), left_keys.end());
  std::sort(right_keys.begin(), right_keys.end());
  std::vector<std::string> shared;
  std::set_intersection(left_keys.begin(), left_keys.end(),
                        right_keys.begin(), right_keys.end(),
                        std::back_inserter(shared));
  ASSERT_EQ(shared.size(), 1u) << "the spellings must share one block";
  const int shared_size = block_size[shared[0]];
  for (const auto* keys : {&left_keys, &right_keys}) {
    for (const std::string& key : *keys) {
      if (key != shared[0]) {
        ASSERT_LT(block_size[key], shared_size) << key;
      }
    }
  }

  ReconcilerOptions options;
  options.premerge_equal_emails = false;
  const ReconcileResult kept = Reconciler(options).Run(dataset);
  // Skip exactly the shared block: every other block survives.
  options.max_block_size = shared_size - 1;
  const ReconcileResult pruned =
      ExpectThreadInvariant(dataset, options, {2, 4});
  EXPECT_NE(pruned.cluster[left], pruned.cluster[right]);
  EXPECT_LT(pruned.stats.num_candidates, kept.stats.num_candidates);
  EXPECT_GT(pruned.stats.num_candidates, 0);
}

}  // namespace
}  // namespace recon
