// Determinism sweep for the CSR dependency graph (DESIGN.md §13):
// datasets × threads {1, 2, 4, 8} × {evidence_cache, constraints, budgets,
// enrichment} must produce byte-identical partitions and stats at every
// thread count — candidate generation and graph-build staging run on the
// pool, the fixed-point drain stays serial — and, with enrichment on, the
// golden fingerprints committed below. The goldens pin the output across
// commits: a change in CSR layout, graph surgery, or budget probing that
// alters any partition, merge order, or deterministic counter fails here
// even if it is self-consistent across thread counts.
//
// Runs under both sanitizers via the ctest `asan` and `tsan` labels
// (tools/check_asan.sh, tools/check_tsan.sh).
//
// Regenerating goldens after an *intended* output change:
//   RECON_REGEN_GOLDENS=1 build/tests/graph_csr_test | grep '    {'
// and paste the printed rows over kGolden below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "model/dataset.h"

namespace recon {
namespace {

Dataset SmallPim() {
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.10);
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

/// Everything about a run that must be bit-stable: an order-sensitive hash
/// of the partition and the direct merge sequence, plus the deterministic
/// counters. Wall times and graph_bytes (padding- and platform-dependent)
/// are deliberately excluded.
struct Fingerprint {
  uint64_t hash = 0;
  int64_t merges = 0;
  int64_t folds = 0;
  int64_t recomputations = 0;
  int64_t nodes = 0;
  int64_t edges = 0;

  bool operator==(const Fingerprint&) const = default;
};

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

Fingerprint FingerprintOf(const ReconcileResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const int rep : result.cluster) {
    h = Fnv1a(h, static_cast<uint64_t>(rep));
  }
  // merged_pairs is the *direct* merge sequence in commit order, so the
  // hash also pins the drain's pop order, not just the final partition.
  for (const auto& [a, b] : result.merged_pairs) {
    h = Fnv1a(h, (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b));
  }
  return {h,
          result.stats.num_merges,
          result.stats.num_folds,
          result.stats.num_recomputations,
          result.stats.num_nodes,
          result.stats.num_edges};
}

struct GoldenRow {
  const char* dataset;
  bool cache;
  bool constraints;
  bool budget;
  Fingerprint want;
};

// Recorded from the serial drain with enrichment on (the default); the
// sweep asserts every thread count reproduces these exactly.
constexpr GoldenRow kGolden[] = {
    {"PIM-A", true, true, false, {0x1f9a6ccc9ffec150ull, 885, 6375, 2003, 9675, 6602}},
    {"PIM-A", true, true, true, {0x60874c104dc80798ull, 25, 550, 71, 9675, 15061}},
    {"PIM-A", true, false, false, {0xd59ecdb0c50dd522ull, 895, 6229, 2190, 9386, 7014}},
    {"PIM-A", true, false, true, {0x60874c104dc80798ull, 25, 550, 71, 9386, 15509}},
    {"PIM-A", false, true, false, {0x1f9a6ccc9ffec150ull, 885, 6375, 2003, 9675, 6602}},
    {"PIM-A", false, true, true, {0x60874c104dc80798ull, 25, 550, 71, 9675, 15061}},
    {"PIM-A", false, false, false, {0xd59ecdb0c50dd522ull, 895, 6229, 2190, 9386, 7014}},
    {"PIM-A", false, false, true, {0x60874c104dc80798ull, 25, 550, 71, 9386, 15509}},
    {"Cora", true, true, false, {0xbb0a4a8b3e398b2dull, 2061, 29546, 4723, 34375, 14644}},
    {"Cora", true, true, true, {0x87c0ee777da2fef1ull, 25, 1250, 92, 34375, 54747}},
    {"Cora", true, false, false, {0xbb0a4a8b3e398b2dull, 2061, 28874, 4743, 33606, 14714}},
    {"Cora", true, false, true, {0x87c0ee777da2fef1ull, 25, 1250, 92, 33606, 55569}},
    {"Cora", false, true, false, {0xbb0a4a8b3e398b2dull, 2061, 29546, 4723, 34375, 14644}},
    {"Cora", false, true, true, {0x87c0ee777da2fef1ull, 25, 1250, 92, 34375, 54747}},
    {"Cora", false, false, false, {0xbb0a4a8b3e398b2dull, 2061, 28874, 4743, 33606, 14714}},
    {"Cora", false, false, true, {0x87c0ee777da2fef1ull, 25, 1250, 92, 33606, 55569}},
};

bool RegenMode() { return std::getenv("RECON_REGEN_GOLDENS") != nullptr; }

void PrintGoldenRow(const std::string& dataset, bool cache, bool constraints,
                    bool budget, const Fingerprint& fp) {
  std::printf(
      "    {\"%s\", %s, %s, %s, {0x%016llxull, %lld, %lld, %lld, %lld, "
      "%lld}},\n",
      dataset.c_str(), cache ? "true" : "false",
      constraints ? "true" : "false", budget ? "true" : "false",
      static_cast<unsigned long long>(fp.hash),
      static_cast<long long>(fp.merges), static_cast<long long>(fp.folds),
      static_cast<long long>(fp.recomputations),
      static_cast<long long>(fp.nodes), static_cast<long long>(fp.edges));
}

const GoldenRow* FindGolden(const std::string& dataset, bool cache,
                            bool constraints, bool budget) {
  for (const GoldenRow& row : kGolden) {
    if (dataset == row.dataset && cache == row.cache &&
        constraints == row.constraints && budget == row.budget) {
      return &row;
    }
  }
  return nullptr;
}

void ExpectFingerprint(const Fingerprint& want, const Fingerprint& got) {
  EXPECT_EQ(want.hash, got.hash);
  EXPECT_EQ(want.merges, got.merges);
  EXPECT_EQ(want.folds, got.folds);
  EXPECT_EQ(want.recomputations, got.recomputations);
  EXPECT_EQ(want.nodes, got.nodes);
  EXPECT_EQ(want.edges, got.edges);
}

void SweepDataset(const Dataset& dataset, const std::string& dataset_name) {
  for (const bool evidence_cache : {true, false}) {
    for (const bool constraints : {true, false}) {
      for (const bool budget : {false, true}) {
        for (const bool enrichment : {true, false}) {
          ReconcilerOptions options = ReconcilerOptions::DepGraph();
          options.evidence_cache = evidence_cache;
          options.constraints = constraints;
          options.enrichment = enrichment;
          if (budget) {
            // Deterministic limits only (merge + iteration budgets probe at
            // fixed commit boundaries); a deadline would make the stop
            // point depend on wall time. Small enough to bind on both
            // datasets.
            options.budget.max_merges = 25;
            options.budget.max_solver_iterations = 3000;
          }

          SCOPED_TRACE(dataset_name +
                       " cache=" + std::to_string(evidence_cache) +
                       " constraints=" + std::to_string(constraints) +
                       " budget=" + std::to_string(budget) +
                       " enrichment=" + std::to_string(enrichment));

          // Reference: one thread.
          options.num_threads = 1;
          const ReconcileResult serial = Reconciler(options).Run(dataset);
          const Fingerprint serial_fp = FingerprintOf(serial);

          // Goldens cover enrichment on; with it off the one-thread run is
          // the only reference.
          if (enrichment && RegenMode()) {
            PrintGoldenRow(dataset_name, evidence_cache, constraints, budget,
                           serial_fp);
          } else if (enrichment) {
            const GoldenRow* golden =
                FindGolden(dataset_name, evidence_cache, constraints, budget);
            ASSERT_NE(golden, nullptr) << "no golden row for this config";
            ExpectFingerprint(golden->want, serial_fp);
          }

          if (budget) {
            EXPECT_EQ(serial.stats.num_merges, options.budget.max_merges);
          }

          for (const int threads : {2, 4, 8}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            options.num_threads = threads;
            const ReconcileResult parallel = Reconciler(options).Run(dataset);
            // Byte-identical partitions, merge sequence, and stats —
            // against the one-thread reference AND (transitively, with
            // enrichment on) the golden.
            EXPECT_EQ(serial.cluster, parallel.cluster);
            EXPECT_EQ(serial.merged_pairs, parallel.merged_pairs);
            ExpectFingerprint(serial_fp, FingerprintOf(parallel));
            EXPECT_EQ(serial.stats.num_candidates,
                      parallel.stats.num_candidates);
            EXPECT_EQ(serial.stats.num_live_nodes,
                      parallel.stats.num_live_nodes);
            EXPECT_EQ(serial.stats.num_inedge_scans,
                      parallel.stats.num_inedge_scans);
            EXPECT_EQ(serial.stats.num_inedge_scans_avoided,
                      parallel.stats.num_inedge_scans_avoided);
            EXPECT_EQ(serial.stats.num_cache_rebuilds,
                      parallel.stats.num_cache_rebuilds);
            EXPECT_EQ(serial.stats.num_delta_pushes,
                      parallel.stats.num_delta_pushes);
            EXPECT_EQ(serial.stats.stop_reason, parallel.stats.stop_reason);
          }
        }
      }
    }
  }
}

TEST(GraphCsrTest, PimGoldenSweep) { SweepDataset(SmallPim(), "PIM-A"); }

TEST(GraphCsrTest, CoraGoldenSweep) { SweepDataset(SmallCora(), "Cora"); }

}  // namespace
}  // namespace recon
