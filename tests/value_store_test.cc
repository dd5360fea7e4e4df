// The interned value store + similarity memo (ReconcilerOptions::value_store,
// DESIGN.md §11) must be undetectable in the output: feature-based scoring
// and raw-string scoring produce byte-identical partitions, merged pairs,
// and stats on PIM and Cora data, across thread counts {1, 2, 4, 8},
// constraints on/off, enrichment on/off, and memo byte bounds down to
// bypass. Runs under ThreadSanitizer (ctest label `tsan`) because the memo
// is shared across staging lanes, and under AddressSanitizer (`asan`)
// because eviction and bypass exercise the degradation paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "sim/comparators.h"
#include "sim/value_store.h"

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

/// Distinct raw values of one atomic attribute, in first-seen order,
/// capped so the all-pairs equivalence checks stay fast.
std::vector<std::string> DistinctValues(const Dataset& dataset, int class_id,
                                        int attr, size_t cap = 48) {
  std::vector<std::string> out;
  if (class_id < 0 || attr < 0) return out;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    const Reference& r = dataset.reference(id);
    if (r.class_id() != class_id) continue;
    for (const std::string& raw : r.atomic_values(attr)) {
      if (std::find(out.begin(), out.end(), raw) == out.end()) {
        out.push_back(raw);
        if (out.size() >= cap) return out;
      }
    }
  }
  return out;
}

// ---- Interning and analysis ----------------------------------------------

TEST(ValueStoreTest, SyncAnalyzesEachValueOnceAndCoversThePool) {
  ValuePool pool;
  const ValueDomain names{0, 0};
  const ValueDomain emails{0, 1};
  ValueKindSchema schema;
  schema.kinds.emplace_back(names, FeatureKind::kPersonName);
  schema.kinds.emplace_back(emails, FeatureKind::kEmail);

  const ValueId a = pool.Intern(names, "Alice Smith");
  const ValueId a2 = pool.Intern(names, "Alice Smith");
  const ValueId b = pool.Intern(names, "Bob Jones");
  const ValueId e = pool.Intern(emails, "alice@example.com");
  EXPECT_EQ(a, a2);  // Interning is idempotent per (domain, string).
  EXPECT_NE(a, b);

  ValueStore store(schema);
  store.Sync(pool);
  EXPECT_EQ(store.size(), pool.size());
  EXPECT_EQ(store.num_analyses(), static_cast<int64_t>(pool.size()));
  EXPECT_TRUE(store.Covers(a));
  EXPECT_TRUE(store.Covers(e));
  EXPECT_FALSE(store.Covers(kInvalidValue));

  const ValueFeatures& fa = store.features(a);
  EXPECT_EQ(fa.kind, FeatureKind::kPersonName);
  EXPECT_EQ(fa.lower, "alice smith");
  EXPECT_EQ(fa.name.last, "smith");
  const ValueFeatures& fe = store.features(e);
  EXPECT_EQ(fe.kind, FeatureKind::kEmail);
  EXPECT_EQ(fe.email.account, "alice");
  EXPECT_EQ(fe.email.server, "example.com");
  EXPECT_GT(store.approximate_bytes(), 0);

  // A second Sync over an extended pool analyzes only the new values.
  const ValueId c = pool.Intern(names, "Carol Mint");
  store.Sync(pool);
  EXPECT_EQ(store.num_analyses(), static_cast<int64_t>(pool.size()));
  EXPECT_EQ(store.features(c).name.last, "mint");
  // Previously analyzed features are untouched by the extension.
  EXPECT_EQ(store.features(a).lower, "alice smith");
}

TEST(ValueStoreTest, UnregisteredDomainsGetGenericFeatures) {
  ValueKindSchema schema;
  EXPECT_EQ(schema.KindOf(ValueDomain{3, 7}), FeatureKind::kGeneric);
  const ValueFeatures f = AnalyzeValue("Some Raw TEXT", FeatureKind::kGeneric);
  EXPECT_EQ(f.lower, "some raw text");
  EXPECT_GT(f.ngrams.size(), 0);
  EXPECT_FALSE(f.soundex.empty());
}

// ---- Feature / raw comparator equivalence --------------------------------

/// Every comparator must score a pair of precomputed features exactly as it
/// scores the raw strings — the bit-level contract behind the byte-identical
/// output guarantee.
void ExpectComparatorEquivalence(const Dataset& dataset,
                                 const std::string& label) {
  SCOPED_TRACE(label);
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());

  auto check = [&](int class_id, int attr, FeatureKind kind, auto raw_fn,
                   auto feature_fn) {
    const std::vector<std::string> values =
        DistinctValues(dataset, class_id, attr);
    std::vector<ValueFeatures> features;
    features.reserve(values.size());
    for (const std::string& v : values) {
      features.push_back(AnalyzeValue(v, kind));
    }
    for (size_t i = 0; i < values.size(); ++i) {
      for (size_t j = i; j < values.size(); ++j) {
        const double raw = raw_fn(values[i], values[j]);
        const double feat = feature_fn(features[i], features[j]);
        ASSERT_EQ(raw, feat)
            << "\"" << values[i] << "\" vs \"" << values[j] << "\"";
      }
    }
  };

  check(binding.person, binding.person_name, FeatureKind::kPersonName,
        [](const std::string& a, const std::string& b) {
          return PersonNameFieldSimilarity(a, b);
        },
        [](const ValueFeatures& a, const ValueFeatures& b) {
          return PersonNameFieldSimilarity(a, b);
        });
  check(binding.person, binding.person_email, FeatureKind::kEmail,
        [](const std::string& a, const std::string& b) {
          return EmailFieldSimilarity(a, b);
        },
        [](const ValueFeatures& a, const ValueFeatures& b) {
          return EmailFieldSimilarity(a, b);
        });
  check(binding.article, binding.article_title, FeatureKind::kTitle,
        [](const std::string& a, const std::string& b) {
          return TitleFieldSimilarity(a, b);
        },
        [](const ValueFeatures& a, const ValueFeatures& b) {
          return TitleFieldSimilarity(a, b);
        });
  check(binding.article, binding.article_year, FeatureKind::kYear,
        [](const std::string& a, const std::string& b) {
          return YearFieldSimilarity(a, b);
        },
        [](const ValueFeatures& a, const ValueFeatures& b) {
          return YearFieldSimilarity(a, b);
        });
  check(binding.article, binding.article_pages, FeatureKind::kPages,
        [](const std::string& a, const std::string& b) {
          return PagesFieldSimilarity(a, b);
        },
        [](const ValueFeatures& a, const ValueFeatures& b) {
          return PagesFieldSimilarity(a, b);
        });
  check(binding.venue, binding.venue_name, FeatureKind::kVenueName,
        [](const std::string& a, const std::string& b) {
          return VenueNameFieldSimilarity(a, b);
        },
        [](const ValueFeatures& a, const ValueFeatures& b) {
          return VenueNameFieldSimilarity(a, b);
        });
  check(binding.venue, binding.venue_location, FeatureKind::kLocation,
        [](const std::string& a, const std::string& b) {
          return LocationFieldSimilarity(a, b);
        },
        [](const ValueFeatures& a, const ValueFeatures& b) {
          return LocationFieldSimilarity(a, b);
        });

  // Cross-attribute: person name against email, both argument orders of the
  // kind-dispatching feature form.
  const std::vector<std::string> names =
      DistinctValues(dataset, binding.person, binding.person_name, 24);
  const std::vector<std::string> emails =
      DistinctValues(dataset, binding.person, binding.person_email, 24);
  for (const std::string& n : names) {
    const ValueFeatures fn = AnalyzeValue(n, FeatureKind::kPersonName);
    for (const std::string& e : emails) {
      const ValueFeatures fe = AnalyzeValue(e, FeatureKind::kEmail);
      const double raw = NameEmailFieldSimilarity(n, e);
      ASSERT_EQ(raw, NameEmailFieldSimilarity(fn, fe)) << n << " vs " << e;
      ASSERT_EQ(raw, FeaturePairSimilarity(kEvPersonNameEmail, fn, fe));
      ASSERT_EQ(raw, FeaturePairSimilarity(kEvPersonNameEmail, fe, fn));
    }
  }
}

TEST(ValueStoreTest, ComparatorsMatchRawOnPim) {
  ExpectComparatorEquivalence(SmallPim(), "PIM-A");
}

TEST(ValueStoreTest, ComparatorsMatchRawOnCora) {
  ExpectComparatorEquivalence(SmallCora(), "Cora");
}

TEST(ValueStoreTest, NgramSetJaccardMatchesStringNgramSimilarity) {
  const std::vector<std::string> samples = {
      "",     "a",       "ab",        "conference", "Conference",
      "VLDB", "database systems", "data base systems", "sigmod record"};
  for (const std::string& a : samples) {
    for (const std::string& b : samples) {
      const strsim::NgramSet sa = strsim::BuildNgramSet(a, 3);
      const strsim::NgramSet sb = strsim::BuildNgramSet(b, 3);
      EXPECT_EQ(strsim::NgramSimilarity(a, b, 3),
                strsim::NgramSetJaccard(sa, sb))
          << "\"" << a << "\" vs \"" << b << "\"";
    }
  }
}

// ---- End-to-end byte identity --------------------------------------------

/// Runs `base` with the value store off and on and asserts every observable
/// output matches (the store/memo counters are exempt — they exist precisely
/// to differ).
void ExpectStoreInvisible(const Dataset& dataset, ReconcilerOptions base,
                          const std::string& label) {
  SCOPED_TRACE(label);
  base.value_store = false;
  const ReconcileResult off = Reconciler(base).Run(dataset);
  base.value_store = true;
  const ReconcileResult on = Reconciler(base).Run(dataset);

  EXPECT_EQ(off.cluster, on.cluster);
  EXPECT_EQ(off.merged_pairs, on.merged_pairs);
  EXPECT_EQ(off.stats.num_candidates, on.stats.num_candidates);
  EXPECT_EQ(off.stats.num_nodes, on.stats.num_nodes);
  EXPECT_EQ(off.stats.num_live_nodes, on.stats.num_live_nodes);
  EXPECT_EQ(off.stats.num_edges, on.stats.num_edges);
  EXPECT_EQ(off.stats.num_recomputations, on.stats.num_recomputations);
  EXPECT_EQ(off.stats.num_merges, on.stats.num_merges);
  EXPECT_EQ(off.stats.num_folds, on.stats.num_folds);
  // Both paths walk the same cross products.
  EXPECT_EQ(off.stats.num_pair_comparisons, on.stats.num_pair_comparisons);

  for (int c = 0; c < dataset.schema().num_classes(); ++c) {
    const PairMetrics m_off = EvaluateClass(dataset, off.cluster, c);
    const PairMetrics m_on = EvaluateClass(dataset, on.cluster, c);
    EXPECT_EQ(m_off.precision, m_on.precision);
    EXPECT_EQ(m_off.recall, m_on.recall);
    EXPECT_EQ(m_off.f1, m_on.f1);
    EXPECT_EQ(m_off.num_partitions, m_on.num_partitions);
  }
}

TEST(ValueStoreTest, PimSweep) {
  const Dataset dataset = SmallPim();
  for (const int threads : {1, 2, 4, 8}) {
    for (const bool constraints : {true, false}) {
      for (const bool enrichment : {true, false}) {
        ReconcilerOptions options = ReconcilerOptions::DepGraph();
        options.num_threads = threads;
        options.constraints = constraints;
        options.enrichment = enrichment;
        ExpectStoreInvisible(
            dataset, options,
            "PIM-A threads=" + std::to_string(threads) +
                " constraints=" + std::to_string(constraints) +
                " enrichment=" + std::to_string(enrichment));
      }
    }
  }
}

TEST(ValueStoreTest, CoraSweep) {
  const Dataset dataset = SmallCora();
  for (const int threads : {1, 2, 4, 8}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    ExpectStoreInvisible(dataset, options,
                         "Cora threads=" + std::to_string(threads));
  }
}

TEST(ValueStoreTest, EvidenceLevelsMatch) {
  const Dataset dataset = SmallPim();
  for (const EvidenceLevel level :
       {EvidenceLevel::kAttrWise, EvidenceLevel::kNameEmail,
        EvidenceLevel::kArticle, EvidenceLevel::kContact}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.evidence_level = level;
    ExpectStoreInvisible(dataset, options,
                         "level=" + std::to_string(static_cast<int>(level)));
  }
}

TEST(ValueStoreTest, CanopiesMatch) {
  // Canopy key extraction also reads the store; the canopies (and thus the
  // whole run) must be identical either way.
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.use_canopies = true;
  ExpectStoreInvisible(dataset, options, "canopies");
}

// ---- Memo determinism and degradation ------------------------------------

TEST(ValueStoreTest, MemoCountersDeterministicAcrossThreadCounts) {
  const Dataset dataset = SmallPim();
  ReconcileResult first;
  for (const int threads : {1, 2, 4, 8}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    const ReconcileResult result = Reconciler(options).Run(dataset);
    // Compute-under-lock: misses = distinct (evidence, v1, v2) keys, a
    // property of the candidate set, not of the schedule.
    if (threads == 1) {
      first = result;
      EXPECT_GT(first.stats.num_sim_memo_hits, 0);
      EXPECT_GT(first.stats.num_sim_memo_misses, 0);
      EXPECT_EQ(first.stats.num_sim_memo_evictions, 0);
      EXPECT_EQ(first.stats.num_sim_memo_bypasses, 0);
      EXPECT_GT(first.stats.sim_memo_bytes, 0);
      EXPECT_GT(first.stats.value_store_bytes, 0);
      continue;
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(result.stats.num_pair_comparisons,
              first.stats.num_pair_comparisons);
    EXPECT_EQ(result.stats.num_value_analyses,
              first.stats.num_value_analyses);
    EXPECT_EQ(result.stats.num_sim_memo_hits, first.stats.num_sim_memo_hits);
    EXPECT_EQ(result.stats.num_sim_memo_misses,
              first.stats.num_sim_memo_misses);
    EXPECT_EQ(result.stats.sim_memo_bytes, first.stats.sim_memo_bytes);
  }
}

TEST(ValueStoreTest, AnalysesScaleWithDistinctValuesNotPairs) {
  // The point of the store: each distinct value is analyzed once, while
  // pair comparisons scale with the candidate cross products.
  const Dataset dataset = SmallPim();
  const ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const ReconcileResult result = Reconciler(options).Run(dataset);
  EXPECT_GT(result.stats.num_pair_comparisons,
            5 * result.stats.num_value_analyses);
}

TEST(ValueStoreTest, TinyMemoBoundDegradesWithoutChangingOutput) {
  const Dataset dataset = SmallPim();
  for (const int threads : {1, 4}) {
    // Small enough to force shard evictions, large enough to stay active.
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    options.sim_memo_max_bytes = 64 * SimMemo::kSlotBytes * 10;
    ExpectStoreInvisible(dataset, options,
                         "evicting threads=" + std::to_string(threads));
    options.value_store = true;
    const ReconcileResult evicting = Reconciler(options).Run(dataset);
    EXPECT_GT(evicting.stats.num_sim_memo_evictions, 0);
    EXPECT_LE(evicting.stats.sim_memo_bytes, options.sim_memo_max_bytes);

    // Too small for even a handful of entries per shard: bypass.
    options.sim_memo_max_bytes = 64;
    ExpectStoreInvisible(dataset, options,
                         "bypass threads=" + std::to_string(threads));
    options.value_store = true;
    const ReconcileResult bypassing = Reconciler(options).Run(dataset);
    EXPECT_GT(bypassing.stats.num_sim_memo_bypasses, 0);
    EXPECT_EQ(bypassing.stats.num_sim_memo_hits, 0);
    EXPECT_EQ(bypassing.stats.sim_memo_bytes, 0);
  }
}

TEST(ValueStoreTest, SoftMemoryBudgetShrinksMemoNotOutput) {
  // A soft memory budget below the default memo bound caps the memo; the
  // budget estimate itself stays graph-only, so stops (and output) are
  // identical with the store on or off.
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.budget.soft_max_memory_bytes = 256 << 10;
  ExpectStoreInvisible(dataset, options, "soft-budget");
}

TEST(ValueStoreTest, IncrementalBatchesMatch) {
  // Incremental reconciliation interns and syncs per flush; batches must be
  // byte-identical with the store on and off.
  const Dataset dataset = SmallPim();
  std::vector<std::vector<int>> clusters;
  for (const bool store : {false, true}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.value_store = store;
    IncrementalReconciler inc(Dataset(dataset.schema()), options);
    for (RefId id = 0; id < dataset.num_references(); ++id) {
      inc.AddReference(dataset.reference(id), /*gold_entity=*/-1,
                       dataset.provenance(id));
      if (id % 97 == 0) inc.Flush();
    }
    const ReconcileResult result = inc.result();
    if (store) {
      EXPECT_GT(result.stats.num_value_analyses, 0);
      EXPECT_GT(result.stats.num_sim_memo_misses, 0);
    }
    clusters.push_back(result.cluster);
  }
  EXPECT_EQ(clusters[0], clusters[1]);
}

// ---- SimMemo slot table ---------------------------------------------------

/// Deterministic stand-in comparator: a distinct float per key, so a hit
/// that returned another key's entry would show.
double FakeSim(int evidence, ValueId v1, ValueId v2) {
  const int64_t lo = std::min(v1, v2);
  const int64_t hi = std::max(v1, v2);
  return static_cast<double>((lo * 7919 + hi * 104729 + evidence * 31) %
                             100003) /
         100003.0;
}

/// (evidence, v1, v2) for key index k: v1 != v2, and both id orders occur.
struct KeyOf {
  int evidence;
  ValueId v1;
  ValueId v2;
};
KeyOf MakeTestKey(int64_t k) {
  const ValueId a = static_cast<ValueId>(k / 3);
  const ValueId b = a + 1 + static_cast<ValueId>(k % 3);
  return KeyOf{static_cast<int>(k % 5), (k & 1) ? a : b, (k & 1) ? b : a};
}

TEST(SimMemoTest, ConcurrentOverlappingLookupsMissOncePerDistinctKey) {
  SimMemo memo;
  memo.set_max_bytes(int64_t{64} << 20);
  constexpr int kThreads = 4;
  constexpr int64_t kSpan = 20000;
  // Thread t covers [t * kSpan / 2, t * kSpan / 2 + kSpan): neighbours
  // overlap by half, and every thread walks its range twice.
  std::vector<int64_t> hits(kThreads, 0), misses(kThreads, 0),
      lookups(kThreads, 0), wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int64_t begin = t * kSpan / 2;
      for (int pass = 0; pass < 2; ++pass) {
        for (int64_t k = begin; k < begin + kSpan; ++k) {
          const KeyOf key = MakeTestKey(k);
          const float got = memo.LookupOrCompute(
              key.evidence, key.v1, key.v2,
              [&] { return FakeSim(key.evidence, key.v1, key.v2); },
              &hits[t], &misses[t]);
          ++lookups[t];
          if (got != static_cast<float>(
                         FakeSim(key.evidence, key.v1, key.v2))) {
            ++wrong[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  int64_t total_hits = 0, total_misses = 0, total_lookups = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0) << "thread " << t;
    total_hits += hits[t];
    total_misses += misses[t];
    total_lookups += lookups[t];
  }
  const int64_t distinct = (kThreads - 1) * kSpan / 2 + kSpan;
  EXPECT_EQ(total_misses, distinct);
  EXPECT_EQ(total_hits + total_misses, total_lookups);
  EXPECT_EQ(memo.evictions(), 0);
  EXPECT_EQ(memo.bypasses(), 0);
}

TEST(SimMemoTest, GrowsPastOneHundredThousandEntries) {
  SimMemo memo;
  memo.set_max_bytes(int64_t{64} << 20);
  constexpr int64_t kKeys = 150000;
  int64_t hits = 0, misses = 0;
  for (int64_t k = 0; k < kKeys; ++k) {
    const KeyOf key = MakeTestKey(k);
    memo.LookupOrCompute(
        key.evidence, key.v1, key.v2,
        [&] { return FakeSim(key.evidence, key.v1, key.v2); }, &hits,
        &misses);
  }
  EXPECT_EQ(misses, kKeys);
  EXPECT_EQ(hits, 0);
  // Every entry survived the doublings: reading back never recomputes.
  for (int64_t k = 0; k < kKeys; ++k) {
    const KeyOf key = MakeTestKey(k);
    const float got = memo.LookupOrCompute(
        key.evidence, key.v1, key.v2, [] { return -1.0; }, &hits, &misses);
    ASSERT_EQ(got, static_cast<float>(FakeSim(key.evidence, key.v1, key.v2)))
        << "key " << k;
  }
  EXPECT_EQ(hits, kKeys);
  EXPECT_EQ(misses, kKeys);
  EXPECT_EQ(memo.evictions(), 0);
  // Slot arrays at load <= 7/10 hold at least 10/7 slots per entry.
  EXPECT_GE(memo.bytes(), kKeys * SimMemo::kSlotBytes * 10 / 7);
  EXPECT_LE(memo.bytes(), memo.max_bytes());
}

TEST(SimMemoTest, SmallCapEvictsAndNeverExceedsTheBound) {
  SimMemo memo;
  memo.set_max_bytes(64 * SimMemo::kSlotBytes * 32);  // 32 slots a shard.
  int64_t hits = 0, misses = 0;
  for (int64_t k = 0; k < 20000; ++k) {
    const KeyOf key = MakeTestKey(k % 5000);  // Re-requests after clears.
    const float got = memo.LookupOrCompute(
        key.evidence, key.v1, key.v2,
        [&] { return FakeSim(key.evidence, key.v1, key.v2); }, &hits,
        &misses);
    ASSERT_EQ(got, static_cast<float>(FakeSim(key.evidence, key.v1, key.v2)));
    ASSERT_LE(memo.bytes(), memo.max_bytes()) << "after lookup " << k;
  }
  EXPECT_GT(memo.evictions(), 0);
  EXPECT_EQ(memo.bypasses(), 0);
  EXPECT_EQ(hits + misses, 20000);

  // Lowering the bound drops shards that no longer fit.
  memo.set_max_bytes(64 * SimMemo::kSlotBytes * SimMemo::kMinSlots);
  EXPECT_LE(memo.bytes(), memo.max_bytes());
  const KeyOf key = MakeTestKey(1);
  memo.LookupOrCompute(
      key.evidence, key.v1, key.v2,
      [&] { return FakeSim(key.evidence, key.v1, key.v2); }, &hits, &misses);
  EXPECT_LE(memo.bytes(), memo.max_bytes());
}

TEST(SimMemoTest, TinyCapBypasses) {
  for (const int64_t cap : {int64_t{0}, int64_t{64},
                            64 * SimMemo::kSlotBytes * SimMemo::kMinSlots -
                                1}) {
    SimMemo memo;
    memo.set_max_bytes(cap);
    int64_t hits = 0, misses = 0;
    for (int round = 0; round < 2; ++round) {
      for (int64_t k = 0; k < 100; ++k) {
        const KeyOf key = MakeTestKey(k);
        const float got = memo.LookupOrCompute(
            key.evidence, key.v1, key.v2,
            [&] { return FakeSim(key.evidence, key.v1, key.v2); }, &hits,
            &misses);
        ASSERT_EQ(got,
                  static_cast<float>(FakeSim(key.evidence, key.v1, key.v2)));
      }
    }
    EXPECT_EQ(hits, 0) << "cap " << cap;
    EXPECT_EQ(misses, 200) << "cap " << cap;
    EXPECT_EQ(memo.bypasses(), 200) << "cap " << cap;
    EXPECT_EQ(memo.bytes(), 0) << "cap " << cap;
  }
}

}  // namespace
}  // namespace recon
