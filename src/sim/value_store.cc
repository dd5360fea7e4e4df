#include "sim/value_store.h"

#include "sim/comparators.h"
#include "sim/evidence.h"
#include "strsim/phonetic.h"
#include "util/string_util.h"

namespace recon {

namespace {

int64_t StringBytes(const std::string& s) {
  return static_cast<int64_t>(sizeof(std::string) + s.capacity());
}

int64_t StringVectorBytes(const std::vector<std::string>& v) {
  int64_t bytes = static_cast<int64_t>(v.capacity() * sizeof(std::string));
  for (const auto& s : v) bytes += static_cast<int64_t>(s.capacity());
  return bytes;
}

}  // namespace

int64_t ValueFeatures::ApproximateBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(ValueFeatures));
  bytes += StringBytes(lower) + StringBytes(soundex);
  bytes += StringBytes(ngrams.padded) +
           static_cast<int64_t>(ngrams.grams.capacity() *
                                sizeof(std::pair<uint64_t, uint32_t>));
  bytes += static_cast<int64_t>(name.given.capacity() * sizeof(strsim::GivenName));
  for (const auto& g : name.given) bytes += static_cast<int64_t>(g.text.capacity());
  bytes += StringBytes(name.last);
  bytes += StringBytes(email.account) + StringBytes(email.server);
  bytes += StringBytes(title.normalized) + StringVectorBytes(title.tokens);
  bytes += static_cast<int64_t>(tfidf.entries.capacity() *
                                sizeof(std::pair<int, double>));
  bytes += StringBytes(venue.lower) + StringBytes(venue.content) +
           StringBytes(venue.acronym) + StringVectorBytes(venue.tokens) +
           StringVectorBytes(venue.raw_content) +
           StringVectorBytes(venue.expanded);
  bytes += StringBytes(year.trimmed);
  bytes += StringBytes(pages.trimmed);
  bytes += StringBytes(location.lower) + StringVectorBytes(location.tokens);
  return bytes;
}

ValueFeatures AnalyzeValue(const std::string& raw, FeatureKind kind) {
  ValueFeatures f;
  f.kind = kind;
  f.lower = ToLower(raw);
  f.ngrams = strsim::BuildNgramSet(raw, 3);
  switch (kind) {
    case FeatureKind::kPersonName:
      f.name = strsim::ParsePersonName(raw);
      f.soundex =
          strsim::Soundex(f.name.last.empty() ? f.lower : f.name.last);
      return f;
    case FeatureKind::kEmail:
      f.email = strsim::ParseEmail(raw);
      break;
    case FeatureKind::kTitle:
      f.title = strsim::AnalyzeTitle(raw);
      // Prefilter signatures (DESIGN.md §16): trigrams over the SAME
      // normalized form the edit half of TitleSimilarity compares, and
      // the distinct tokens its Jaccard half compares. The gram set is
      // only needed for its hashes, so it is not retained.
      f.title_gram_sig = strsim::GramSignature(
          strsim::BuildNgramSet(f.title.normalized, 3));
      f.title_token_sig = strsim::TokenSignature(f.title.tokens);
      f.title_norm_len = static_cast<uint32_t>(f.title.normalized.size());
      break;
    case FeatureKind::kVenueName:
      f.venue = strsim::AnalyzeVenueName(raw);
      break;
    case FeatureKind::kYear:
      f.year = strsim::AnalyzeYear(raw);
      break;
    case FeatureKind::kPages:
      f.pages = strsim::AnalyzePages(raw);
      break;
    case FeatureKind::kLocation:
      f.location = strsim::AnalyzeLocation(raw);
      break;
    case FeatureKind::kGeneric:
      break;
  }
  f.soundex = strsim::Soundex(f.lower);
  return f;
}

void ValueStore::Sync(const ValuePool& pool) {
  const size_t target = static_cast<size_t>(pool.size());
  if (features_.size() >= target) return;
  features_.reserve(target);
  for (ValueId id = static_cast<ValueId>(features_.size());
       id < static_cast<ValueId>(target); ++id) {
    const FeatureKind kind = schema_.KindOf(pool.DomainOf(id));
    ValueFeatures f = AnalyzeValue(pool.StringOf(id), kind);
    if (kind == FeatureKind::kTitle) {
      // Grow the corpus model first so a title's own tokens always count
      // toward its document frequencies, then vectorize against it.
      title_model_.AddDocument(f.title.tokens);
      f.tfidf = title_model_.Vectorize(f.title.tokens);
      signature_bytes_ +=
          static_cast<int64_t>(2 * sizeof(strsim::BitSig256) +
                               sizeof(f.title_norm_len));
    }
    approximate_bytes_ += f.ApproximateBytes();
    features_.push_back(std::move(f));
  }
}

double FeaturePairSimilarity(int evidence, const ValueFeatures& a,
                             const ValueFeatures& b) {
  switch (evidence) {
    case kEvPersonName:
      return PersonNameFieldSimilarity(a, b);
    case kEvPersonEmail:
      return EmailFieldSimilarity(a, b);
    case kEvPersonNameEmail: {
      // Identify sides by kind so callers need not order the pair.
      const ValueFeatures& name_side =
          (a.kind == FeatureKind::kPersonName) ? a : b;
      const ValueFeatures& email_side =
          (a.kind == FeatureKind::kPersonName) ? b : a;
      return NameEmailFieldSimilarity(name_side, email_side);
    }
    case kEvArticleTitle:
      return TitleFieldSimilarity(a, b);
    case kEvArticleYear:
    case kEvVenueYear:
      return YearFieldSimilarity(a, b);
    case kEvArticlePages:
      return PagesFieldSimilarity(a, b);
    case kEvVenueName:
      return VenueNameFieldSimilarity(a, b);
    case kEvVenueLocation:
      return LocationFieldSimilarity(a, b);
    default:
      return 0.0;
  }
}

double TitleSimilarityUpperBoundFromPops(int gram_pop, int token_pop,
                                         const ValueFeatures& a,
                                         const ValueFeatures& b) {
  // Mirrors TitleSimilarity's structure: either normalized form empty
  // means the exact comparator returns 0.0 outright.
  if (a.title_norm_len == 0 || b.title_norm_len == 0) return 0.0;
  const int la = static_cast<int>(a.title_norm_len);
  const int lb = static_cast<int>(b.title_norm_len);
  const int edit_lb =
      strsim::SigEditDistanceLowerBoundFromPop(gram_pop, la, lb, 3);
  const double edit_ub =
      1.0 - static_cast<double>(edit_lb) /
                static_cast<double>(la > lb ? la : lb);
  const double token_ub = strsim::SigJaccardUpperBoundFromPop(
      token_pop, a.title_token_sig.set_size, b.title_token_sig.set_size);
  return edit_ub > token_ub ? edit_ub : token_ub;
}

double TitleSimilarityUpperBound(const ValueFeatures& a,
                                 const ValueFeatures& b) {
  return TitleSimilarityUpperBoundFromPops(
      strsim::SigSymDiffLowerBound(a.title_gram_sig, b.title_gram_sig),
      strsim::SigSymDiffLowerBound(a.title_token_sig, b.title_token_sig),
      a, b);
}

void SimMemo::set_max_bytes(int64_t max_bytes) {
  max_bytes_ = max_bytes;
  per_shard_cap_ = max_bytes / kNumShards;
  // A cap too small for the smallest table would thrash; serve lookups as
  // a pass-through instead.
  bypass_ = per_shard_cap_ < kMinSlots * kSlotBytes;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const int64_t held = static_cast<int64_t>(shard.slots.size()) * kSlotBytes;
    if (held == 0 || (!bypass_ && held <= per_shard_cap_)) continue;
    std::vector<Slot>().swap(shard.slots);
    shard.size = 0;
    bytes_.fetch_sub(held, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

SimMemo::Slot* SimMemo::MakeRoom(Shard& shard, const MemoKey& key,
                                 uint64_t index_hash) {
  const size_t capacity = shard.slots.size();
  if (capacity == 0) {
    shard.slots.assign(kMinSlots, Slot{});
    bytes_.fetch_add(kMinSlots * kSlotBytes, std::memory_order_relaxed);
  } else if (static_cast<int64_t>(2 * capacity) * kSlotBytes <=
             per_shard_cap_) {
    std::vector<Slot> old(2 * capacity);
    old.swap(shard.slots);
    const size_t mask = shard.slots.size() - 1;
    for (const Slot& s : old) {
      if (s.pair == kEmptyPair) continue;
      const uint64_t hash = MemoKeyHash{}(MemoKey{s.pair, s.evidence});
      size_t i = (hash / kNumShards) & mask;
      while (shard.slots[i].pair != kEmptyPair) i = (i + 1) & mask;
      shard.slots[i] = s;
    }
    bytes_.fetch_add(static_cast<int64_t>(capacity) * kSlotBytes,
                     std::memory_order_relaxed);
  } else {
    // At its share of the bound: clear in place, keeping the allocation.
    std::fill(shard.slots.begin(), shard.slots.end(), Slot{});
    shard.size = 0;
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return shard.Probe(key, index_hash);
}

}  // namespace recon
