// serve_mixed: a durable ReconService under open-loop mixed traffic.
//
// PIM A at a quarter of the paper's scale is generated; its tail is held out
// and re-ingested live. Two generator threads drive the service in-process
// through ServiceHandler::Handle, each on a fixed schedule (open loop):
//   queries  kQueryRate /reconcile batches/s of kQueriesPerBatch queries;
//   ingest   kIngestRate /ingest batches/s of kIngestBatch refs, flush=true.
// Every request is timed from its scheduled send, so a stall also charges
// the requests queued behind it. The service is durable: every-flush fsync,
// a checkpoint every kCheckpointEvery generations, data dir under --scratch.
// After the stream the WAL is sealed, the service closed and reopened from
// the data dir to time recovery.
//
// Traced (--trace 1) adds, outside the stream: the query path split into
// ParseQueryBatch / Snapshot::Query / RenderReconcileBody on the final
// snapshot, and a shadow replay of the same ingest batches through
// WriteAheadLog + IncrementalReconciler + BuildSnapshot + WriteCheckpointFile
// in ReconService::Ingest's order, timing each call.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/incremental.h"
#include "core/schema_binding.h"
#include "datagen/pim_generator.h"
#include "model/text_io.h"
#include "service/checkpoint.h"
#include "service/handlers.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/random.h"

namespace perfbench {

namespace {

using recon::Dataset;
using recon::RefId;
using recon::Reference;
using recon::json::Value;
using recon::service::HttpRequest;
using recon::service::HttpResponse;
using recon::service::ReconService;
using recon::service::ServiceHandler;

constexpr int kSetups = 5;
constexpr double kScale = 0.25;
constexpr double kQueryRate = 200;
constexpr int kQueriesPerBatch = 10;
constexpr int kDistinctQueryBatches = 300;
constexpr double kIngestRate = 2.5;
constexpr int kIngestBatch = 8;
constexpr int kCheckpointEvery = 12;

double Ms(double seconds) { return 1e3 * seconds; }

/// The generated corpus and the split between the initial load and the
/// held-out tail that the stream re-ingests.
struct Corpus {
  Dataset full;
  RefId split = 0;

  /// Reference `id` with associations into the held-out tail dropped, so
  /// every reference is valid whenever it is ingested.
  Reference Truncated(RefId id) const {
    const Reference& src = full.reference(id);
    Reference ref(src.class_id(), src.num_attributes());
    for (int attr = 0; attr < src.num_attributes(); ++attr) {
      for (const std::string& v : src.atomic_values(attr)) {
        ref.AddAtomicValue(attr, v);
      }
      for (const RefId target : src.associations(attr)) {
        if (target < split) ref.AddAssociation(attr, target);
      }
    }
    return ref;
  }

  Dataset Initial() const {
    Dataset initial(full.schema());
    for (RefId id = 0; id < split; ++id) {
      initial.AddReference(Truncated(id), full.gold_entity(id),
                           full.provenance(id));
    }
    return initial;
  }

  /// The /ingest body for references [begin, end), flush=true.
  std::string IngestBody(RefId begin, RefId end) const {
    Value refs = Value::Array();
    for (RefId id = begin; id < end; ++id) {
      const Reference src = Truncated(id);
      const recon::ClassDef& def = full.schema().class_def(src.class_id());
      Value values = Value::Object();
      Value links = Value::Object();
      for (int attr = 0; attr < src.num_attributes(); ++attr) {
        Value list = Value::Array();
        if (def.attributes[attr].kind == recon::AttrKind::kAtomic) {
          for (const std::string& v : src.atomic_values(attr)) list.Append(v);
          if (list.size() > 0) values.Set(def.attributes[attr].name, list);
        } else {
          for (const RefId t : src.associations(attr)) list.Append(t);
          if (list.size() > 0) links.Set(def.attributes[attr].name, list);
        }
      }
      Value doc = Value::Object();
      doc.Set("class", def.name);
      doc.Set("values", std::move(values));
      doc.Set("links", std::move(links));
      doc.Set("gold", full.gold_entity(id));
      refs.Append(std::move(doc));
    }
    Value doc = Value::Object();
    doc.Set("references", std::move(refs));
    doc.Set("flush", true);
    return doc.Dump();
  }

  /// OpenRefine-style query batches over a seeded uniform sample of the
  /// initial references, so every seed sends a representative mix.
  std::vector<std::string> QueryBodies(uint64_t seed) const {
    const recon::SchemaBinding binding =
        recon::SchemaBinding::Resolve(full.schema());
    std::vector<RefId> order(split);
    for (RefId id = 0; id < split; ++id) order[id] = id;
    recon::Random(seed).Shuffle(order);
    std::vector<std::string> bodies;
    Value batch = Value::Object();
    int in_batch = 0;
    for (const RefId id : order) {
      if (static_cast<int>(bodies.size()) == kDistinctQueryBatches) break;
      const Reference& ref = full.reference(id);
      Value query = Value::Object();
      std::string text;
      if (ref.class_id() == binding.person) {
        text = ref.FirstValue(binding.person_name);
        query.Set("type", "Person");
        const std::string& email = ref.FirstValue(binding.person_email);
        if (!email.empty()) {
          Value prop = Value::Object();
          prop.Set("pid", "email");
          prop.Set("v", email);
          Value props = Value::Array();
          props.Append(std::move(prop));
          query.Set("properties", std::move(props));
        }
      } else if (ref.class_id() == binding.article) {
        text = ref.FirstValue(binding.article_title);
        query.Set("type", "Article");
      } else {
        text = ref.FirstValue(binding.venue_name);
        query.Set("type", "Venue");
      }
      if (text.empty()) continue;
      query.Set("query", text);
      batch.Set("q" + std::to_string(in_batch), std::move(query));
      if (++in_batch == kQueriesPerBatch) {
        bodies.push_back(batch.Dump());
        batch = Value::Object();
        in_batch = 0;
      }
    }
    return bodies;
  }
};

HttpRequest Post(const std::string& path, const std::string& body) {
  HttpRequest req;
  req.method = "POST";
  req.path = path;
  req.body = body;
  return req;
}

/// Spins on the clock until `due`. A generator thread that sleeps between
/// sends is woken on whichever CPU the kernel picks, often the other
/// generator's, and preempts the request running there; that made a flush
/// take 1.5x its CPU time in some runs and not in others. Spinning keeps
/// each thread on its own CPU and sends on schedule to within microseconds.
void WaitUntil(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Binds the calling thread to `cpu`; a no-op when `cpu` is negative.
void PinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Relabels a partition so each cluster is named by its first member.
std::vector<int> Canonical(const std::vector<int>& labels) {
  std::vector<std::pair<int, int>> sorted;  // (label, member), ascending.
  for (size_t i = 0; i < labels.size(); ++i) {
    sorted.emplace_back(labels[i], static_cast<int>(i));
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> out(labels.size());
  int rep = -1;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i].first != sorted[i - 1].first) {
      rep = sorted[i].second;
    }
    out[sorted[i].second] = rep;
  }
  return out;
}

std::vector<int> SnapshotPartition(const recon::service::Snapshot& snap) {
  std::vector<int> labels(snap.num_references());
  for (RefId r = 0; r < snap.num_references(); ++r) {
    labels[r] = snap.EntityOfRef(r);
  }
  return Canonical(labels);
}

/// The library-call oracle for one reconcile body on `snap`.
std::string OracleBody(const std::string& body,
                       const std::shared_ptr<const recon::service::Snapshot>&
                           snap) {
  const auto batch = recon::service::ParseQueryBatch(body);
  if (!batch.ok()) return "unparsable: " + batch.status().message();
  recon::service::BatchAnswer answer;
  answer.snapshot = snap;
  for (const auto& [id, query] : batch.value()) {
    answer.results.push_back(snap->Query(query));
  }
  return recon::service::RenderReconcileBody(batch.value(), answer);
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : 0;
}

struct Sample {
  double latency_ms = 0;   ///< Scheduled send -> response.
  double lateness_ms = 0;  ///< Scheduled send -> actual send.
  double service_ms = 0;   ///< Actual send -> response.
  double cpu_ms = 0;       ///< Thread CPU time spent serving it.
  double preempted = 0;    ///< Involuntary context switches while serving.
};

/// Involuntary context switches of the calling thread so far.
int64_t Preemptions() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nivcsw;
}

std::vector<double> Column(const std::vector<Sample>& s, double Sample::*f) {
  std::vector<double> out;
  for (const Sample& x : s) out.push_back(x.*f);
  return out;
}

void SetTail(Result& r, const std::string& prefix, const Tail& tail) {
  Value t = Value::Object();
  t.Set("percentile", tail.percentile);
  t.Set("value_ms", tail.value);
  t.Set("samples", tail.samples);
  r.info.Set(prefix, std::move(t));
}

/// Per-flush layer timings of the shadow replay, in ms.
struct ShadowTimes {
  std::vector<double> wal_append, wal_flush_record, stage, flush, extend,
      solve, closure, snapshot_build, checkpoint, cpu;
  int64_t snapshot_bytes = 0;
  int64_t checkpoint_bytes = 0;
  int64_t wal_bytes = 0;
  std::vector<int> clusters;
};

/// Replays the stream's ingest batches through the layers ReconService::
/// Ingest calls, in its order, on the calling thread.
ShadowTimes ShadowReplay(const Corpus& corpus, int num_batches,
                         const recon::ReconcilerOptions& options,
                         const std::string& dir, Result& r) {
  namespace svc = recon::service;
  ShadowTimes t;
  std::filesystem::create_directories(dir);
  recon::IncrementalReconciler shadow(corpus.Initial(), options);
  // Epoch 0: the service reconciles the initial load on its own when it
  // publishes snapshot 0. Flushing it together with the first batch instead
  // would draw different epoch boundaries and so different clusters.
  shadow.clusters();
  std::vector<int64_t> epoch_refs{shadow.flushed_until()};
  uint64_t generation = 0;
  auto wal = svc::WriteAheadLog::Create(dir, dir + "/" + svc::WalFileName(0),
                                        0, svc::FsyncPolicy::kEveryFlush,
                                        nullptr);
  r.Check(wal.ok(), "shadow WAL create");
  if (!wal.ok()) return t;
  std::unique_ptr<svc::WriteAheadLog> log = std::move(wal).value();

  for (int b = 0; b < num_batches; ++b) {
    const RefId begin = corpus.split + b * kIngestBatch;
    std::vector<Reference> refs;
    std::vector<int> golds;
    for (RefId id = begin; id < begin + kIngestBatch; ++id) {
      refs.push_back(corpus.Truncated(id));
      golds.push_back(corpus.full.gold_entity(id));
    }
    const double cpu = ThreadCpuSeconds();
    Clock::time_point mark = Clock::now();
    auto lap = [&mark] {
      const Clock::time_point now = Clock::now();
      const double ms = Ms(SecondsBetween(mark, now));
      mark = now;
      return ms;
    };
    bool ok = log->AppendBatch(refs, golds).ok();
    t.wal_append.push_back(lap());
    ok = log->AppendFlush(generation + 1).ok() && ok;
    t.wal_flush_record.push_back(lap());
    for (size_t i = 0; i < refs.size(); ++i) {
      shadow.AddReference(std::move(refs[i]), golds[i]);
    }
    t.stage.push_back(lap());
    const double build0 = shadow.stats().build_seconds;
    const double solve0 = shadow.stats().solve_seconds;
    shadow.Flush();
    t.flush.push_back(lap());
    t.extend.push_back(Ms(shadow.stats().build_seconds - build0));
    t.solve.push_back(Ms(shadow.stats().solve_seconds - solve0));
    const std::vector<int>& clusters = shadow.clusters();
    t.closure.push_back(lap());
    ++generation;
    epoch_refs.push_back(shadow.flushed_until());
    const auto snap = svc::BuildSnapshot(shadow.dataset(), clusters, options,
                                         generation);
    t.snapshot_build.push_back(lap());
    t.snapshot_bytes = snap->approximate_bytes();
    if (generation % kCheckpointEvery == 0) {
      svc::CheckpointData data;
      data.generation = generation;
      data.epoch_refs = epoch_refs;
      data.dataset_text = recon::SerializeDataset(shadow.dataset());
      data.clusters.assign(clusters.begin(), clusters.end());
      std::string path;
      ok = svc::WriteCheckpointFile(dir, data, nullptr, &path).ok() && ok;
      t.wal_bytes += log->appended_bytes();
      const std::string old_wal = log->path();
      auto fresh = svc::WriteAheadLog::Create(
          dir, dir + "/" + svc::WalFileName(generation), generation,
          svc::FsyncPolicy::kEveryFlush, nullptr);
      ok = fresh.ok() && ok;
      if (fresh.ok()) log = std::move(fresh).value();
      std::filesystem::remove(old_wal);
      t.checkpoint.push_back(lap());
      t.checkpoint_bytes = FileBytes(path);
    }
    t.cpu.push_back(Ms(ThreadCpuSeconds() - cpu));
    r.Check(ok, "shadow replay I/O at generation " +
                    std::to_string(generation));
  }
  t.wal_bytes += log->appended_bytes();
  t.clusters = Canonical(shadow.clusters());
  return t;
}

}  // namespace

Result RunServe(const Args& args) {
  namespace svc = recon::service;
  Result r;
  svc::ServiceOptions options;
  options.reconciler = recon::ReconcilerOptions::DepGraph();
  options.durability.fsync = svc::FsyncPolicy::kEveryFlush;
  options.durability.checkpoint_every = kCheckpointEvery;
  std::cout << "context "
            << MachineContext(args, options.reconciler.num_threads).Dump()
            << std::endl;

  const int num_ingest = static_cast<int>(kIngestRate * args.seconds);
  const int num_queries = static_cast<int>(kQueryRate * args.seconds);
  const std::string root = args.scratch_dir + "/serve_mixed";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // ---- Set-up: generate + Open a fresh durable service, kSetups times ----
  // The first kSetups - 1 set-ups run in forked children, each from the
  // memory state of a fresh process, so they neither raise this process's
  // peak RSS nor leave it a fragmented heap. The last one opens the service
  // that serves the stream.
  recon::datagen::PimConfig config =
      recon::datagen::ScaleConfig(recon::datagen::PimConfigA(), kScale);
  config.seed += 7919 * args.seed;
  auto set_up = [&](const std::string& dir, std::optional<Corpus>& corpus,
                    double& seconds) {
    options.durability.data_dir = dir;
    const Clock::time_point start = Clock::now();
    corpus.emplace(Corpus{recon::datagen::GeneratePim(config)});
    corpus->split = corpus->full.num_references() - num_ingest * kIngestBatch;
    auto opened = ReconService::Open(corpus->Initial(), options);
    seconds = SecondsSince(start);
    return opened;
  };
  std::vector<double> setup_s;
  for (int s = 0; s + 1 < kSetups; ++s) {
    const std::string dir = root + "/data" + std::to_string(s);
    const auto seconds = InChild<double>([&] {
      std::optional<Corpus> corpus;
      double took = 0;
      return set_up(dir, corpus, took).ok() ? took : -1.0;
    });
    r.Check(seconds && *seconds >= 0,
            "ReconService::Open on a fresh data dir, set-up " +
                std::to_string(s));
    if (seconds && *seconds >= 0) setup_s.push_back(*seconds);
    std::filesystem::remove_all(dir);
  }
  const std::string data_dir = root + "/data";
  std::optional<Corpus> holder;
  double seconds = 0;
  auto opened = set_up(data_dir, holder, seconds);
  setup_s.push_back(seconds);
  r.Check(opened.ok(), "ReconService::Open on a fresh data dir: " +
                           opened.status().message());
  if (!opened.ok()) return r;
  std::unique_ptr<ReconService> service = std::move(opened).value();
  const Corpus& corpus = *holder;
  const std::vector<std::string> query_bodies = corpus.QueryBodies(args.seed);
  std::vector<std::string> ingest_bodies;
  for (int b = 0; b < num_ingest; ++b) {
    const RefId begin = corpus.split + b * kIngestBatch;
    ingest_bodies.push_back(corpus.IngestBody(begin, begin + kIngestBatch));
  }
  std::cout << "serve_mixed: " << corpus.full.num_references()
            << " references, " << corpus.split << " loaded, "
            << num_ingest * kIngestBatch << " to ingest in " << num_ingest
            << " flushes, " << query_bodies.size()
            << " distinct query batches, setup " << Median(setup_s) << " s"
            << std::endl;

  // ---- The open-loop stream ----------------------------------------------
  ServiceHandler handler(service.get());
  std::vector<Sample> queries(num_queries), ingests(num_ingest);
  std::atomic<int64_t> failed_requests{0};
  std::vector<double> resident_mb;  // After each /ingest is answered.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto drive = [&](const std::string& path,
                   const std::vector<std::string>& bodies, double rate,
                   std::vector<Sample>& samples,
                   const std::function<void()>& after_each) {
    for (size_t i = 0; i < samples.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / rate));
      WaitUntil(due);
      const int64_t preempted = Preemptions();
      const double cpu = ThreadCpuSeconds();
      const Clock::time_point sent = Clock::now();
      const HttpResponse res =
          handler.Handle(Post(path, bodies[i % bodies.size()]));
      const Clock::time_point done = Clock::now();
      samples[i] = {Ms(SecondsBetween(due, done)),
                    Ms(SecondsBetween(due, sent)),
                    Ms(SecondsBetween(sent, done)),
                    Ms(ThreadCpuSeconds() - cpu),
                    static_cast<double>(Preemptions() - preempted)};
      if (res.status != 200) failed_requests.fetch_add(1);
      if (after_each) after_each();
    }
  };
  // Each generator thread gets a CPU of its own when there are two.
  const std::vector<int> cpus = AllowedCpus();
  const bool pinned = cpus.size() >= 2;
  std::thread query_thread([&] {
    PinTo(pinned ? cpus[0] : -1);
    drive("/reconcile", query_bodies, kQueryRate, queries, nullptr);
  });
  std::thread ingest_thread([&] {
    PinTo(pinned ? cpus[1] : -1);
    drive("/ingest", ingest_bodies, kIngestRate, ingests,
          [&] { resident_mb.push_back(ResidentMb()); });
  });
  query_thread.join();
  ingest_thread.join();
  const double stream_s = SecondsSince(start);
  // The serving process's peak: one Open plus the stream. Recovery below
  // reopens in this process and is not part of it.
  const double peak_rss_mb = PeakRssMb();

  r.attempted += num_queries + num_ingest;
  r.failed += failed_requests.load();
  if (failed_requests.load() > 0) {
    r.correct = false;
    std::cerr << "perfbench: " << failed_requests.load()
              << " requests were not answered with HTTP 200\n";
  }

  // ---- Correctness after the stream --------------------------------------
  const std::shared_ptr<const svc::Snapshot> final_snap = service->snapshot();
  r.Check(final_snap->num_references() == corpus.full.num_references(),
          "every held-out reference was ingested");
  std::vector<std::string> final_bodies;
  for (const std::string& body : query_bodies) {
    const HttpResponse res = handler.Handle(Post("/reconcile", body));
    r.Check(res.status == 200 && res.body == OracleBody(body, final_snap),
            "final snapshot: handler body equals the library oracle");
    final_bodies.push_back(res.body);
  }
  const std::vector<int> final_partition = SnapshotPartition(*final_snap);
  PairTally pairs;
  pairs.Add(corpus.full, final_partition);
  const double pair_f1 = pairs.F1();
  const svc::DurabilityStats durability = service->durability_stats();
  r.Check(service->Seal().ok(), "Seal()");
  service.reset();

  // ---- Recovery: time Open on the sealed data dir ------------------------
  Clock::time_point mark = Clock::now();
  {
    const auto dir_state = svc::ScanDataDir(data_dir);
    bool ok = dir_state.ok() && !dir_state.value().checkpoint_paths.empty();
    if (ok) {
      ok = svc::ReadCheckpointFile(dir_state.value().checkpoint_paths[0]).ok();
      for (const std::string& wal : dir_state.value().wal_paths) {
        ok = svc::ReadWalFile(wal).ok() && ok;
      }
    }
    r.Check(ok, "data dir reads back after Seal()");
  }
  const double read_ms = Ms(SecondsSince(mark));
  mark = Clock::now();
  auto reopened = ReconService::Open(Dataset(corpus.full.schema()), options);
  const double recover_s = SecondsSince(mark);
  r.Check(reopened.ok(), "ReconService::Open on the sealed data dir: " +
                             reopened.status().message());
  if (reopened.ok()) {
    service = std::move(reopened).value();
    const auto snap = service->snapshot();
    r.Check(SnapshotPartition(*snap) == final_partition,
            "recovered clusters equal the final clusters");
    ServiceHandler recovered(service.get());
    for (size_t i = 0; i < query_bodies.size(); ++i) {
      const HttpResponse res = recovered.Handle(Post("/reconcile",
                                                     query_bodies[i]));
      r.Check(res.status == 200 && res.body == OracleBody(query_bodies[i],
                                                          snap) &&
                  res.body == final_bodies[i],
              "recovered snapshot: handler body equals the oracle and the "
              "pre-restart body");
    }
    service.reset();
  }

  // ---- Diagnostics (every run) -------------------------------------------
  const double query_p50 = Median(Column(queries, &Sample::latency_ms));
  const double ingest_p50 = Median(Column(ingests, &Sample::latency_ms));
  const double query_late = Median(Column(queries, &Sample::lateness_ms));
  const double ingest_late = Median(Column(ingests, &Sample::lateness_ms));
  const double ingest_service_p50 =
      Median(Column(ingests, &Sample::service_ms));
  double ingest_busy_ms = 0;
  for (const Sample& s : ingests) ingest_busy_ms += s.service_ms;
  const Tail query_tail = TailOf(Column(queries, &Sample::latency_ms));
  const Tail ingest_tail = TailOf(Column(ingests, &Sample::latency_ms));
  r.info.Set("gen.query_samples", static_cast<int64_t>(queries.size()));
  r.info.Set("gen.ingest_samples", static_cast<int64_t>(ingests.size()));
  r.info.Set("gen.query_lateness_p50_ms", query_late);
  r.info.Set("gen.ingest_lateness_p50_ms", ingest_late);
  r.info.Set("ingest_visible_p50_ms", ingest_p50);
  r.info.Set("ingest_busy_ratio", ingest_busy_ms / Ms(stream_s));
  r.info.Set("ingest_service_p50_ms", ingest_service_p50);
  r.info.Set("ingest_cpu_p50_ms", Median(Column(ingests, &Sample::cpu_ms)));
  r.info.Set("ingest_preemptions_p50",
             Median(Column(ingests, &Sample::preempted)));
  r.info.Set("query_service_p50_ms",
             Median(Column(queries, &Sample::service_ms)));
  r.info.Set("generators_pinned", pinned);
  r.info.Set("peak_rss_mb", peak_rss_mb);
  r.info.Set("recover_s", recover_s);
  r.info.Set("stream_s", stream_s);
  r.info.Set("checkpoints_written", durability.checkpoints_written);
  SetTail(r, "query_tail", query_tail);
  SetTail(r, "ingest_tail", ingest_tail);
  r.info.Set("setup_s", JsonArray(setup_s));

  if (!args.trace) {
    std::filesystem::remove_all(root);
    r.Metric("setup_s", Median(setup_s), "s");
    r.Metric("refs_per_s", kIngestBatch / (ingest_service_p50 / 1e3), "1/s");
    r.Metric("latency_p50_ms", query_p50, "ms");
    r.Metric("pair_f1", pair_f1, "ratio");
    r.Metric("rss_mb", Median(resident_mb), "MB");
    return r;
  }

  // ---- Traced: query path on the final snapshot --------------------------
  std::vector<double> parse_ms, query_ms, render_ms;
  int64_t scored = 0, answered = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::string& body : query_bodies) {
      mark = Clock::now();
      const auto batch = svc::ParseQueryBatch(body);
      parse_ms.push_back(Ms(SecondsSince(mark)));
      if (!batch.ok()) continue;
      mark = Clock::now();
      svc::BatchAnswer answer;
      answer.snapshot = final_snap;
      for (const auto& [id, query] : batch.value()) {
        answer.results.push_back(final_snap->Query(query));
        scored += answer.results.back().num_scored;
        ++answered;
      }
      query_ms.push_back(Ms(SecondsSince(mark)));
      mark = Clock::now();
      const std::string rendered = RenderReconcileBody(batch.value(), answer);
      render_ms.push_back(Ms(SecondsSince(mark)));
      r.Check(!rendered.empty(), "traced render produced a body");
    }
  }

  // ---- Traced: shadow replay of the ingest path --------------------------
  const ShadowTimes shadow = ShadowReplay(corpus, num_ingest,
                                          options.reconciler,
                                          root + "/shadow", r);
  r.Check(shadow.clusters == final_partition,
          "shadow replay clusters equal the service's");
  std::filesystem::remove_all(root);

  r.Metric("handlers.parse_ms", Median(parse_ms), "ms");
  r.Metric("snapshot.query_ms", Median(query_ms), "ms");
  r.Metric("handlers.render_ms", Median(render_ms), "ms");
  r.Metric("snapshot.scored_per_query",
           answered > 0 ? static_cast<double>(scored) / answered : 0, "count");
  r.Metric("wal.append_ms", Median(shadow.wal_append), "ms");
  r.Metric("wal.flush_record_ms", Median(shadow.wal_flush_record), "ms");
  r.Metric("core.stage_ms", Median(shadow.stage), "ms");
  r.Metric("core.flush_ms", Median(shadow.flush), "ms");
  r.Metric("core.flush_extend_ms", Median(shadow.extend), "ms");
  r.Metric("core.flush_solve_ms", Median(shadow.solve), "ms");
  r.Metric("core.closure_ms", Median(shadow.closure), "ms");
  r.Metric("snapshot.build_ms", Median(shadow.snapshot_build), "ms");
  r.Metric("checkpoint.write_ms", Median(shadow.checkpoint), "ms");
  r.Metric("ingest.cpu_ms_per_flush", Median(shadow.cpu), "ms");
  r.Metric("snapshot.bytes", shadow.snapshot_bytes, "bytes");
  r.Metric("checkpoint.bytes", shadow.checkpoint_bytes, "bytes");
  r.Metric("wal.bytes_per_ref",
           static_cast<double>(shadow.wal_bytes) /
               (num_ingest * kIngestBatch),
           "bytes");
  r.Metric("recover.read_ms", read_ms, "ms");
  r.Metric("recover.replay_ms", Ms(recover_s) - read_ms, "ms");
  r.Metric("serve.recover_s", recover_s, "s");
  r.Metric("serve.ingest_visible_p50_ms", ingest_p50, "ms");
  r.Metric("serve.ingest_busy_ratio", ingest_busy_ms / Ms(stream_s), "ratio");
  r.Metric("gen.query_lateness_p50_ms", query_late, "ms");
  r.Metric("gen.ingest_lateness_p50_ms", ingest_late, "ms");
  r.Metric("gen.query_samples", static_cast<double>(queries.size()), "count");
  r.Metric("gen.ingest_samples", static_cast<double>(ingests.size()), "count");
  r.Metric("query_tail_ms", query_tail.value, "ms");
  r.Metric("query_tail_pct", query_tail.percentile, "%");
  r.Metric("ingest_tail_ms", ingest_tail.value, "ms");
  r.Metric("ingest_tail_pct", ingest_tail.percentile, "%");
  return r;
}

}  // namespace perfbench
