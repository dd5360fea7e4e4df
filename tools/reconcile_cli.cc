// Command-line reconciler: load a dataset file (see model/text_io.h for
// the format, or produce one with --demo) or import raw sources
// (CSV / BibTeX / mbox), run DepGraph or IndepDec, and print the
// resulting partitions (plus accuracy when gold labels exist).
//
// Usage: see PrintUsage() below (reconcile_cli --help).
//
// Exit codes — each failure family gets its own, so scripts can branch
// without parsing stderr:
//   0  success
//   2  usage error (unknown flag, bad flag value, missing input)
//   3  file I/O failure (input unreadable, --demo output unwritable)
//   4  dataset file parse failure
//   5  CSV import failure
//   6  BibTeX parse failure
//   7  email (mbox) parse failure
// Every failure prints a one-line diagnostic to stderr.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "baseline/fellegi_sunter.h"
#include "baseline/indep_dec.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "extract/csv_import.h"
#include "extract/extractor.h"
#include "model/text_io.h"
#include "shard/sharded_reconciler.h"
#include "strsim/simd_dispatch.h"
#include "util/string_util.h"
#include "util/version.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitFileIo = 3;
constexpr int kExitDatasetParse = 4;
constexpr int kExitCsvImport = 5;
constexpr int kExitBibtexParse = 6;
constexpr int kExitEmailParse = 7;

void PrintUsage(std::ostream& out) {
  out << "usage: reconcile_cli [options] <input file>\n"
         "       reconcile_cli --demo <out file>\n"
         "\n"
         "input:\n"
         "  <input file>            dataset in the text format of "
         "model/text_io.h\n"
         "  --import csv|bibtex|mbox  treat <input file> as raw sources:\n"
         "                          csv    person rows: name,email[,gold]\n"
         "                          bibtex article/venue/author references\n"
         "                          mbox   person references per "
         "participant\n"
         "  --demo <out file>       write a small synthetic PIM dataset and "
         "exit\n"
         "  --scale X               size multiplier for the --demo generator\n"
         "                          (default 0.03; 1 = the paper's PIM "
         "corpus,\n"
         "                          larger values scale past it)\n"
         "\n"
         "algorithm:\n"
         "  --algo depgraph|indepdec|fs   (default depgraph)\n"
         "  --no-constraints        disable constraint enforcement (ablation)\n"
         "  --evidence attr|ne|article|contact   evidence level (ablation)\n"
         "  --canopies              canopy clustering instead of blocking\n"
         "  --no-value-store        score from raw strings instead of the\n"
         "                          interned value store (DESIGN.md §11);\n"
         "                          output is byte-identical either way\n"
         "  --no-simd               force the scalar string kernels and\n"
         "                          disable the signature prefilter\n"
         "                          (DESIGN.md §16); output is\n"
         "                          byte-identical either way. RECON_SIMD\n"
         "                          =scalar|generic|sse42|avx2 also clamps\n"
         "                          the dispatch level\n"
         "  --threads N             worker threads (0 = all hardware "
         "threads);\n"
         "                          output is byte-identical for every N\n"
         "  --shards N              canopy-sharded staging (depgraph only,\n"
         "                          DESIGN.md §14): stage evidence in N\n"
         "                          shards + a boundary pass, then solve\n"
         "                          canonically; byte-identical for every N\n"
         "\n"
         "execution budget (DESIGN.md §10) — on exhaustion the run "
         "never aborts;\n"
         "it degrades to a valid partial result and reports the stop "
         "reason:\n"
         "  --deadline-ms MS        wall-clock deadline for the whole run\n"
         "  --max-solver-iterations N   cap on fixed-point iterations\n"
         "  --max-merges N          cap on merges\n"
         "\n"
         "  --help                  this text\n"
         "  --version               print version and exit\n";
}

int Demo(const std::string& path, double scale) {
  recon::datagen::PimConfig config = recon::datagen::PimConfigA();
  config = recon::datagen::ScaleConfig(config, scale);
  const recon::Dataset data = recon::datagen::GeneratePim(config);
  const recon::Status status = recon::SaveDatasetToFile(data, path);
  if (!status.ok()) {
    std::cerr << "cannot write " << path << ": " << status.ToString()
              << "\n";
    return kExitFileIo;
  }
  std::cout << "Wrote " << data.num_references() << " references to "
            << path << "\n";
  return kExitOk;
}

/// Reads a whole file; false (with a one-line stderr diagnostic) on I/O
/// failure.
bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    std::cerr << "read error on " << path << "\n";
    return false;
  }
  *out = buffer.str();
  return true;
}

/// Imports person rows (name,email[,gold]) from CSV text into a fresh PIM
/// dataset. Returns kExitOk or kExitCsvImport.
int ImportCsvFile(const std::string& text, recon::Dataset* out) {
  using recon::extract::CsvImportSpec;
  const recon::SchemaBinding binding =
      recon::SchemaBinding::Resolve(out->schema());
  CsvImportSpec spec;
  spec.class_id = binding.person;
  spec.column_to_attribute = {binding.person_name, binding.person_email};
  // A third header column carries integer gold labels.
  const auto rows = recon::extract::ParseCsv(text);
  if (!rows.empty() && rows.front().size() >= 3) spec.gold_column = 2;
  const recon::StatusOr<int> added =
      recon::extract::ImportCsv(text, spec, out);
  if (!added.ok()) {
    std::cerr << "csv import failed: " << added.status().ToString() << "\n";
    return kExitCsvImport;
  }
  std::cout << "Imported " << added.value() << " person references from "
            << "CSV.\n";
  return kExitOk;
}

/// Imports every BibTeX entry strictly: any malformed entry fails the run
/// (unlike ParseBibtexFile, which skips them) so corrupt inputs are
/// surfaced instead of silently shrinking the dataset.
int ImportBibtexFile(const std::string& text,
                     recon::extract::Extractor* extractor) {
  size_t pos = 0;
  int entries = 0;
  for (;;) {
    recon::StatusOr<recon::extract::BibtexEntry> entry =
        recon::extract::ParseNextBibtexEntry(text, &pos);
    if (!entry.ok()) {
      if (entry.status().code() == recon::StatusCode::kNotFound) break;
      std::cerr << "bibtex parse failed: " << entry.status().ToString()
                << "\n";
      return kExitBibtexParse;
    }
    extractor->AddBibtexEntry(entry.value());
    ++entries;
  }
  std::cout << "Imported " << entries << " BibTeX entries.\n";
  return kExitOk;
}

/// Imports an mbox strictly: any unparseable message fails the run
/// (unlike ParseMbox, which skips them).
int ImportMboxFile(const std::string& text,
                   recon::extract::Extractor* extractor) {
  std::vector<std::string> chunks;
  std::string current;
  for (const std::string& line : recon::Split(text, '\n')) {
    if (line.starts_with("From ")) {
      if (!current.empty()) chunks.push_back(current);
      current.clear();
      continue;
    }
    current += line;
    current += '\n';
  }
  if (!recon::TrimView(current).empty()) chunks.push_back(current);

  int messages = 0;
  for (const std::string& chunk : chunks) {
    recon::StatusOr<recon::extract::EmailMessage> parsed =
        recon::extract::ParseEmailMessage(chunk);
    if (!parsed.ok()) {
      std::cerr << "email parse failed (message " << (messages + 1)
                << "): " << parsed.status().ToString() << "\n";
      return kExitEmailParse;
    }
    extractor->AddMessage(parsed.value());
    ++messages;
  }
  std::cout << "Imported " << messages << " messages.\n";
  return kExitOk;
}

/// Parses a positive number flag value; false prints the diagnostic.
bool ParsePositive(const char* flag, const char* value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value, &end);
  if (end == value || *end != '\0' || *out <= 0) {
    std::cerr << flag << " needs a positive number, got \"" << value
              << "\"\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recon;

  std::string path;
  std::string algo = "depgraph";
  std::string import_kind;
  std::string demo_path;
  double demo_scale = 0.03;
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return kExitOk;
    }
    if (arg == "--version") {
      std::cout << recon::ReconBuildInfo() << "\n";
      return kExitOk;
    }
    if (arg == "--demo" && i + 1 < argc) {
      demo_path = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      if (!ParsePositive("--scale", argv[++i], &demo_scale)) {
        return kExitUsage;
      }
    } else if (arg == "--shards" && i + 1 < argc) {
      char* end = nullptr;
      options.num_shards = static_cast<int>(std::strtol(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0' || options.num_shards < 1) {
        std::cerr << "--shards needs a count >= 1, got \"" << argv[i]
                  << "\"\n";
        return kExitUsage;
      }
    } else if (arg == "--algo" && i + 1 < argc) {
      algo = argv[++i];
    } else if (arg == "--no-constraints") {
      options.constraints = false;
    } else if (arg == "--canopies") {
      options.use_canopies = true;
    } else if (arg == "--no-value-store") {
      options.value_store = false;
    } else if (arg == "--no-simd") {
      recon::strsim::SetSimdLevel(recon::strsim::SimdLevel::kScalar);
    } else if (arg == "--import" && i + 1 < argc) {
      import_kind = argv[++i];
      if (import_kind != "csv" && import_kind != "bibtex" &&
          import_kind != "mbox") {
        std::cerr << "--import needs csv, bibtex, or mbox, got \""
                  << import_kind << "\"\n";
        return kExitUsage;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      char* end = nullptr;
      options.num_threads = static_cast<int>(std::strtol(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0' || options.num_threads < 0) {
        std::cerr << "--threads needs a count >= 0 (0 = all hardware "
                     "threads), got \"" << argv[i] << "\"\n";
        return kExitUsage;
      }
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!ParsePositive("--deadline-ms", argv[++i],
                         &options.budget.deadline_ms)) {
        return kExitUsage;
      }
    } else if (arg == "--max-solver-iterations" && i + 1 < argc) {
      double value = 0;
      if (!ParsePositive("--max-solver-iterations", argv[++i], &value)) {
        return kExitUsage;
      }
      options.budget.max_solver_iterations = static_cast<int64_t>(value);
    } else if (arg == "--max-merges" && i + 1 < argc) {
      double value = 0;
      if (!ParsePositive("--max-merges", argv[++i], &value)) {
        return kExitUsage;
      }
      options.budget.max_merges = static_cast<int64_t>(value);
    } else if (arg == "--evidence" && i + 1 < argc) {
      const std::string level = argv[++i];
      if (level == "attr") options.evidence_level = EvidenceLevel::kAttrWise;
      else if (level == "ne") options.evidence_level = EvidenceLevel::kNameEmail;
      else if (level == "article") options.evidence_level = EvidenceLevel::kArticle;
      else if (level == "contact") options.evidence_level = EvidenceLevel::kContact;
      else {
        std::cerr << "unknown evidence level " << level << "\n";
        return kExitUsage;
      }
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "unknown flag " << arg << " (see --help)\n";
      return kExitUsage;
    }
  }
  if (!demo_path.empty()) return Demo(demo_path, demo_scale);
  if (path.empty()) {
    PrintUsage(std::cerr);
    return kExitUsage;
  }

  // Placeholder over a finalized schema; every path below replaces it.
  Dataset data(BuildPimSchema());
  if (import_kind.empty()) {
    StatusOr<Dataset> loaded = LoadDatasetFromFile(path);
    if (!loaded.ok()) {
      // The loader distinguishes unreadable files from malformed content.
      std::cerr << "cannot load " << path << ": "
                << loaded.status().ToString() << "\n";
      return loaded.status().code() == StatusCode::kNotFound
                 ? kExitFileIo
                 : kExitDatasetParse;
    }
    data = std::move(loaded).value();
  } else {
    std::string text;
    if (!ReadFile(path, &text)) return kExitFileIo;
    extract::Extractor extractor;
    if (import_kind == "csv") {
      Dataset imported(BuildPimSchema());
      const int rc = ImportCsvFile(text, &imported);
      if (rc != kExitOk) return rc;
      data = std::move(imported);
    } else {
      const int rc = import_kind == "bibtex"
                         ? ImportBibtexFile(text, &extractor)
                         : ImportMboxFile(text, &extractor);
      if (rc != kExitOk) return rc;
      data = extractor.TakeDataset();
    }
  }
  std::cout << "Loaded " << data.num_references() << " references, "
            << data.schema().num_classes() << " classes.\n";

  ReconcileResult result;
  if (algo == "indepdec") {
    const IndepDec reconciler(options);
    result = reconciler.Run(data);
  } else if (algo == "depgraph") {
    if (options.num_shards > 1) {
      result = shard::ShardedReconcile(data, options);
    } else {
      const Reconciler reconciler(options);
      result = reconciler.Run(data);
    }
  } else if (algo == "fs") {
    FellegiSunterOptions fs_options;
    fs_options.blocking = options;
    const FellegiSunter reconciler(fs_options);
    result = reconciler.Run(data);
  } else {
    std::cerr << "unknown algorithm " << algo << "\n";
    return kExitUsage;
  }

  for (int c = 0; c < data.schema().num_classes(); ++c) {
    const int refs = static_cast<int>(data.ReferencesOfClass(c).size());
    if (refs == 0) continue;
    std::cout << data.schema().class_def(c).name << ": " << refs
              << " references -> " << result.NumPartitionsOfClass(data, c)
              << " partitions";
    if (data.NumEntitiesOfClass(c) > 0) {
      const PairMetrics m =
          EvaluateClass(data, result.cluster, c, options.num_threads);
      std::cout << "  (gold: " << m.num_entities << " entities, P="
                << m.precision << " R=" << m.recall << " F=" << m.f1 << ")";
    }
    std::cout << "\n";
  }
  std::cout << "Graph: " << result.stats.num_nodes << " nodes, "
            << result.stats.num_merges << " merges; build "
            << result.stats.build_seconds << "s solve "
            << result.stats.solve_seconds << "s\n";
  if (result.stats.num_shards > 1) {
    std::cout << "Shards: " << result.stats.num_shards << " shards, "
              << result.stats.num_boundary_pairs << " boundary pairs; "
              << result.stats.num_shard_merges << " shard merges + "
              << result.stats.num_boundary_merges
              << " boundary merges; staging "
              << result.stats.shard_seconds << "s + boundary "
              << result.stats.boundary_seconds << "s\n";
  }
  if (result.stats.graph_bytes > 0) {
    std::cout << "Graph memory: " << result.stats.graph_bytes
              << " B (nodes " << result.stats.graph_node_bytes
              << " B, edges " << result.stats.graph_edge_bytes
              << " B, indices " << result.stats.graph_index_bytes << " B)\n";
  }
  if (algo == "depgraph" && result.stats.num_pair_comparisons > 0) {
    std::cout << "Scoring: " << result.stats.num_pair_comparisons
              << " pair comparisons, " << result.stats.num_value_analyses
              << " value analyses; memo " << result.stats.num_sim_memo_hits
              << " hits / " << result.stats.num_sim_memo_misses
              << " misses (" << result.stats.sim_memo_bytes
              << " B, store " << result.stats.value_store_bytes << " B)\n";
    std::cout << "Kernels: " << result.stats.simd_dispatch << " dispatch";
    if (result.stats.num_prefilter_skips +
            result.stats.num_prefilter_exact > 0) {
      std::cout << "; prefilter skipped " << result.stats.num_prefilter_skips
                << " of "
                << result.stats.num_prefilter_skips +
                       result.stats.num_prefilter_exact
                << " title comparisons (signatures "
                << result.stats.signature_bytes << " B)";
    }
    std::cout << "\n";
  }
  if (algo == "depgraph") {
    std::cout << "Stop: " << StopReasonToString(result.stats.stop_reason)
              << " after " << result.stats.solver_iterations
              << " iterations (" << result.stats.num_budget_probes
              << " budget probes)\n";
  }
  return kExitOk;
}
