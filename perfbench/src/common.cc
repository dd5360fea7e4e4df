#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>

#include "eval/metrics.h"
#include "strsim/simd_dispatch.h"

namespace perfbench {

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double StealSeconds() {
  // The aggregate "cpu" line: user nice system idle iowait irq softirq steal.
  std::ifstream in("/proc/stat");
  std::string label;
  int64_t fields[8] = {};
  in >> label;
  for (int64_t& f : fields) in >> f;
  if (!in || label != "cpu") return 0;
  return static_cast<double>(fields[7]) / sysconf(_SC_CLK_TCK);
}

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double ChildPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

recon::json::Value JsonArray(const std::vector<double>& values) {
  recon::json::Value list = recon::json::Value::Array();
  for (const double v : values) list.Append(v);
  return list;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  std::sort(values.begin(), values.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest-rank percentile; it needs >= 10 samples strictly above it.
    const auto rank = static_cast<int64_t>(p / 100.0 * tail.samples);
    if (rank < 1 || tail.samples - rank < 10) continue;
    tail.percentile = p;
    tail.value = values[rank - 1];
    break;
  }
  return tail;
}

uint64_t ClusterDigest(const std::vector<int>& clusters) {
  uint64_t hash = 1469598103934665603ULL;
  for (const int c : clusters) {
    auto v = static_cast<uint32_t>(c);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= v & 0xff;
      hash *= 1099511628211ULL;
      v >>= 8;
    }
  }
  return hash;
}

void PairTally::Add(const recon::Dataset& dataset,
                    const std::vector<int>& clusters) {
  for (int c = 0; c < dataset.schema().num_classes(); ++c) {
    const recon::PairMetrics m = recon::EvaluateClass(dataset, clusters, c);
    Add({m.true_pairs, m.predicted_pairs, m.correct_pairs});
  }
}

void PairTally::Add(const PairTally& other) {
  true_pairs += other.true_pairs;
  predicted_pairs += other.predicted_pairs;
  correct_pairs += other.correct_pairs;
}

double PairTally::F1() const {
  const double precision =
      predicted_pairs > 0 ? static_cast<double>(correct_pairs) / predicted_pairs
                          : 1.0;
  const double recall =
      true_pairs > 0 ? static_cast<double>(correct_pairs) / true_pairs : 1.0;
  return recon::FMeasure(precision, recall);
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  recon::json::Value entry = recon::json::Value::Object();
  entry.Set("value", value);
  entry.Set("unit", unit);
  metrics.Set(name, std::move(entry));
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

recon::json::Value MachineContext(const Args& args, int num_threads) {
  recon::json::Value ctx = recon::json::Value::Object();
  ctx.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  ctx.Set("cpu_model", CpuModel());
  ctx.Set("simd_dispatch",
          recon::strsim::SimdLevelName(recon::strsim::ActiveSimdLevel()));
  ctx.Set("build_type", PERFBENCH_BUILD_TYPE);
  ctx.Set("workload", args.workload);
  ctx.Set("num_threads", num_threads);
  ctx.Set("seed", args.seed);
  ctx.Set("seconds", args.seconds);
  ctx.Set("trace", args.trace);
  return ctx;
}

}  // namespace perfbench
