// Shared plumbing of the end-to-end benchmark: run arguments, clocks,
// order statistics, process resource readings, cluster digests, and the
// result record every workload fills in.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "model/dataset.h"
#include "util/json.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Directory the serve workload may write its data dir into.
  std::string scratch_dir = ".";
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// Process CPU seconds (user + system, every thread) so far.
double ProcessCpuSeconds();
/// CPU seconds the calling thread has used so far.
double ThreadCpuSeconds();
/// CPU seconds the hypervisor has taken from this machine's CPUs since boot
/// (steal time, all CPUs); 0 where the kernel does not report it.
double StealSeconds();
/// Resident set size of this process now, in MiB.
double ResidentMb();
/// Peak resident set size of this process, in MiB.
double PeakRssMb();
/// Largest peak resident set size of any waited-for child process, in MiB.
double ChildPeakRssMb();

/// A forked child process that computes one value (see Spawn).
struct Child {
  pid_t pid = -1;
  int fd = -1;  ///< Read end of the pipe the child writes its value to.
};

/// Runs `fn` in a forked child process, which passes its result back
/// through a pipe, so every sample starts from the parent's memory state
/// instead of inheriting the heap left behind by the previous sample — the
/// state a fresh command-line process sees. The caller must be
/// single-threaded. Collect() waits for the child and returns its value.
template <typename T>
Child Spawn(const std::function<T()>& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) return {};
  std::cout.flush();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const T value = fn();
    const bool ok = write(fds[1], &value, sizeof value) ==
                    static_cast<ssize_t>(sizeof value);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return {};
  }
  return {pid, fds[0]};
}

/// Waits for `child`; nullopt when it did not deliver a result.
template <typename T>
std::optional<T> Collect(const Child& child) {
  if (child.pid < 0) return std::nullopt;
  T value{};
  size_t got = 0;
  while (got < sizeof value) {
    const ssize_t n = read(child.fd, reinterpret_cast<char*>(&value) + got,
                           sizeof value - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(child.fd);
  int status = 0;
  if (waitpid(child.pid, &status, 0) != child.pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got != sizeof value) {
    return std::nullopt;
  }
  return value;
}

/// Spawn + Collect: runs `fn` in a child process and waits for its value.
template <typename T>
std::optional<T> InChild(const std::function<T()>& fn) {
  return Collect<T>(Spawn<T>(fn));
}

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// `values` as a JSON array, for the info line.
recon::json::Value JsonArray(const std::vector<double>& values);

/// A tail percentile reported with its support: the highest percentile
/// (from a fixed ladder) that still has at least ten samples beyond it.
struct Tail {
  double percentile = 0;  ///< e.g. 95 for p95; 0 when too few samples.
  double value = 0;
  int64_t samples = 0;    ///< Total samples the percentile was taken over.
};
Tail TailOf(std::vector<double> values);

/// FNV-1a over a cluster vector: equal digests mean equal partitions with
/// equal representatives (cluster ids are canonical smallest members).
uint64_t ClusterDigest(const std::vector<int>& clusters);

/// Pairwise quality pooled over every class (and dataset) a workload
/// reconciles: gold same-entity pairs, co-clustered pairs, and the
/// co-clustered pairs that are correct (eval/metrics EvaluateClass).
struct PairTally {
  int64_t true_pairs = 0;
  int64_t predicted_pairs = 0;
  int64_t correct_pairs = 0;

  void Add(const recon::Dataset& dataset, const std::vector<int>& clusters);
  void Add(const PairTally& other);
  double F1() const;
};

/// What one workload run produced. `metrics` holds name -> {value, unit}
/// and is printed as the last line of output.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  recon::json::Value metrics = recon::json::Value::Object();
  /// Diagnostics printed on their own line (not part of the result line).
  recon::json::Value info = recon::json::Value::Object();

  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records one correctness check: counts it as attempted, and as failed
  /// (with `what` on stderr) when `ok` is false.
  void Check(bool ok, const std::string& what);
};

/// The machine and build the numbers came from: nproc, CPU model, SIMD
/// dispatch level, build type, threads, seed.
recon::json::Value MachineContext(const Args& args, int num_threads);

Result RunBatch(const Args& args);
Result RunServe(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
