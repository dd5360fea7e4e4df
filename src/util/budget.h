// Execution budgets and cooperative cancellation for the reconciliation
// pipeline (DESIGN.md §10).
//
// The fixed point is naturally *anytime*: similarities only rise toward the
// fixed point, so freezing the solve early and still running constraint
// enforcement plus transitive closure yields a valid — merely less
// complete — partition. A Budget bounds a run (wall-clock deadline, solver
// iterations, merges, soft memory estimate) and a CancellationToken lets
// another thread request a stop; both are observed cooperatively at cheap,
// deterministic probe points (candidate batches, canopy centers,
// graph-builder staging chunks, solver round/commit boundaries). On
// exhaustion the pipeline never aborts: it finishes the current
// deterministic unit, freezes the solve, and degrades gracefully,
// reporting a StopReason in ReconcileStats.

#ifndef RECON_UTIL_BUDGET_H_
#define RECON_UTIL_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace recon {

/// Why a reconciliation run stopped. kConverged is the normal fixed-point
/// exit; every other reason marks a degraded (but valid) early stop.
enum class StopReason {
  kConverged = 0,       ///< Queue drained to the fixed point.
  kDeadline,            ///< Wall-clock deadline expired.
  kIterationBudget,     ///< Solver iteration budget (or safety cap) spent.
  kMergeBudget,         ///< Merge budget spent.
  kMemoryBudget,        ///< Soft memory estimate exceeded the budget.
  kCancelled,           ///< CancellationToken fired.
};

/// Short stable name ("converged", "deadline", ...).
const char* StopReasonToString(StopReason reason);

/// The deterministic probe-point families, one per pipeline phase. Fault
/// injection (util/fault_injection.h) addresses probes as (point, index).
enum class ProbePoint {
  kCandidates = 0,  ///< Candidate-generation batch boundaries.
  kCanopy,          ///< Canopy-sweep center boundaries.
  kBuild,           ///< Graph-builder staging chunk boundaries.
  kSolveRound,      ///< Solver drain start (once per Run()).
  kSolveCommit,     ///< Solver commit boundaries (one per queue pop).
};
inline constexpr int kNumProbePoints = 5;

/// Short stable name ("candidates", "canopy", ...).
const char* ProbePointToString(ProbePoint point);

/// Limits for one reconciliation run (one batch Run() or one incremental
/// Flush()). Zero (or negative) means "no limit" for every field; a
/// default-constructed Budget changes nothing except that the solver's
/// convergence safety cap degrades instead of aborting.
struct Budget {
  /// Wall-clock deadline for the whole run, measured from the creation of
  /// the run's BudgetTracker (graph build included).
  double deadline_ms = 0;
  /// Maximum fixed-point iterations (queue pops) per solver Run(). When 0
  /// the solver still applies its convergence safety cap of
  /// 500 * num_nodes + 1000.
  int64_t max_solver_iterations = 0;
  /// Maximum merges per solver Run().
  int64_t max_merges = 0;
  /// Soft cap on the estimated graph memory footprint, checked at build
  /// staging chunks ("soft": the estimate is nodes/edges arithmetic, not an
  /// allocator measurement, and the current chunk always completes).
  int64_t soft_max_memory_bytes = 0;

  bool HasDeadline() const { return deadline_ms > 0; }
  bool HasIterationLimit() const { return max_solver_iterations > 0; }
  bool HasMergeLimit() const { return max_merges > 0; }
  bool HasMemoryLimit() const { return soft_max_memory_bytes > 0; }
  bool Unlimited() const {
    return !HasDeadline() && !HasIterationLimit() && !HasMergeLimit() &&
           !HasMemoryLimit();
  }
};

/// Thread-safe cancellation flag. The party that wants to stop a run keeps
/// a shared_ptr and calls RequestCancel() from any thread; the pipeline
/// polls cancelled() at its probe points. Sticky: once cancelled, always
/// cancelled.
class CancellationToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Test seam: observes every budget probe, in probe order, and may inject
/// a simulated stop. Production runs leave it unset; the deterministic
/// fault-injection harness (util/fault_injection.h, tests only) implements
/// it to fire "budget exhausted" / "cancel" at the Nth probe of a phase.
/// Called only from serial probe sites, never concurrently.
class ProbeHook {
 public:
  virtual ~ProbeHook() = default;
  /// `index` is the 0-based count of prior probes at `point` within this
  /// tracker. Return kConverged to let the run continue, or any other
  /// reason to stop it as if that budget had been exhausted.
  virtual StopReason OnProbe(ProbePoint point, int64_t index) = 0;
};

/// Run-scoped companion of a Budget: owns the deadline epoch, the sticky
/// stop reason, and the probe counters. Created per batch Run() /
/// incremental Flush() and threaded through candidate generation, graph
/// build, and the solver. Probe() and ForceStop() are called from serial
/// pipeline code only; ShouldAbandonParallelWork() and stopped() are safe
/// from any thread.
class BudgetTracker {
 public:
  using Clock = std::chrono::steady_clock;

  explicit BudgetTracker(const Budget& budget,
                         std::shared_ptr<const CancellationToken> cancel =
                             nullptr,
                         std::shared_ptr<ProbeHook> hook = nullptr)
      : budget_(budget),
        cancel_(std::move(cancel)),
        hook_(std::move(hook)),
        start_(Clock::now()) {
    if (budget_.HasDeadline()) {
      deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   budget_.deadline_ms));
    }
  }

  BudgetTracker(const BudgetTracker&) = delete;
  BudgetTracker& operator=(const BudgetTracker&) = delete;

  /// One deterministic probe. Returns true when the run must degrade-stop
  /// (sticky). Cheap when nothing is configured: a counter increment and a
  /// few null checks. The wall clock is read only every
  /// kDeadlineStride-th probe, so probes stay affordable on per-commit
  /// granularity.
  bool Probe(ProbePoint point) {
    const int64_t index = probes_[static_cast<int>(point)]++;
    ++num_probes_;
    if (stopped()) return true;
    if (hook_ != nullptr) {
      const StopReason injected = hook_->OnProbe(point, index);
      if (injected != StopReason::kConverged) {
        ForceStop(injected);
        return true;
      }
    }
    if (cancel_ != nullptr && cancel_->cancelled()) {
      ForceStop(StopReason::kCancelled);
      return true;
    }
    if (budget_.HasMemoryLimit() &&
        memory_estimate_.load(std::memory_order_relaxed) >
            budget_.soft_max_memory_bytes) {
      ForceStop(StopReason::kMemoryBudget);
      return true;
    }
    if (budget_.HasDeadline() && num_probes_ % kDeadlineStride == 1 &&
        Clock::now() >= deadline_) {
      ForceStop(StopReason::kDeadline);
      return true;
    }
    return false;
  }

  /// Marks the run stopped for `reason`. The first reason wins; later
  /// calls are no-ops. Serial pipeline code only.
  void ForceStop(StopReason reason) {
    if (reason == StopReason::kConverged) return;
    StopReason expected = StopReason::kConverged;
    stop_reason_.compare_exchange_strong(expected, reason,
                                         std::memory_order_acq_rel);
  }

  /// True once any budget fired or cancellation was requested and seen.
  bool stopped() const {
    return stop_reason_.load(std::memory_order_acquire) !=
           StopReason::kConverged;
  }

  /// kConverged while the run is live or finished normally; the degraded
  /// reason otherwise.
  StopReason stop_reason() const {
    return stop_reason_.load(std::memory_order_acquire);
  }

  /// Read-only check for code running on pool threads (candidate and
  /// staging blocks): whether in-flight speculative work has become
  /// pointless. Never mutates probe counters or the stop reason — the
  /// owning serial code re-checks at its next probe, so abandoning here
  /// affects wall time only, never output.
  bool ShouldAbandonParallelWork() const {
    if (stopped()) return true;
    if (cancel_ != nullptr && cancel_->cancelled()) return true;
    if (budget_.HasDeadline() && Clock::now() >= deadline_) return true;
    return false;
  }

  /// Serial follow-up to a true ShouldAbandonParallelWork(): records the
  /// stop reason (cancellation wins over deadline) so the pipeline freezes
  /// deterministically after the parallel phase. No-op when neither holds
  /// or a reason is already set.
  void ResolveAsyncStop() {
    if (stopped()) return;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      ForceStop(StopReason::kCancelled);
      return;
    }
    if (budget_.HasDeadline() && Clock::now() >= deadline_) {
      ForceStop(StopReason::kDeadline);
    }
  }

  /// Updates the soft memory estimate (bytes); compared against the budget
  /// at the next probe. Relaxed: the estimate is advisory.
  void ReportMemoryEstimate(int64_t bytes) {
    memory_estimate_.store(bytes, std::memory_order_relaxed);
  }

  const Budget& budget() const { return budget_; }
  /// Total probes across all points.
  int64_t num_probes() const { return num_probes_; }
  /// Probes at one point.
  int64_t probes_at(ProbePoint point) const {
    return probes_[static_cast<int>(point)];
  }
  /// Milliseconds since the tracker (= run) started.
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  /// Wall-clock reads are amortized over this many probes. The stride is a
  /// probe-count property, so *which* probes read the clock is
  /// deterministic; when the read happens in wall time of course is not.
  static constexpr int64_t kDeadlineStride = 16;

  const Budget budget_;
  const std::shared_ptr<const CancellationToken> cancel_;
  const std::shared_ptr<ProbeHook> hook_;
  const Clock::time_point start_;
  Clock::time_point deadline_{};
  std::atomic<StopReason> stop_reason_{StopReason::kConverged};
  std::atomic<int64_t> memory_estimate_{0};
  int64_t num_probes_ = 0;
  int64_t probes_[kNumProbePoints] = {};
};

}  // namespace recon

#endif  // RECON_UTIL_BUDGET_H_
