// Parallel ONLINE race detection: the detector runs inside the parallel
// execution, scaling with cores instead of replaying a serialized trace.
//
// Serial detection is pinned to one core because the DSU backend's suprema
// are shared mutable state — every query may path-compress. The list
// backend (core/om_timestamps.hpp) answers a precedence query with two tag
// compares that mutate nothing, so workers can resolve races concurrently
// as long as no insert relabels tags under them. ParallelOnlineDetector is
// a ParallelExecutionMonitor that does exactly that:
//
//   record   each task appends its accesses to a thread-confined per-task
//            buffer (no synchronization at all on the access fast path);
//   flush    at every structural event (fork/join/halt) — and whenever the
//            buffer hits the flush threshold — the task applies its buffered
//            accesses to the shadow cells, which live in location-striped
//            shards, each guarded by its own mutex;
//   resolve  applying an access runs the same Figure-6 cell routines as
//            serial replay (core/shadow_ops.hpp over IntervalOrder),
//            against the accessing task's interval timestamp.
//
// Clock locks. Forks and joins insert into the shared OmClock lists, so
// they serialise on insert_mu_. An insert that relabels rewrites published
// tags, so the relabel also holds the clock-wide std::shared_mutex
// clock_mu_ exclusively; a flush holds clock_mu_ in shared mode across all
// its striped batches while they compare tags. Flushes of different tasks
// run concurrently with each other and with relabel-free inserts. No
// thread waits for clock_mu_ while holding a stripe lock, so the lock
// levels cannot deadlock.
//
// Soundness (no false positives). Flushing at every structural event keeps
// cell updates dag-consistent: if access a happens-before access b, then a
// was applied before b. Proof sketch: a ≺ b means a's task reached a
// structural event (its fork of, or the halt/join chain towards, b's task)
// after a; the flush at that event applied a, and the executor's
// synchronization for that same event (queue publication, done
// acquire/release) happens-before b's thread continuing — so b's later
// flush finds a already in the cell. Threshold flushes only apply accesses
// EARLIER than required, which preserves the invariant. Concurrent accesses
// may be applied in either order; the race check is symmetric under the
// maxima fold, so a conflicting pair is reported whichever side applies
// second.
//
// Determinism contract. The exact report list is schedule-dependent (three
// pairwise-concurrent writes yield 2 or 3 reports depending on apply
// order), but the SET OF RACING LOCATIONS is schedule-independent: a
// location produces at least one report iff some conflicting concurrent
// pair touches it, and that is a property of the program, not the
// schedule. racing_locations() is therefore the deterministic artifact —
// what the 20× determinism test pins — and race_found() is exact.
//
// Retire caveat (parallel mode only). A retire racing with a concurrent
// access is itself reported, but it may additionally MASK a report between
// that access and earlier history (the cell is erased before the concurrent
// access applies). Serial replay modes are exact; this matches the
// semantics of production free() hooks under true concurrency.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/om_timestamps.hpp"
#include "core/report.hpp"
#include "core/shadow_ops.hpp"
#include "runtime/parallel_executor.hpp"
#include "support/flat_hash_map.hpp"
#include "support/mem_accounting.hpp"

namespace race2d {

struct ParallelOnlineDetectorOptions {
  /// Shadow-cell shards (rounded up to a power of two). More stripes =
  /// fewer lock collisions between workers flushing disjoint locations.
  std::size_t stripes = 256;
  /// Buffered accesses per task before an early flush. Larger = less lock
  /// traffic, longer report latency.
  std::size_t flush_threshold = 256;
  /// Pre-sizes each stripe's shadow map for expected_locations total
  /// distinct locations (0 = default table sizing).
  std::size_t expected_locations = 0;
  ReportPolicy policy = ReportPolicy::kAll;
};

/// The monitor. Attach via ParallelExecutorOptions::monitor, run the
/// program, then read results — result accessors (reports, counts,
/// footprint) are QUIESCENT: valid only after run() returned.
class ParallelOnlineDetector final : public ParallelExecutionMonitor {
 public:
  explicit ParallelOnlineDetector(ParallelOnlineDetectorOptions options = {});
  ~ParallelOnlineDetector() override;

  ParallelOnlineDetector(const ParallelOnlineDetector&) = delete;
  ParallelOnlineDetector& operator=(const ParallelOnlineDetector&) = delete;

  // ParallelExecutionMonitor (see parallel_executor.hpp for the
  // happens-before contract each hook rides on).
  void on_root(TaskId root) override;
  void on_fork(TaskId parent, TaskId child) override;
  void on_join(TaskId joiner, TaskId joined) override;
  void on_halt(TaskId t) override;
  void on_read(TaskId t, Loc loc) override;
  void on_write(TaskId t, Loc loc) override;
  void on_retire(TaskId t, Loc loc) override;

  /// All reports, sorted (loc, task, kinds, stripe ordinal) for stable
  /// presentation. The list is schedule-dependent; the loc set is not.
  /// Under ReportPolicy::kFirstOnly at most one report is returned.
  std::vector<RaceReport> reports() const;

  /// Sorted distinct locations with at least one report — the
  /// schedule-INDEPENDENT detection artifact (see header note).
  std::vector<Loc> racing_locations() const;

  bool race_found() const;
  std::size_t task_count() const { return task_count_; }
  std::size_t access_count() const;       ///< accesses applied to cells
  std::size_t tracked_locations() const;  ///< live cells across stripes
  MemoryFootprint footprint() const;

 private:
  struct TaskState;
  struct Chunk;
  struct Stripe;

  TaskState& state_for(TaskId id) const;
  TaskState& create_state(TaskId id);
  void record(TaskId t, Loc loc, AccessKind kind);
  void flush(TaskId t, TaskState& s);
  void apply(Stripe& stripe, Loc loc, AccessKind kind, const OmInterval* v,
             TaskId t);
  std::size_t stripe_of(Loc loc) const;

  // Task table: fixed directory of lazily allocated chunks, so a task's
  // state has a stable address and state_for() never touches a growing
  // container. Directory slots are written under tasks_mu_ and read without
  // it — safe because a slot is only read for a task id that was published
  // (fork hook → enqueue → run) after the slot was written.
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 12;

  ParallelOnlineDetectorOptions options_;
  OmClock clock_;
  std::mutex insert_mu_;  ///< serialises clock inserts (fork/join/root)
  /// Exclusive: relabels (taken inside clock inserts). Shared: flushes.
  std::shared_mutex clock_mu_;
  Chunk* chunks_[kMaxChunks] = {};
  std::mutex tasks_mu_;  ///< guards chunk allocation + task_count_
  std::size_t task_count_ = 0;
  std::size_t stripe_mask_ = 0;
  std::unique_ptr<Stripe[]> stripes_;
};

/// One-call convenience mirroring run_with_detection(): run `program` on a
/// `workers`-thread pool with the parallel online detector attached.
struct ParallelDetectionResult {
  std::vector<RaceReport> reports;      ///< schedule-dependent (sorted)
  std::vector<Loc> racing_locations;    ///< schedule-independent
  std::size_t task_count = 0;
  std::size_t access_count = 0;
  std::size_t tracked_locations = 0;
  MemoryFootprint footprint;

  bool race_free() const { return racing_locations.empty(); }
};

ParallelDetectionResult run_with_parallel_detection(
    TaskBody program, unsigned workers,
    ParallelOnlineDetectorOptions options = {});

}  // namespace race2d
