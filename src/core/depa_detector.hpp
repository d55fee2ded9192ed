// Race detection over order-maintenance timestamps (the DePa backend).
//
// DePaDetector is the Figure-6 detector (core/race_detector.hpp) over
// DePaClock: every task's position is its current interval in the two
// OmClock lists instead of a labeled-DSU vertex. Verdicts — and reports,
// bit-for-bit — match OnlineRaceDetector:
//
//   * every prior access ⊑ t   ⟺   sup(prior set) ⊑ t        (DSU world)
//                              ⟺   E-max ⊑_E t ∧ H-max ⊑_H t  (list world)
//
// because "all of S before t" distributes over the two dimensions, a cell's
// reader and writer summaries are the componentwise maxima (IntervalOrder
// in core/shadow_ops.hpp) — still Θ(1) per location, 40 bytes instead of
// the DSU's 24. The owner cache needs no stamp: a task's later intervals
// only move up both lists, and a relabel never reorders nodes.
//
// Cost: Θ(1) per task — a few intervals of two tagged list nodes each —
// and two 64-bit compares per precedence query. Tags move during relabels,
// so queries are only safe where relabels are excluded: serial replay
// trivially, ParallelOnlineDetector (core/parallel_detector.hpp) under its
// clock-wide shared lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/om_timestamps.hpp"
#include "core/race_detector.hpp"
#include "core/shadow_ops.hpp"
#include "support/assert.hpp"
#include "support/ids.hpp"

namespace race2d {

/// The two-list precedence clock: task id -> current interval.
class DePaClock {
 public:
  using Order = IntervalOrder;

  /// Snapshot image: the list ranks of every interval, plus each task's
  /// current interval as an arena allocation index — deterministic across
  /// processes (see OmClock::interval_at).
  struct State : OmClock::State {
    std::vector<std::uint64_t> cur;
  };
  /// A summary's interval pointers as arena indices (kNullInterval = no
  /// prior access of that kind).
  static constexpr std::uint64_t kNullInterval = ~std::uint64_t{0};
  struct SummaryImage {
    std::uint64_t e = kNullInterval;
    std::uint64_t h = kNullInterval;
  };

  TaskId on_root();
  TaskId on_fork(TaskId parent);
  void on_join(TaskId joiner, TaskId joined);
  /// The clock needs no halt action: the task's final interval stays
  /// published and is what a later join reads.
  void on_halt(TaskId t) { R2D_REQUIRE(t < cur_.size(), "unknown task in halt"); }

  const OmInterval* on_access(TaskId t) const {
    R2D_REQUIRE(t < cur_.size(), "unknown task");
    return cur_[t];
  }
  const OmInterval* position(TaskId t) const { return cur_[t]; }
  IntervalOrder order() const { return {}; }

  /// Task x's last-published interval is ordered before task t's current
  /// interval — eq. (6) in list form.
  bool ordered_before(TaskId x, TaskId t) const {
    return OmClock::ordered_before(cur_[x], cur_[t]);
  }
  std::size_t task_count() const { return cur_.size(); }
  /// Clock arena + task table. O(1).
  std::size_t heap_bytes() const {
    return clock_.heap_bytes() + cur_.capacity() * sizeof(OmInterval*);
  }

  State export_state() const;
  /// Rebuilds a fresh clock; indices must be in range.
  void import_state(State&& s);
  SummaryImage export_summary(const IntervalMax& s) const;
  IntervalMax import_summary(const SummaryImage& s);

 private:
  OmInterval* interval(std::uint64_t index);

  OmClock clock_;
  std::vector<OmInterval*> cur_;  ///< task id -> current interval
};

using DePaDetector = RaceDetector<DePaClock>;

}  // namespace race2d
