// The §4 online race detector (Figure 6), generic over its precedence clock.
//
// RaceDetector<Clock> consumes the thread-level event stream of a serial
// fork-first execution (§5): fork/join/halt structure events plus
// read/write/retire memory events. It owns the reporter, the access
// ordinal, the shadow map and the Figure-6 skeleton (core/shadow_ops.hpp);
// the Clock supplies only what differs between precedence engines:
//
//   * structure   on_root / on_fork / on_join / on_halt;
//   * positions   on_access(t) — t's position for an access it performs
//                 now — and position(t), the same without side effects;
//   * the order   order(): the summary type with ordered / fold and the
//                 owner-cache stamp (SupremaOrder or IntervalOrder);
//   * snapshots   a clock image plus a portable form of each summary.
//
// Two clocks exist: DsuClock (core/detector.hpp; the paper's labeled DSU,
// OnlineRaceDetector) and DePaClock (core/depa_detector.hpp; two tagged
// order-maintenance lists, DePaDetector). Their report streams are
// bit-identical; the differential panel enforces it on every fuzz run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/report.hpp"
#include "core/shadow_ops.hpp"
#include "support/ids.hpp"
#include "support/mem_accounting.hpp"

namespace race2d {

// runtime/trace.hpp includes core/detector.hpp (for the replay drivers), so
// the event-level entry points only forward-declare the event type.
struct TraceEvent;

template <typename Clock>
class RaceDetector {
 public:
  using Order = typename Clock::Order;
  using Cell = ShadowCellOf<Order>;

  explicit RaceDetector(ReportPolicy policy = ReportPolicy::kAll)
      : reporter_(policy) {}

  /// Registers the root task (task 0, the initial line {root | program}).
  TaskId on_root() { return clock_.on_root(); }

  /// `parent` forks a child; returns the child's dense task id. The child
  /// runs next (serial fork-first execution).
  TaskId on_fork(TaskId parent) { return clock_.on_fork(parent); }

  /// `joiner` joins the halted task `joined`.
  void on_join(TaskId joiner, TaskId joined) { clock_.on_join(joiner, joined); }

  /// `t` halts.
  void on_halt(TaskId t) { clock_.on_halt(t); }

  /// Figure 6 On-Read / On-Write for the current operation of task `t`.
  void on_read(TaskId t, Loc loc);
  void on_write(TaskId t, Loc loc);

  /// Retires `loc`'s shadow state (scope exit / free). Serial execution
  /// recycles addresses of dead storage across logically concurrent tasks;
  /// retiring at end-of-lifetime prevents spurious reports on reuse, exactly
  /// like the free() hooks of production detectors. The retirement itself is
  /// checked like a write (it must be ordered after every prior access —
  /// retiring live racing storage is itself a bug worth one report). It
  /// counts as an access only when the location had a cell.
  void on_retire(TaskId t, Loc loc);

  /// Dispatches one trace event (annotations are ordering no-ops). A fork's
  /// child id must equal the detector's next dense id.
  void on_event(const TraceEvent& e);

  /// True iff task x's current position is ordered before task t's
  /// (eq. 6). Exposed for tests.
  bool ordered_before(TaskId x, TaskId t) { return clock_.ordered_before(x, t); }

  /// Run replay fast path (compressed traces): the template `events[0..len)`
  /// was just fed once per-event; applies `extra_reps` further repetitions
  /// in O(len) TOTAL iff every template event is a read/write whose cell
  /// the actor owns AND whose accessed summary already equals the actor's
  /// current position — then each repetition is a full no-op except the
  /// access ordinal. Returns false untouched otherwise (caller replays
  /// per-event).
  bool try_apply_clean_run(const TraceEvent* events, std::size_t len,
                           std::uint64_t extra_reps);

  /// Pre-sizes the shadow map (replay drivers with a known location count).
  void reserve_locations(std::size_t n) { cells_.reserve(n); }

  const RaceReporter& reporter() const { return reporter_; }
  /// Mutable access for incremental consumers (RaceReporter::take()): a
  /// detection session drains pending reports without stopping the replay.
  RaceReporter& mutable_reporter() { return reporter_; }
  bool race_found() const { return reporter_.any(); }

  std::size_t task_count() const { return clock_.task_count(); }
  std::size_t access_count() const { return access_count_; }
  std::size_t tracked_locations() const { return cells_.size(); }

  /// Exact byte accounting for E2: shadow = per-location cells, per-task =
  /// the clock.
  MemoryFootprint footprint() const {
    MemoryFootprint f;
    f.shadow_bytes = cells_.heap_bytes();
    f.per_task_bytes = clock_.heap_bytes();
    return f;
  }

  /// Snapshot image of the whole detector: the clock image, the shadow
  /// cells with portable summaries, reporter totals, and the access
  /// ordinal. Policy is NOT part of the state — the restoring side
  /// constructs the detector with the session's recorded policy first.
  struct CellState {
    Loc loc = 0;
    typename Clock::SummaryImage read{};
    typename Clock::SummaryImage write{};
    TaskId owner = kInvalidTask;
    [[no_unique_address]] typename Order::Stamp stamp{};
  };
  struct State {
    typename Clock::State clock;
    std::vector<CellState> cells;
    std::vector<RaceReport> undrained;
    RaceReport first;
    std::uint64_t reports_total = 0;
    std::uint64_t access_count = 0;
  };
  State export_state() const;
  /// Rebuilds a freshly constructed detector. Summaries must name existing
  /// clock objects — the snapshot codec bound-checks before calling.
  void import_state(State&& s);

 private:
  Clock clock_;
  ShadowMap<Order> cells_;
  RaceReporter reporter_;
  std::size_t access_count_ = 0;
};

}  // namespace race2d
