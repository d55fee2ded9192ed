#include "core/race_detector.hpp"

#include <utility>

#include "core/depa_detector.hpp"
#include "core/detector.hpp"
#include "core/sharded_analyzer.hpp"
#include "runtime/trace.hpp"
#include "support/assert.hpp"

namespace race2d {

template <typename Clock>
void RaceDetector<Clock>::on_read(TaskId t, Loc loc) {
  const auto p = clock_.on_access(t);
  ++access_count_;
  detail::shadow_read(clock_.order(), cells_[loc], p, t, loc, access_count_,
                      reporter_);
}

template <typename Clock>
void RaceDetector<Clock>::on_write(TaskId t, Loc loc) {
  const auto p = clock_.on_access(t);
  ++access_count_;
  detail::shadow_write(clock_.order(), cells_[loc], p, t, loc, access_count_,
                       reporter_);
}

template <typename Clock>
void RaceDetector<Clock>::on_retire(TaskId t, Loc loc) {
  const auto p = clock_.on_access(t);
  if (detail::shadow_retire(clock_.order(), cells_, p, t, loc,
                            access_count_ + 1, reporter_)) {
    ++access_count_;
  }
}

template <typename Clock>
void RaceDetector<Clock>::on_event(const TraceEvent& e) {
  switch (e.op) {
    case TraceOp::kFork: {
      const TaskId child = on_fork(e.actor);
      R2D_REQUIRE(child == e.other, "trace task ids must be dense in fork order");
      break;
    }
    case TraceOp::kJoin:   on_join(e.actor, e.other); break;
    case TraceOp::kHalt:   on_halt(e.actor); break;
    case TraceOp::kRead:   on_read(e.actor, e.loc); break;
    case TraceOp::kWrite:  on_write(e.actor, e.loc); break;
    case TraceOp::kRetire: on_retire(e.actor, e.loc); break;
    case TraceOp::kSync:
    case TraceOp::kFinishBegin:
    case TraceOp::kFinishEnd:
    case TraceOp::kAcquire:
    case TraceOp::kRelease:
      break;  // ordering no-ops for the §4 detector
  }
}

template <typename Clock>
bool RaceDetector<Clock>::try_apply_clean_run(const TraceEvent* events,
                                              std::size_t len,
                                              std::uint64_t extra_reps) {
  for (std::size_t i = 0; i < len; ++i) {
    const TraceEvent& e = events[i];
    if (e.op != TraceOp::kRead && e.op != TraceOp::kWrite) return false;
    if (e.actor >= clock_.task_count()) return false;
    const Cell* cell = cells_.find(e.loc);
    if (cell == nullptr || !detail::owns(clock_.order(), *cell, e.actor))
      return false;
    // Ownership alone is not enough: the accessed summary must already be
    // the actor's CURRENT position, or a slow-replay access would still set
    // it (an older reader under a write-cached owner; an earlier interval
    // before a fork in the template). The owner's position is side-effect
    // free to read: a DSU owner is visited at the cached stamp.
    const typename Order::Summary now = Order::point(clock_.position(e.actor));
    if ((e.op == TraceOp::kRead ? cell->read : cell->write) != now)
      return false;
  }
  access_count_ += static_cast<std::size_t>(len) *
                   static_cast<std::size_t>(extra_reps);
  return true;
}

template <typename Clock>
typename RaceDetector<Clock>::State RaceDetector<Clock>::export_state() const {
  State s;
  s.clock = clock_.export_state();
  s.cells.reserve(cells_.size());
  cells_.for_each([this, &s](Loc loc, const Cell& cell) {
    s.cells.push_back({loc, clock_.export_summary(cell.read),
                       clock_.export_summary(cell.write), cell.owner,
                       cell.stamp});
  });
  s.undrained = reporter_.all();
  if (reporter_.any()) s.first = reporter_.first();
  s.reports_total = reporter_.count();
  s.access_count = access_count_;
  return s;
}

template <typename Clock>
void RaceDetector<Clock>::import_state(State&& s) {
  clock_.import_state(std::move(s.clock));
  cells_.clear();
  cells_.reserve(s.cells.size());
  for (const CellState& c : s.cells) {
    cells_[c.loc] = {clock_.import_summary(c.read),
                     clock_.import_summary(c.write), c.owner, c.stamp};
  }
  reporter_.import_state(std::move(s.undrained), s.first,
                         static_cast<std::size_t>(s.reports_total));
  access_count_ = static_cast<std::size_t>(s.access_count);
}

template class RaceDetector<DsuClock>;
template class RaceDetector<DePaClock>;

template <typename Detector>
std::vector<RaceReport> detect_races_trace(const Trace& trace,
                                           ReportPolicy policy,
                                           LintGate gate) {
  if (gate == LintGate::kEnforce) require_lint_clean(trace);
  Detector detector(policy);
  detector.on_root();
  for (const TraceEvent& e : trace) detector.on_event(e);
  return detector.reporter().all();
}

template std::vector<RaceReport> detect_races_trace<OnlineRaceDetector>(
    const Trace&, ReportPolicy, LintGate);
template std::vector<RaceReport> detect_races_trace<DePaDetector>(
    const Trace&, ReportPolicy, LintGate);

}  // namespace race2d
