// The race detectors of §4 (Figure 6) over the suprema engine.
//
// OnlineRaceDetector — the paper's headline algorithm: RaceDetector
// (core/race_detector.hpp) over DsuClock. DsuClock consumes the
// thread-level event stream as precisely the collapsed delayed traversal
// T'' of eq. (8):
//     x forks y  ↦ (x, y)      — ordinary arc, no engine action
//     x steps    ↦ (x, x)      — loop; every memory access marks its task
//     x joins y  ↦ (y, x)      — delayed last-arc ⇒ Union(x, y)
//     x halts    ↦ (x, ×)      — stop-arc ⇒ mark x unvisited
// Resources: Θ(1) state per task and per tracked memory location, Θ(α)
// amortized time per operation (Theorem 5).
//
// detect_races_offline — contribution (b) in language-independent form: race
// detection over ANY task graph given as a 2D-lattice diagram with memory
// accesses attached to vertices, via Figure 5's exact Walk or Figure 8's
// delayed Walk.
//
// Note on Figure 6 as printed: its On-Read compares against R[loc]; §2.3
// states "for a read we compare against sup W only" (read–read pairs do not
// race). We implement the latter; see detector_semantics_test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/race_detector.hpp"
#include "core/report.hpp"
#include "core/shadow_ops.hpp"
#include "core/suprema_walk.hpp"
#include "support/assert.hpp"
#include "support/ids.hpp"

namespace race2d {

/// The labeled-DSU precedence clock: task ids are the DSU's vertices, and a
/// task's position is the task itself (its loop marks it visited).
class DsuClock {
 public:
  using Order = SupremaOrder;
  using State = SupremaEngine::State;
  using SummaryImage = VertexId;  ///< vertex ids are already portable

  TaskId on_root() {
    const TaskId root = engine_.add_vertex();
    engine_.on_loop(root);
    return root;
  }
  TaskId on_fork(TaskId parent);
  void on_join(TaskId joiner, TaskId joined);
  void on_halt(TaskId t);

  /// Walk line 2–3: the access is a loop of t.
  VertexId on_access(TaskId t) {
    R2D_REQUIRE(t < engine_.vertex_count(), "unknown task");
    engine_.on_loop(t);
    return t;
  }
  VertexId position(TaskId t) const { return t; }
  SupremaOrder order() { return SupremaOrder(engine_); }

  bool ordered_before(TaskId x, TaskId t) { return engine_.ordered_before(x, t); }
  std::size_t task_count() const { return engine_.vertex_count(); }
  std::size_t heap_bytes() const { return engine_.heap_bytes(); }

  State export_state() const { return engine_.export_state(); }
  void import_state(State&& s) { engine_.import_state(std::move(s)); }
  VertexId export_summary(VertexId s) const { return s; }
  VertexId import_summary(VertexId s) const {
    R2D_REQUIRE(s == kInvalidVertex || s < engine_.vertex_count(),
                "shadow cell supremum out of range");
    return s;
  }

 private:
  SupremaEngine engine_;
};

using OnlineRaceDetector = RaceDetector<DsuClock>;

/// One memory access attached to a task-graph vertex.
struct VertexAccess {
  Loc loc;
  AccessKind kind;
};

enum class WalkMode : std::uint8_t {
  kNonSeparating,   ///< Figure 5 walk (offline; exact suprema)
  kDelayed,         ///< Figure 8 walk over the Definition 3 delayed traversal
  kRuntimeDelayed,  ///< Figure 8 walk, runtime delaying rule (see delayed.hpp)
};

/// Language-independent offline detection: runs Figure 6 over the walk of
/// `d`, where ops[v] lists vertex v's accesses in order. Reports carry the
/// vertex id in `current_task`. Requires check_diagram(d) to hold.
std::vector<RaceReport> detect_races_offline(
    const Diagram& d, const std::vector<std::vector<VertexAccess>>& ops,
    WalkMode mode = WalkMode::kNonSeparating,
    ReportPolicy policy = ReportPolicy::kAll);

}  // namespace race2d
