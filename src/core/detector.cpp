#include "core/detector.hpp"

#include <sstream>
#include <unordered_set>

#include "core/delayed_walk.hpp"
#include "core/streaming_detector.hpp"
#include "lattice/delayed.hpp"
#include "support/assert.hpp"
#include "verify/graph_lint.hpp"

namespace race2d {

TaskId DsuClock::on_fork(TaskId parent) {
  R2D_REQUIRE(parent < engine_.vertex_count(), "unknown parent task");
  const TaskId child = engine_.add_vertex();
  // The fork arc (parent, child) is never a last-arc (the child is drawn to
  // the parent's left; the parent's continuation is the rightmost arc), so
  // Walk takes no action on it. The child's first loop follows immediately
  // in fork-first order.
  engine_.on_loop(child);
  return child;
}

void DsuClock::on_join(TaskId joiner, TaskId joined) {
  R2D_REQUIRE(joiner < engine_.vertex_count() && joined < engine_.vertex_count(),
              "unknown task in join");
  // Delayed last-arc (joined, joiner): Union(joiner, joined), i.e. the
  // joined task's last-arc tree hangs below the joiner, which keeps the label.
  engine_.on_last_arc(joined, joiner);
  engine_.on_loop(joiner);  // the join operation itself is a step of joiner
}

void DsuClock::on_halt(TaskId t) {
  R2D_REQUIRE(t < engine_.vertex_count(), "unknown task in halt");
  engine_.on_stop_arc(t);
}

std::vector<RaceReport> detect_races_offline(
    const Diagram& d, const std::vector<std::vector<VertexAccess>>& ops,
    WalkMode mode, ReportPolicy policy) {
  // Structured rejection of malformed inputs: a garbage diagram would
  // otherwise surface as a ContractViolation (or an infinite walk) from
  // deep inside the traversal construction.
  require_diagram_clean(d);
  if (ops.size() != d.vertex_count()) {
    LintResult shape;
    std::ostringstream os;
    os << "ops has " << ops.size() << " access list(s) for "
       << d.vertex_count() << " vertices";
    shape.diagnostics.push_back({LintCode::kOpsShapeMismatch,
                                 LintSeverity::kError, ops.size(), os.str(),
                                 "supply exactly one access list per vertex"});
    throw DiagramLintError(std::move(shape));
  }

  Traversal traversal;
  switch (mode) {
    case WalkMode::kNonSeparating:
      traversal = non_separating_traversal(d);
      break;
    case WalkMode::kDelayed:
      traversal = delayed_traversal(d);
      break;
    case WalkMode::kRuntimeDelayed:
      traversal = runtime_delayed_traversal(d);
      break;
  }

  StreamingLatticeDetector detector(policy);
  detector.grow_to(d.vertex_count());
  // Pre-size the shadow map for the distinct locations this workload
  // touches, so the replay loop never pays an incremental rehash. (Exact
  // count, not access count: over-reserving would distort E2's
  // bytes-per-location accounting.)
  {
    std::unordered_set<Loc> locs;
    for (const auto& vertex_ops : ops)
      for (const VertexAccess& a : vertex_ops) locs.insert(a.loc);
    detector.reserve_locations(locs.size());
  }
  for (const TraversalEvent& e : traversal) {
    detector.on_event(e);
    if (e.kind != EventKind::kLoop) continue;
    for (const VertexAccess& a : ops[e.src]) {
      switch (a.kind) {
        case AccessKind::kRead:
          detector.on_read(e.src, a.loc);
          break;
        case AccessKind::kWrite:
          detector.on_write(e.src, a.loc);
          break;
        case AccessKind::kRetire:
          detector.on_retire(e.src, a.loc);
          break;
      }
    }
  }
  return detector.reporter().all();
}

}  // namespace race2d
