// The language-independent online detector (contribution b): race detection
// over ANY task graph with 2D-lattice structure, driven directly by a
// stream of traversal events — no fork-join runtime, no Diagram object.
//
// Feed the events of a (delayed) non-separating traversal in order via
// on_event(); between a vertex's loop and the next event, report that
// vertex's memory accesses via on_read/on_write/on_retire. This is exactly
// Figure 8's Walk with Figure 6 as the query callback (the shared cell
// routines of core/shadow_ops.hpp over SupremaOrder); OnlineRaceDetector
// is the thread-collapsed specialization of this class, and
// detect_races_offline() is its batch driver.
#pragma once

#include <cstddef>

#include "core/report.hpp"
#include "core/shadow_ops.hpp"
#include "core/suprema_walk.hpp"
#include "support/ids.hpp"
#include "support/mem_accounting.hpp"

namespace race2d {

class StreamingLatticeDetector {
 public:
  explicit StreamingLatticeDetector(ReportPolicy policy = ReportPolicy::kAll)
      : reporter_(policy) {}

  /// Pre-size the vertex set (optional; vertices may also be added lazily).
  void grow_to(std::size_t vertex_count) { engine_.grow_to(vertex_count); }
  VertexId add_vertex() { return engine_.add_vertex(); }

  /// Pre-size the shadow map for `n` distinct locations (optional).
  void reserve_locations(std::size_t n) { cells_.reserve(n); }

  /// Advances the walk by one traversal event (loop / last-arc / stop-arc;
  /// ordinary arcs are no-ops). Events must arrive in traversal order.
  void on_event(const TraversalEvent& e) {
    if (e.kind == EventKind::kLoop) current_ = e.src;
    engine_.on_event(e);
  }

  /// Memory accesses of the current vertex `t` (the most recently looped
  /// vertex — passed explicitly so misuse is checkable by the caller).
  void on_read(VertexId t, Loc loc);
  void on_write(VertexId t, Loc loc);
  void on_retire(VertexId t, Loc loc);

  /// The comparison primitive, eq. (6): x ⊑ t.
  bool ordered_before(VertexId x, VertexId t) {
    return engine_.ordered_before(x, t);
  }

  VertexId current_vertex() const { return current_; }
  const RaceReporter& reporter() const { return reporter_; }
  bool race_found() const { return reporter_.any(); }
  std::size_t access_count() const { return access_count_; }
  std::size_t tracked_locations() const { return cells_.size(); }
  MemoryFootprint footprint() const;

 private:
  SupremaEngine engine_;
  ShadowMap<SupremaOrder> cells_;
  RaceReporter reporter_;
  VertexId current_ = kInvalidVertex;
  std::size_t access_count_ = 0;
};

}  // namespace race2d
