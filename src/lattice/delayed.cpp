#include "lattice/delayed.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace race2d {

std::vector<char> delayed_arc_flags(const Diagram& d, const Traversal& t) {
  const Digraph& g = d.graph();
  const std::size_t n = g.vertex_count();
  const std::vector<std::size_t> loop_pos = loop_positions(t, n);

  // latest_pred_loop[v]: the largest loop position among strict predecessors
  // of v. An arc into v at position p is delayed iff p < latest_pred_loop[v].
  // Loop order is topological (a vertex loops only after all its in-arcs), so
  // one pass over it folds each vertex's direct predecessors together with
  // their own already-final strict-predecessor maxima.
  std::vector<std::size_t> latest_pred_loop(n, 0);
  for (const VertexId v : loop_order(t))
    for (const VertexId u : g.in(v))
      latest_pred_loop[v] = std::max(
          {latest_pred_loop[v], loop_pos[u], latest_pred_loop[u]});

  std::vector<char> delayed(t.size(), 0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& e = t[i];
    if (e.kind != EventKind::kArc && e.kind != EventKind::kLastArc) continue;
    if (i < latest_pred_loop[e.dst]) delayed[i] = 1;
  }
  return delayed;
}

Traversal delayed_traversal(const Diagram& d) {
  const Traversal t = non_separating_traversal(d);
  return delayed_traversal(d, t, delayed_arc_flags(d, t));
}

Traversal delayed_traversal(const Diagram& d, const Traversal& t,
                            const std::vector<char>& delayed) {
  R2D_REQUIRE(delayed.size() == t.size(), "flag vector size mismatch");
  const std::size_t n = d.vertex_count();

  // Collect each vertex's delayed in-arcs in original traversal order.
  std::vector<std::vector<TraversalEvent>> pending(n);
  for (std::size_t i = 0; i < t.size(); ++i)
    if (delayed[i]) pending[t[i].dst].push_back(t[i]);

  std::size_t delayed_count = 0;
  for (char flag : delayed) delayed_count += flag != 0;

  Traversal out;
  out.reserve(t.size() + delayed_count);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& e = t[i];
    if (delayed[i]) {
      out.push_back({EventKind::kStopArc, e.src, kInvalidVertex});
      continue;
    }
    // A loop's trigger arc is the event right before it (DFS construction);
    // flush the target's delayed arcs just before the trigger so the relative
    // order matches Figure 7: …(2,5)(4,5)(5,5)….
    const bool is_trigger =
        (e.kind == EventKind::kArc || e.kind == EventKind::kLastArc) &&
        i + 1 < t.size() && t[i + 1].kind == EventKind::kLoop &&
        t[i + 1].src == e.dst;
    if (is_trigger)
      for (const auto& late : pending[e.dst]) out.push_back(late);
    out.push_back(e);
  }
  // Each delayed arc contributes its stop-arc marker AND its re-emission.
  R2D_ASSERT(out.size() == t.size() + delayed_count);
  return out;
}

std::vector<char> runtime_delayed_arc_flags(const Diagram& d,
                                            const Traversal& t) {
  const std::size_t n = d.vertex_count();
  const std::vector<std::size_t> loop_pos = loop_positions(t, n);

  // The trigger of a vertex is its latest-visited in-arc; in the canonical
  // DFS it sits directly before the vertex's loop.
  std::vector<std::size_t> trigger_pos(n, 0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& e = t[i];
    if (e.kind != EventKind::kArc && e.kind != EventKind::kLastArc) continue;
    trigger_pos[e.dst] = std::max(trigger_pos[e.dst], i);
  }

  const std::vector<char> exact = delayed_arc_flags(d, t);
  std::vector<char> flags(t.size(), 0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& e = t[i];
    if (e.kind == EventKind::kLastArc && i != trigger_pos[e.dst]) flags[i] = 1;
    // Sanity: the runtime rule must subsume Definition 3's condition (4)
    // (every (4)-arc is a non-trigger last-arc).
    R2D_ASSERT(!exact[i] || flags[i]);
  }
  return flags;
}

Traversal runtime_delayed_traversal(const Diagram& d) {
  const Traversal t = non_separating_traversal(d);
  return delayed_traversal(d, t, runtime_delayed_arc_flags(d, t));
}

ThreadDecomposition decompose_threads(const Diagram& d) {
  const Traversal t = non_separating_traversal(d);
  const std::vector<char> delayed = runtime_delayed_arc_flags(d, t);
  const std::size_t n = d.vertex_count();

  // next[v] = w if v's last-arc (v, w) is non-delayed, else invalid.
  std::vector<VertexId> next(n, kInvalidVertex);
  std::vector<char> has_nondelayed_last_in(n, 0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != EventKind::kLastArc || delayed[i]) continue;
    const VertexId v = t[i].src;
    const VertexId w = t[i].dst;
    next[v] = w;
    R2D_REQUIRE(!has_nondelayed_last_in[w],
                "two non-delayed last-arcs share a target; not a thread path");
    has_nondelayed_last_in[w] = 1;
  }

  // Chain heads are vertices with no incoming non-delayed last-arc; walk each
  // chain assigning a fresh thread id, numbering threads by head visit order.
  ThreadDecomposition td;
  td.tid_of_vertex.assign(n, kInvalidTask);
  for (VertexId head : loop_order(t)) {
    if (has_nondelayed_last_in[head]) continue;
    const TaskId tid = static_cast<TaskId>(td.thread_count++);
    for (VertexId v = head; v != kInvalidVertex; v = next[v]) {
      R2D_ASSERT(td.tid_of_vertex[v] == kInvalidTask);
      td.tid_of_vertex[v] = tid;
    }
  }
  return td;
}

Traversal collapse_to_threads(const Traversal& t, const ThreadDecomposition& td) {
  Traversal out;
  out.reserve(t.size());
  for (const auto& e : t) {
    TraversalEvent mapped = e;
    mapped.src = td.tid_of_vertex[e.src];
    if (e.kind == EventKind::kLoop)
      mapped.dst = mapped.src;
    else if (e.kind != EventKind::kStopArc)
      mapped.dst = td.tid_of_vertex[e.dst];
    out.push_back(mapped);
  }
  return out;
}

}  // namespace race2d
