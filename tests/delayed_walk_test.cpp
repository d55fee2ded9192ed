// Theorem 4 / Figure 8: over DELAYED traversals the Walk answers the relaxed
// query problem — conditions (6) and (7) — and the thread collapse (8)
// preserves every comparison (9).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/delayed_walk.hpp"
#include "core/suprema_walk.hpp"
#include "graph/reachability.hpp"
#include "lattice/delayed.hpp"
#include "lattice/generate.hpp"
#include "lattice/traversal.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"
#include "support/rng.hpp"

namespace race2d {
namespace {

// Condition (6): Sup(x, t) = t  ⇔  x ⊑ t, for every valid x at every t.
void check_condition6_on(const Diagram& d, const Traversal& traversal) {
  const TransitiveClosure closure(d.graph());
  const std::size_t n = d.vertex_count();

  SupremaEngine engine(n);
  std::vector<char> valid(n, 0);
  for (const TraversalEvent& e : traversal) {
    engine.on_event(e);
    if (e.kind == EventKind::kLastArc) {
      valid[e.src] = 1;
      valid[e.dst] = 1;
    }
    if (e.kind != EventKind::kLoop) continue;
    const VertexId t = e.src;
    valid[t] = 1;
    for (VertexId x = 0; x < n; ++x) {
      if (!valid[x]) continue;
      ASSERT_EQ(engine.sup(x, t) == t, closure.reaches(x, t))
          << "condition (6) at Sup(" << x + 1 << ", " << t + 1 << ")";
    }
  }
}

// Condition (6) must hold over BOTH delaying rules: Definition 3's exact
// condition (4) and the runtime's stop-arc-at-halt superset.
void check_condition6(const Diagram& d) {
  check_condition6_on(d, delayed_traversal(d));
  check_condition6_on(d, runtime_delayed_traversal(d));
}

TEST(RuntimeDelaying, SubsumesDefinition3OnFigure3) {
  const Diagram d = figure3_diagram();
  const Traversal t = non_separating_traversal(d);
  const auto exact = delayed_arc_flags(d, t);
  const auto runtime = runtime_delayed_arc_flags(d, t);
  // On Figure 3 the two rules coincide exactly (all four crossed arcs).
  EXPECT_EQ(exact, runtime);
}

TEST(RuntimeDelaying, StrictSupersetOnForkThenImmediateJoin) {
  // begin -> fork f; child: one step then halt; parent joins immediately.
  // Vertices: 0 begin, 1 fork, 2 child-op, 3 child-halt, 4 join, 5 root-halt.
  Diagram d(6);
  d.add_arc(0, 1);
  d.add_arc(1, 2);  // child first (left)
  d.add_arc(2, 3);
  d.add_arc(3, 4);  // halt -> join (the runtime always delays this)
  d.add_arc(1, 4);  // parent's continuation (right)
  d.add_arc(4, 5);
  const Traversal t = non_separating_traversal(d);
  const auto exact = delayed_arc_flags(d, t);
  const auto runtime = runtime_delayed_arc_flags(d, t);
  int exact_count = 0, runtime_count = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    exact_count += exact[i];
    runtime_count += runtime[i];
    EXPECT_LE(exact[i], runtime[i]) << "event " << i;  // subset
  }
  EXPECT_EQ(exact_count, 0);    // condition (4) never fires here
  EXPECT_EQ(runtime_count, 1);  // but the halt->join arc is runtime-delayed
}

// Condition (7): accumulated answers behave like suprema under later
// comparisons: Sup(Sup(x, y), t) = t ⇔ Sup(x, t) = t ∧ Sup(y, t) = t,
// i.e. ⇔ x ⊑ t ∧ y ⊑ t by (6). We record s = Sup(x, y) pairs as the walk
// passes y, then check the equivalence at every later vertex t.
void check_condition7(const Diagram& d, std::uint64_t seed) {
  const TransitiveClosure closure(d.graph());
  const Traversal traversal = delayed_traversal(d);
  const std::size_t n = d.vertex_count();
  Xoshiro256 rng(seed);

  struct Accumulated {
    VertexId x, y, s;
  };
  std::vector<Accumulated> accs;

  SupremaEngine engine(n);
  std::vector<char> valid(n, 0);
  for (const TraversalEvent& e : traversal) {
    engine.on_event(e);
    if (e.kind == EventKind::kLastArc) {
      valid[e.src] = 1;
      valid[e.dst] = 1;
    }
    if (e.kind != EventKind::kLoop) continue;
    const VertexId t = e.src;
    valid[t] = 1;

    // Check all previously accumulated suprema against the new vertex.
    for (const Accumulated& a : accs) {
      const bool via_sup = engine.sup(a.s, t) == t;
      const bool via_parts = closure.reaches(a.x, t) && closure.reaches(a.y, t);
      ASSERT_EQ(via_sup, via_parts)
          << "condition (7): s=Sup(" << a.x + 1 << "," << a.y + 1
          << ") checked at t=" << t + 1;
    }

    // Record a few fresh Sup(x, t) accumulations from this vertex.
    for (int k = 0; k < 3; ++k) {
      const VertexId x = static_cast<VertexId>(rng.below(n));
      if (!valid[x]) continue;
      accs.push_back({x, t, engine.sup(x, t)});
    }
  }
}

TEST(Theorem4, Condition6OnFigure3) { check_condition6(figure3_diagram()); }

TEST(Theorem4, Condition6OnGrids) {
  check_condition6(grid_diagram(4, 5));
  check_condition6(grid_diagram(1, 8));
  check_condition6(grid_diagram(8, 1));
}

TEST(Theorem4, Condition7OnFigure3) { check_condition7(figure3_diagram(), 1); }

TEST(Theorem4, Condition7OnGrids) {
  check_condition7(grid_diagram(4, 5), 2);
  check_condition7(grid_diagram(3, 9), 3);
}

TEST(Theorem4, RelaxedAnswerMayDifferFromTrueSupremum) {
  // Figure 2's point: executing A B C D, Sup(A, B) may legally answer A
  // rather than the true supremum C. On Figure 3's lattice the analogous
  // situation arises at paper vertices x=3, t=5 over the DELAYED traversal:
  // the last-arc (3,6) is delayed past vertex 5, so x=3's tree root is still
  // 3 (unvisited by then? no — 3 was visited, then stop-arc (3,×) marked it
  // unvisited), and Sup(3,5) answers 3 itself, not the true supremum 6.
  const Diagram d = figure3_diagram();
  const Traversal traversal = delayed_traversal(d);
  SupremaEngine engine(d.vertex_count());
  bool checked = false;
  for (const TraversalEvent& e : traversal) {
    engine.on_event(e);
    if (e.kind == EventKind::kLoop && e.src == 4) {  // paper vertex 5
      EXPECT_EQ(engine.sup(2, 4), 2u);  // answers x itself (paper 3)
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

class DelayedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DelayedProperty, Condition6OnRandomForkJoin) {
  Xoshiro256 rng(GetParam() * 31337);
  ForkJoinParams params;
  params.max_actions = 20;
  params.max_depth = 6;
  check_condition6(random_fork_join_diagram(rng, params));
}

TEST_P(DelayedProperty, Condition7OnRandomForkJoin) {
  Xoshiro256 rng(GetParam() * 27644437);
  ForkJoinParams params;
  params.max_actions = 14;
  params.max_depth = 5;
  check_condition7(random_fork_join_diagram(rng, params), GetParam());
}

TEST_P(DelayedProperty, Condition6OnRandomSp) {
  Xoshiro256 rng(GetParam() * 65537);
  check_condition6(random_sp_diagram(rng, 12 + rng.below(40)));
}

// Condition (4) straight from its definition: an arc into v at position p
// is delayed iff some strict predecessor of v (per the full transitive
// closure) loops after p. The reference delayed_arc_flags must reproduce.
std::vector<char> delayed_flags_by_closure(const Diagram& d,
                                           const Traversal& t) {
  const TransitiveClosure closure(d.graph());
  const std::size_t n = d.vertex_count();
  const std::vector<std::size_t> loop_pos = loop_positions(t, n);
  std::vector<std::size_t> latest_pred_loop(n, 0);
  for (VertexId v = 0; v < n; ++v)
    for (VertexId x = 0; x < n; ++x)
      if (x != v && closure.reaches(x, v))
        latest_pred_loop[v] = std::max(latest_pred_loop[v], loop_pos[x]);
  std::vector<char> flags(t.size(), 0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const TraversalEvent& e = t[i];
    if (e.kind != EventKind::kArc && e.kind != EventKind::kLastArc) continue;
    flags[i] = i < latest_pred_loop[e.dst] ? 1 : 0;
  }
  return flags;
}

void expect_flags_match_closure(const Diagram& d) {
  const Traversal t = non_separating_traversal(d);
  EXPECT_EQ(delayed_arc_flags(d, t), delayed_flags_by_closure(d, t));
}

TEST(DelayedFlags, MatchClosureOnFixedDiagrams) {
  expect_flags_match_closure(figure3_diagram());
  expect_flags_match_closure(grid_diagram(4, 5));
  expect_flags_match_closure(grid_diagram(1, 8));
  expect_flags_match_closure(grid_diagram(7, 3));
}

TEST_P(DelayedProperty, FlagsMatchClosureOnRandomDiagrams) {
  Xoshiro256 rng(GetParam() * 7919);
  ForkJoinParams params;
  params.max_actions = 40;
  params.max_depth = 7;
  expect_flags_match_closure(random_fork_join_diagram(rng, params));
  expect_flags_match_closure(random_sp_diagram(rng, 12 + rng.below(80)));
}

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

// The corpus task graphs, up to a size where the quadratic closure stays
// quick (the serial fork-loop pin is past it; the corpus replay suite runs
// its delayed walks through the differential panel instead).
TEST(DelayedFlags, MatchClosureOnCorpusTaskGraphs) {
  constexpr std::size_t kMaxVertices = 4096;
  std::size_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RACE2D_CORPUS_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    std::ifstream in(entry.path());
    const TaskGraph g = build_task_graph(load_trace_text(in));
    if (g.diagram.vertex_count() > kMaxVertices) continue;
    SCOPED_TRACE(entry.path().filename().string());
    expect_flags_match_closure(g.diagram);
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelayedProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// Equation (9): the thread collapse preserves every ordering comparison.
// Uses the runtime delaying rule (§5's stop-arc-at-halt), under which
// threads are disjoint paths; see runtime_delayed_arc_flags.
void check_thread_collapse(const Diagram& d) {
  const Traversal vertex_level = runtime_delayed_traversal(d);
  const ThreadDecomposition td = decompose_threads(d);
  const Traversal thread_level = collapse_to_threads(vertex_level, td);
  ASSERT_EQ(vertex_level.size(), thread_level.size());
  const std::size_t n = d.vertex_count();

  SupremaEngine vertex_engine(n);
  SupremaEngine thread_engine(td.thread_count);
  std::vector<char> valid(n, 0);
  for (std::size_t i = 0; i < vertex_level.size(); ++i) {
    vertex_engine.on_event(vertex_level[i]);
    thread_engine.on_event(thread_level[i]);
    const auto& e = vertex_level[i];
    if (e.kind == EventKind::kLastArc) {
      valid[e.src] = 1;
      valid[e.dst] = 1;
    }
    if (e.kind != EventKind::kLoop) continue;
    const VertexId t = e.src;
    valid[t] = 1;
    for (VertexId x = 0; x < n; ++x) {
      if (!valid[x]) continue;
      const bool vertex_ans = vertex_engine.sup(x, t) == t;
      const bool thread_ans =
          thread_engine.sup(td.tid_of_vertex[x], td.tid_of_vertex[t]) ==
          td.tid_of_vertex[t];
      ASSERT_EQ(vertex_ans, thread_ans)
          << "equation (9) at x=" << x + 1 << " t=" << t + 1;
    }
  }
}

TEST(ThreadCollapse, Figure3) { check_thread_collapse(figure3_diagram()); }

TEST(ThreadCollapse, Grid) { check_thread_collapse(grid_diagram(4, 4)); }

TEST_P(DelayedProperty, ThreadCollapseOnRandomForkJoin) {
  Xoshiro256 rng(GetParam() * 99991);
  ForkJoinParams params;
  params.max_actions = 16;
  params.max_depth = 5;
  check_thread_collapse(random_fork_join_diagram(rng, params));
}

TEST(SolveSupremaDelayed, BatchApi) {
  const Diagram d = figure3_diagram();
  // Over the delayed traversal Sup(3,5) answers 3 (see above); ordered
  // queries still answer t.
  const auto answers = solve_suprema_delayed(d, {{2, 4}, {0, 4}});
  EXPECT_EQ(answers[0], 2u);
  EXPECT_EQ(answers[1], 4u);
}

}  // namespace
}  // namespace race2d
