// The order-maintenance list backend, held to its contracts:
//
//   0. OmList keeps tag order equal to list order across relabels, and
//      DePaDetector costs Θ(1) bytes per task on the serial fork loop.
//
//   1. The lists realize happens-before: for every pair of access events
//      in a trace, OmClock::ordered_before agrees with the reachability
//      oracle over the Theorem-6 task graph. This is the 2D claim itself —
//      E-order AND H-order agreement IS precedence — checked exhaustively
//      on fuzz-generated traces (which exercise escaped asyncs, futures and
//      pipeline shapes well beyond series-parallel).
//
//   2. DePaDetector's report stream is BIT-IDENTICAL to serial Figure-6
//      replay: same reports, same order, same ordinals — on generated
//      programs, fuzz traces, and the whole checked-in regression corpus.
#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <fstream>
#include <list>
#include <vector>

#include "baselines/oracle.hpp"
#include "core/depa_detector.hpp"
#include "core/om_timestamps.hpp"
#include "core/sharded_analyzer.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "runtime/trace_io.hpp"
#include "support/rng.hpp"
#include "workloads/generators.hpp"

namespace race2d {
namespace {

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

Trace record(TaskBody program) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run(std::move(program));
  return rec.take();
}

// Tags strictly increase along the list's links.
bool tags_increase(const OmList& list) {
  for (const OmNode* n = list.head(); n->next != nullptr; n = n->next)
    if (n->tag >= n->next->tag) return false;
  return true;
}

// The list's links visit exactly the reference order.
void expect_links_match(const OmList& list,
                        const std::list<const OmNode*>& ref) {
  const OmNode* n = list.head();
  for (const OmNode* want : ref) {
    ASSERT_EQ(n, want);
    n = n->next;
  }
  ASSERT_EQ(n, nullptr);
}

TEST(OmList, TagOrderMatchesAReferenceListAcrossRelabels) {
  std::deque<OmNode> arena;
  std::list<const OmNode*> ref;
  std::vector<std::list<const OmNode*>::iterator> pos;  // arena index -> ref
  OmList list;
  arena.emplace_back();
  list.rebuild({&arena.back()});
  pos.push_back(ref.insert(ref.end(), &arena.back()));
  std::uint64_t checked_relabels = 0;
  std::size_t tail = 0;
  const auto insert_after = [&](std::size_t anchor) {
    arena.emplace_back();
    OmNode* node = &arena.back();
    list.insert_after(&arena[anchor], node);
    pos.push_back(ref.insert(std::next(pos[anchor]), node));
    if (anchor == tail) tail = arena.size() - 1;
    if (list.relabels() != checked_relabels) {
      checked_relabels = list.relabels();
      ASSERT_TRUE(tags_increase(list)) << "after relabel " << checked_relabels;
    }
  };

  // One anchor, over and over: every insert halves the same gap, so this
  // phase cannot finish without relabels. (It runs first, while the list
  // is small, so checking the whole list after each relabel stays cheap.)
  for (int i = 0; i < 10000; ++i) {
    insert_after(0);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(list.relabels(), 100u) << "the hot anchor barely relabelled";
  expect_links_match(list, ref);
  // Random anchors, including the dense region the hot phase left behind.
  Xoshiro256 rng(2002);
  for (int i = 0; i < 100000; ++i) {
    insert_after(rng.below(arena.size()));
    if (HasFatalFailure()) return;
  }
  expect_links_match(list, ref);
  // Serial-chain appends take the fixed tail stride: no relabel at all.
  const std::uint64_t before_tail = list.relabels();
  for (int i = 0; i < 1000000; ++i) insert_after(tail);
  EXPECT_EQ(list.relabels(), before_tail);
  expect_links_match(list, ref);
  EXPECT_TRUE(tags_increase(list));
}

TEST(DePaDetector, ForkMakesConcurrencyJoinOrdersIt) {
  DePaDetector det;
  const TaskId root = det.on_root();
  det.on_write(root, 7);
  const TaskId child = det.on_fork(root);
  // Root's pre-fork interval precedes both sides; child and continuation
  // are mutually unordered.
  EXPECT_FALSE(det.ordered_before(child, root));
  EXPECT_FALSE(det.ordered_before(root, child));
  det.on_write(child, 7);  // root's write was pre-fork, hence ordered
  EXPECT_FALSE(det.race_found());
  det.on_write(root, 7);  // concurrent with the child's write: a race.
  EXPECT_TRUE(det.race_found());
  det.on_halt(child);
  det.on_join(root, child);
  EXPECT_TRUE(det.ordered_before(child, root));
  det.on_write(root, 7);  // post-join: ordered after everything.
  EXPECT_EQ(det.reporter().count(), 1u);
}

// Structural mirror of DePaClock that snapshots each access
// event's interval, paired below with the task-graph vertex carrying the
// same access (build_task_graph assigns vertices in trace order).
struct LabeledAccesses {
  std::vector<const OmInterval*> intervals;  ///< per access event, in order
};

LabeledAccesses label_accesses(const Trace& trace, OmClock& clock) {
  LabeledAccesses out;
  std::vector<OmInterval*> cur;
  cur.push_back(clock.make_root(0));
  for (const TraceEvent& e : trace) {
    switch (e.op) {
      case TraceOp::kFork: {
        OmClock::ForkResult r = clock.on_fork(cur[e.actor], e.other);
        EXPECT_EQ(cur.size(), static_cast<std::size_t>(e.other));
        cur.push_back(r.child);
        cur[e.actor] = r.continuation;
        break;
      }
      case TraceOp::kJoin:
        cur[e.actor] = clock.on_join(cur[e.actor], cur[e.other]);
        break;
      case TraceOp::kRead:
      case TraceOp::kWrite:
      case TraceOp::kRetire:
        out.intervals.push_back(cur[e.actor]);
        break;
      default:
        break;
    }
  }
  return out;
}

TEST(DePaDetector, LabelsRealizeHappensBeforeOnFuzzTraces) {
  std::size_t pairs_checked = 0;
  for (std::uint64_t seed : {11ull, 23ull, 47ull, 101ull, 997ull, 4242ull}) {
    const Trace trace = generate_trace(FuzzPlan::from_seed(seed)).trace;
    const TaskGraph tg = build_task_graph(trace);
    const HappensBeforeOracle oracle(tg);

    OmClock clock;
    const LabeledAccesses labeled = label_accesses(trace, clock);

    // Vertices carrying an access, in vertex order == trace order.
    std::vector<VertexId> access_vertices;
    for (std::size_t v = 0; v < tg.ops.size(); ++v)
      for (std::size_t k = 0; k < tg.ops[v].size(); ++k)
        access_vertices.push_back(static_cast<VertexId>(v));
    ASSERT_EQ(access_vertices.size(), labeled.intervals.size())
        << "seed " << seed;

    // Bound the quadratic sweep; fuzz traces are a few hundred events.
    const std::size_t n = std::min<std::size_t>(access_vertices.size(), 400);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const bool labels = OmClock::ordered_before(labeled.intervals[i],
                                                    labeled.intervals[j]);
        // Labels are interval-granular: two accesses in one interval share
        // a timestamp and compare "ordered" both ways. The detector only
        // ever queries prior-against-current, where same-interval means
        // same task — ordered — so this coarsening is exactly right.
        const bool truth =
            labeled.intervals[i] == labeled.intervals[j]
                ? true
                : oracle.ordered(access_vertices[i], access_vertices[j]);
        ASSERT_EQ(labels, truth)
            << "seed " << seed << " accesses " << i << " -> " << j
            << " (vertices " << access_vertices[i] << " -> "
            << access_vertices[j] << ")";
        ++pairs_checked;
      }
    }
  }
  EXPECT_GT(pairs_checked, 100000u) << "the sweep degenerated";
}

TEST(DePaDetector, BitIdenticalToSerialOnGeneratedPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ProgramParams params;
    params.seed = seed * 0xC0FFEE;
    params.max_tasks = 96;
    params.loc_pool = 16;
    const Trace trace = record(random_program(params));
    EXPECT_EQ(detect_races_trace<DePaDetector>(trace), detect_races_trace(trace))
        << "seed " << seed;
  }
  // Near-miss traces: every verdict hinges on a single join edge.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ProgramParams params;
    params.seed = seed * 31337;
    params.max_tasks = 64;
    const Trace trace = record(near_miss_program(params, 0.3));
    EXPECT_EQ(detect_races_trace<DePaDetector>(trace), detect_races_trace(trace))
        << "near-miss seed " << seed;
  }
}

TEST(DePaDetector, BitIdenticalToSerialOnFuzzTraces) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const Trace trace = generate_trace(FuzzPlan::from_seed(seed)).trace;
    EXPECT_EQ(detect_races_trace<DePaDetector>(trace, ReportPolicy::kAll,
                                      LintGate::kSkip),
              detect_races_trace(trace, ReportPolicy::kAll, LintGate::kSkip))
        << "seed " << seed;
  }
}

TEST(DePaDetector, BitIdenticalToSerialOnTheCheckedInCorpus) {
  std::size_t replayed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RACE2D_CORPUS_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    std::ifstream in(entry.path());
    const Trace trace = load_trace_text(in);
    EXPECT_EQ(detect_races_trace<DePaDetector>(trace), detect_races_trace(trace))
        << entry.path();
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "the regression corpus shrank below its floor";
}

TEST(DePaDetector, FootprintAccountsClockAndCells) {
  DePaDetector det;
  const TaskId root = det.on_root();
  TaskId t = root;
  for (int i = 0; i < 40; ++i) {
    t = det.on_fork(t);
    det.on_write(t, static_cast<Loc>(i));
  }
  const MemoryFootprint f = det.footprint();
  EXPECT_GT(f.per_task_bytes, 0u);
  EXPECT_GT(f.shadow_bytes, 0u);
  EXPECT_EQ(det.tracked_locations(), 40u);
}

// Per-task bytes after n iterations of `fork; write; halt; join; write`: a
// serial chain that appends at the tail of both lists on every event.
double fork_loop_bytes_per_task(std::size_t n) {
  DePaDetector det;
  const TaskId root = det.on_root();
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId child = det.on_fork(root);
    det.on_write(child, 0);
    det.on_halt(child);
    det.on_join(root, child);
    det.on_write(root, 0);
  }
  EXPECT_FALSE(det.race_found());
  return static_cast<double>(det.footprint().per_task_bytes) /
         static_cast<double>(det.task_count());
}

TEST(DePaDetector, SerialForkLoopCostsConstantBytesPerTask) {
  const double small = fork_loop_bytes_per_task(1024);
  const double large = fork_loop_bytes_per_task(65536);
  EXPECT_LT(small, 256.0);
  EXPECT_LT(large, 256.0);
  EXPECT_LE(large, small * 1.1);
  EXPECT_GE(large, small * 0.9);
}

}  // namespace
}  // namespace race2d
