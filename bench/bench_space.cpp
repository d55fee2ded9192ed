// E2 — Theorem 5 (space): shadow bytes per tracked location as the number
// of tasks grows. The suprema detector must stay flat (Θ(1)/location); the
// vector-clock baseline grows linearly (Θ(n)/location); FastTrack sits in
// between (flat until reads are concurrent, then linear); SP-bags is flat
// but SP-only. The workload makes every task read a small set of shared
// locations, the worst case for per-location read metadata.
//
// The fork-loop rows hold the per-TASK half of Theorem 5: n iterations of
// `fork; write; halt; join; write` must cost the same bytes per task (and
// ns per event) at every n, for the DSU and for the DePa list clock.
#include <benchmark/benchmark.h>

#include "baselines/fasttrack.hpp"
#include "baselines/vector_clock.hpp"
#include "bench_common.hpp"
#include "core/depa_detector.hpp"
#include "core/detector.hpp"

namespace {

using namespace race2d;

// n concurrent sibling tasks each read kLocs shared locations; the root
// joins them at the end (all reads mutually concurrent).
Trace wide_read_trace(std::size_t tasks, std::size_t locs) {
  Trace t;
  for (TaskId c = 1; c <= tasks; ++c) {
    t.push_back({TraceOp::kFork, 0, c, 0});
    for (Loc l = 0; l < locs; ++l)
      t.push_back({TraceOp::kRead, c, kInvalidTask, l});
    t.push_back({TraceOp::kHalt, c, kInvalidTask, 0});
  }
  for (TaskId c = static_cast<TaskId>(tasks); c >= 1; --c)
    t.push_back({TraceOp::kJoin, 0, c, 0});
  t.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  return t;
}

constexpr std::size_t kLocs = 64;

template <typename Detector>
void run_space(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  const Trace trace = wide_read_trace(tasks, kLocs);
  double bytes_per_loc = 0;
  double per_task_bytes = 0;
  for (auto _ : state) {
    Detector det;
    benchutil::drive(det, trace);
    const auto f = det.footprint();
    bytes_per_loc = f.shadow_bytes_per_location(det.tracked_locations());
    per_task_bytes =
        static_cast<double>(f.per_task_bytes) / static_cast<double>(tasks + 1);
    benchmark::DoNotOptimize(det.race_found());
  }
  state.counters["tasks"] = static_cast<double>(tasks);
  state.counters["shadow_B_per_loc"] = bytes_per_loc;
  state.counters["per_task_B"] = per_task_bytes;
}

void BM_Space_Suprema2D(benchmark::State& state) {
  run_space<OnlineRaceDetector>(state);
}
void BM_Space_VectorClock(benchmark::State& state) {
  run_space<VectorClockDetector>(state);
}
void BM_Space_FastTrack(benchmark::State& state) {
  run_space<FastTrackDetector>(state);
}

// The serial fork loop: every structural event appends at the tail of both
// DePa lists, so every insert takes the fixed tail stride.
Trace fork_loop_trace(std::size_t n) {
  Trace t;
  for (TaskId c = 1; c <= n; ++c) {
    t.push_back({TraceOp::kFork, 0, c, 0});
    t.push_back({TraceOp::kWrite, c, kInvalidTask, 0});
    t.push_back({TraceOp::kHalt, c, kInvalidTask, 0});
    t.push_back({TraceOp::kJoin, 0, c, 0});
    t.push_back({TraceOp::kWrite, 0, kInvalidTask, 0});
  }
  t.push_back({TraceOp::kHalt, 0, kInvalidTask, 0});
  return t;
}

template <typename Detector>
void run_fork_loop(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Trace trace = fork_loop_trace(n);
  double bytes_per_task = 0;
  for (auto _ : state) {
    Detector det;
    benchutil::drive(det, trace);
    bytes_per_task = static_cast<double>(det.footprint().per_task_bytes) /
                     static_cast<double>(n + 1);
    benchmark::DoNotOptimize(det.race_found());
  }
  const double events = static_cast<double>(trace.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  // An inverted rate of events/1e9 per iteration reads as ns per event.
  state.counters["ns_per_event"] = benchmark::Counter(
      events / 1e9, benchmark::Counter::kIsIterationInvariantRate |
                        benchmark::Counter::kInvert);
  state.counters["bytes_per_task"] = bytes_per_task;
}

void BM_DsuForkLoop(benchmark::State& state) {
  run_fork_loop<OnlineRaceDetector>(state);
}
void BM_DepaForkLoop(benchmark::State& state) {
  run_fork_loop<DePaDetector>(state);
}

BENCHMARK(BM_DsuForkLoop)->Arg(1024)->Arg(8192)->Arg(65536);
BENCHMARK(BM_DepaForkLoop)->Arg(1024)->Arg(8192)->Arg(65536);
BENCHMARK(BM_Space_Suprema2D)->RangeMultiplier(4)->Range(16, 16384);
BENCHMARK(BM_Space_VectorClock)->RangeMultiplier(4)->Range(16, 16384);
BENCHMARK(BM_Space_FastTrack)->RangeMultiplier(4)->Range(16, 16384);

}  // namespace
