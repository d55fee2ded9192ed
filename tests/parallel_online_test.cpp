// Parallel ONLINE detection: races found while the program runs on a real
// thread pool, with the list backend answering precedence queries.
//
// Contracts under test:
//   * Agreement with serial detection: the racing-location SET the parallel
//     detector produces equals the serial detector's, for racy and
//     race-free programs alike. (Exact report lists are schedule-dependent
//     by design — see parallel_detector.hpp — the location set is not.)
//   * Determinism: 20 repeated parallel runs yield the identical set.
//   * The whole thing is exercised with many workers hammering overlapping
//     locations, and with relabels of the clock's lists racing flushes;
//     scripts/check.sh runs this binary under TSan, where any
//     unsynchronized tag/cell/buffer access would light up.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/om_timestamps.hpp"
#include "core/parallel_detector.hpp"
#include "runtime/instrumented.hpp"
#include "runtime/parallel_executor.hpp"

namespace race2d {
namespace {

constexpr int kReps = 20;

std::set<Loc> loc_set(const std::vector<RaceReport>& reports) {
  std::set<Loc> out;
  for (const RaceReport& r : reports) out.insert(r.loc);
  return out;
}

/// Width-way fork fan-out, every child writing every shared location and
/// its own private ones; the parent joins all children at the end, so the
/// children are pairwise concurrent and every shared location races.
TaskBody racy_fanout(std::size_t width, std::size_t reps,
                     std::size_t shared_locs) {
  return [=](TaskContext& ctx) {
    for (std::size_t i = 0; i < width; ++i) {
      ctx.fork([=](TaskContext& t) {
        for (std::size_t r = 0; r < reps; ++r) {
          t.write(0x5000 + ((i + r) % shared_locs));  // shared: races
          t.write(0x9000 + i * reps + r);             // private: clean
          t.read(0x5000 + ((i + r) % shared_locs));   // shared read
        }
      });
    }
    while (ctx.join_left()) {
    }
  };
}

/// Race-free: the root publishes, children only read the shared pool and
/// write disjoint private slots, and every write the root does again
/// happens after all joins.
TaskBody clean_fanout(std::size_t width, std::size_t reps) {
  return [=](TaskContext& ctx) {
    for (std::size_t s = 0; s < 8; ++s) ctx.write(0x7000 + s);  // pre-fork
    for (std::size_t i = 0; i < width; ++i) {
      ctx.fork([=](TaskContext& t) {
        for (std::size_t r = 0; r < reps; ++r) {
          t.read(0x7000 + (r % 8));
          t.write(0xA000 + i * reps + r);
        }
      });
    }
    while (ctx.join_left()) {
    }
    for (std::size_t s = 0; s < 8; ++s) ctx.write(0x7000 + s);  // post-join
  };
}

/// Two-level tree: children fork grandchildren (deeper nesting, nested
/// help-on-join), with one racing location per child subtree.
TaskBody nested_tree(std::size_t width, std::size_t grand) {
  return [=](TaskContext& ctx) {
    for (std::size_t i = 0; i < width; ++i) {
      ctx.fork([=](TaskContext& t) {
        for (std::size_t g = 0; g < grand; ++g) {
          t.fork([=](TaskContext& u) {
            u.write(0x6000 + i);          // siblings race here
            u.write(0xB000 + i * 64 + g); // private
          });
        }
        while (t.join_left()) {
        }
        t.read(0x6000 + i);  // ordered after all grandchildren: clean
      });
    }
    while (ctx.join_left()) {
    }
  };
}

TEST(ParallelOnline, AgreesWithSerialOnRacingLocationSet) {
  const DetectionResult serial =
      run_with_detection(racy_fanout(6, 40, 5));
  const std::set<Loc> expected = loc_set(serial.races);
  ASSERT_EQ(expected.size(), 5u) << "workload must race on the shared pool";

  const ParallelDetectionResult par =
      run_with_parallel_detection(racy_fanout(6, 40, 5), 4);
  EXPECT_EQ(loc_set(par.reports), expected);
  EXPECT_EQ(std::set<Loc>(par.racing_locations.begin(),
                          par.racing_locations.end()),
            expected);
  EXPECT_EQ(par.task_count, serial.task_count);
  EXPECT_EQ(par.access_count, serial.access_count);
}

TEST(ParallelOnline, TwentyRunsProduceTheIdenticalRacingSet) {
  const DetectionResult serial = run_with_detection(racy_fanout(5, 24, 4));
  const std::set<Loc> expected = loc_set(serial.races);
  ASSERT_FALSE(expected.empty());

  for (int rep = 0; rep < kReps; ++rep) {
    const ParallelDetectionResult par =
        run_with_parallel_detection(racy_fanout(5, 24, 4), 4);
    EXPECT_EQ(std::set<Loc>(par.racing_locations.begin(),
                            par.racing_locations.end()),
              expected)
        << "rep " << rep;
    EXPECT_TRUE(std::is_sorted(par.racing_locations.begin(),
                               par.racing_locations.end()));
  }
}

TEST(ParallelOnline, RaceFreeProgramStaysRaceFreeUnderEveryWorkerCount) {
  const DetectionResult serial = run_with_detection(clean_fanout(6, 50));
  ASSERT_TRUE(serial.race_free());

  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    const ParallelDetectionResult par =
        run_with_parallel_detection(clean_fanout(6, 50), workers);
    EXPECT_TRUE(par.race_free()) << workers << " workers: "
                                 << par.reports.size() << " report(s)";
    EXPECT_EQ(par.access_count, serial.access_count) << workers << " workers";
    EXPECT_EQ(par.task_count, serial.task_count);
  }
}

TEST(ParallelOnline, NestedTreeRacesExactlyPerChildSubtree) {
  const DetectionResult serial = run_with_detection(nested_tree(5, 6));
  const std::set<Loc> expected = loc_set(serial.races);
  ASSERT_EQ(expected.size(), 5u);  // one racing location per child subtree

  for (int rep = 0; rep < 5; ++rep) {
    const ParallelDetectionResult par =
        run_with_parallel_detection(nested_tree(5, 6), 4);
    EXPECT_EQ(std::set<Loc>(par.racing_locations.begin(),
                            par.racing_locations.end()),
              expected)
        << "rep " << rep;
  }
}

TEST(ParallelOnline, StressManyWorkersOverlappingLocations) {
  // The TSan workhorse: 16 tasks × 800 accesses over 8 shared locations,
  // tiny flush threshold and few stripes to maximize lock handoffs and
  // cross-thread label queries.
  ParallelOnlineDetectorOptions options;
  options.stripes = 4;
  options.flush_threshold = 16;
  const ParallelDetectionResult par =
      run_with_parallel_detection(racy_fanout(16, 800, 8), 8, options);
  EXPECT_FALSE(par.race_free());
  EXPECT_EQ(par.racing_locations.size(), 8u);
  EXPECT_EQ(par.access_count, 16u * 800u * 3u);
}

TEST(ParallelOnline, RelabelsRacingFlushesKeepTheVerdicts) {
  // Each fork inserts into the gap after the root's continuation in H, so
  // hundreds of sibling forks from one task exhaust it again and again.
  constexpr std::size_t kWidth = 400;
  {
    OmClock clock;
    OmInterval* root = clock.make_root(0);
    for (TaskId c = 1; c <= kWidth; ++c)
      root = clock.on_fork(root, c).continuation;
    ASSERT_GT(clock.relabels(), 0u) << "the workload no longer relabels";
  }
  // Children start flushing while the root is still forking (and so
  // relabelling) their siblings.
  ParallelOnlineDetectorOptions options;
  options.flush_threshold = 2;
  const DetectionResult racy = run_with_detection(racy_fanout(kWidth, 4, 6));
  const DetectionResult clean = run_with_detection(clean_fanout(kWidth, 4));
  ASSERT_TRUE(clean.race_free());
  for (int rep = 0; rep < 3; ++rep) {
    const ParallelDetectionResult par =
        run_with_parallel_detection(racy_fanout(kWidth, 4, 6), 4, options);
    EXPECT_EQ(std::set<Loc>(par.racing_locations.begin(),
                            par.racing_locations.end()),
              loc_set(racy.races))
        << "rep " << rep;
    const ParallelDetectionResult ok =
        run_with_parallel_detection(clean_fanout(kWidth, 4), 4, options);
    EXPECT_TRUE(ok.race_free()) << "rep " << rep << ": " << ok.reports.size()
                                << " false report(s)";
  }
}

TEST(ParallelOnline, DegenerateOptionsStillCorrect) {
  // One stripe (global lock) and flush-every-access: slow but must agree.
  ParallelOnlineDetectorOptions options;
  options.stripes = 1;
  options.flush_threshold = 1;
  const DetectionResult serial = run_with_detection(racy_fanout(4, 10, 3));
  const ParallelDetectionResult par =
      run_with_parallel_detection(racy_fanout(4, 10, 3), 2, options);
  EXPECT_EQ(std::set<Loc>(par.racing_locations.begin(),
                          par.racing_locations.end()),
            loc_set(serial.races));
}

TEST(ParallelOnline, FirstOnlyPolicyYieldsAtMostOneReport) {
  ParallelOnlineDetectorOptions options;
  options.policy = ReportPolicy::kFirstOnly;
  const ParallelDetectionResult par =
      run_with_parallel_detection(racy_fanout(4, 16, 2), 4, options);
  EXPECT_EQ(par.reports.size(), 1u);
  EXPECT_FALSE(par.race_free());
}

}  // namespace
}  // namespace race2d
