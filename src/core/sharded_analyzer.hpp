// Location-sharded parallel replay of recorded traces.
//
// The paper's detector is inherently serial: Θ(1) space per location is
// bought by walking the suprema engine along ONE serial order (§2.3,
// Theorem 5). But for *offline* analysis of a recorded trace, per-location
// race checks are independent given the structural event stream: whether
// two accesses to `loc` race depends only on the fork/join/halt structure
// (shared by everyone) and on the access sub-sequence of `loc` (private to
// its shard). So K workers can each replay the FULL structural stream —
// loops, last-arcs and stop-arcs are Θ(α) apiece and a small fraction of an
// access-heavy trace — against a private SupremaEngine, while performing
// shadow-cell lookups and race checks only for locations they own
// (loc % K == shard). Accesses, the dominant cost, parallelize.
//
// Determinism: the scan assigns every access its global ordinal (exactly
// OnlineRaceDetector's access_count_ — chunk-relative counts plus prefix
// sums in the parallel scan), workers stamp reports with those ordinals,
// and the merge sorts by ordinal — so the merged report vector is
// bit-identical to serial replay for every shard count.
//
// Precondition: the trace comes from a serial fork-first run with dense
// task ids in fork order (what TraceRecorder produces / trace_io parses).
// In particular each task's events lie between its start (root / fork) and
// its halt; workers rely on this to elide the per-access on_loop for
// locations they do not own (it is a structural no-op for a running task).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/detector.hpp"
#include "core/report.hpp"
#include "runtime/trace.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

/// Per-worker accounting from one sharded replay.
struct ShardStats {
  std::size_t checked_accesses = 0;   ///< accesses this shard checked
  std::size_t tracked_locations = 0;  ///< live shadow cells at end of replay
  std::size_t races = 0;              ///< reports this shard produced
};

class ShardedTraceAnalyzer {
 public:
  /// Stores the trace and validates `shards`; the scan work happens on the
  /// first run(). The trace must outlive the analyzer. With
  /// LintGate::kEnforce (the default) the first run() lints the trace and
  /// throws TraceLintError instead of replaying a malformed one.
  ShardedTraceAnalyzer(const Trace& trace, std::size_t shards,
                       LintGate gate = LintGate::kEnforce);

  /// Replays with shard_count() workers (shard 0 runs on the calling
  /// thread) and returns the deterministically merged reports. The first
  /// call scans the trace — in parallel chunks for retire-free traces,
  /// building per-shard compact event streams (structure + owned accesses)
  /// so workers skip foreign accesses entirely; retire-bearing traces take
  /// a serial liveness prescan instead (retire ordinals are a global
  /// property). With ReportPolicy::kFirstOnly only the globally first
  /// report is returned — the same one serial replay would keep.
  std::vector<RaceReport> run(ReportPolicy policy = ReportPolicy::kAll);

  std::size_t shard_count() const { return shards_; }
  /// Total countable accesses (reads + writes + live retires), as serial
  /// replay's access_count() would report. Valid after the first run().
  std::size_t access_count() const { return access_count_; }
  /// Valid after the first run().
  std::size_t task_count() const { return task_count_; }
  /// Per-shard accounting from the most recent run().
  const std::vector<ShardStats>& shard_stats() const { return stats_; }

 private:
  /// A trace event a shard must replay, pre-filtered during the scan.
  /// `rel_ordinal` is the access's 1-based ordinal within its scan chunk;
  /// the global ordinal is the chunk's access-count prefix sum plus this.
  /// Deliberately without member initializers: chunk buffers are allocated
  /// uninitialized (make_unique_for_overwrite) and filled exactly once.
  struct CompactEvent {
    TaskId actor;
    TaskId other;
    Loc loc;
    std::uint32_t rel_ordinal;
    TraceOp op;
  };

  /// One chunk's compact streams in CSR layout: shard k replays
  /// events[offsets[k] .. offsets[k + 1]).
  struct ChunkStreams {
    std::unique_ptr<CompactEvent[]> events;
    std::vector<std::size_t> offsets;  ///< shards_ + 1 entries
  };

  /// First-run scan: chunked and parallel for retire-free traces (fills
  /// chunks_/chunk_rw_; K = 1 skips the streams — direct replay needs
  /// none), serial liveness prescan for retire-bearing ones (fills
  /// ordinal_). All modes fill task_count_, access_count_, shard_locs_.
  void scan();
  void run_shard(std::size_t shard, RaceReporter& reporter,
                 ShardStats& stats) const;
  void run_shard_compact(std::size_t shard, RaceReporter& reporter,
                         ShardStats& stats) const;
  void run_shard_direct(RaceReporter& reporter, ShardStats& stats) const;

  /// Owner shard of a location. Power-of-two shard counts (the common
  /// case) take a mask instead of a hardware divide — this runs once per
  /// access in the scan and in the fallback replay's hot loop.
  std::size_t shard_of(Loc loc) const {
    if ((shards_ & (shards_ - 1)) == 0) return loc & (shards_ - 1);
    return loc % shards_;
  }

  const Trace* trace_;
  std::size_t shards_;
  LintGate gate_;
  std::size_t task_count_ = 1;
  std::size_t access_count_ = 0;
  bool scanned_ = false;
  /// True for retire-free traces: compact streams (K > 1) or direct
  /// replay (K == 1); false selects the ordinal_-driven fallback.
  bool compact_ = false;
  /// chunks_[c]: shard streams for trace chunk c; concatenation over
  /// chunks preserves trace order. Empty in direct mode and the fallback.
  std::vector<ChunkStreams> chunks_;
  /// chunk_rw_[chunk]: reads+writes in that chunk (ordinal prefix sums).
  std::vector<std::size_t> chunk_rw_;
  /// ordinal_[i]: the global access index of trace event i (0 when the
  /// event is not a countable access — structure, or a dead retire).
  /// Only built for retire-bearing traces (the fallback replay path).
  std::vector<std::size_t> ordinal_;
  /// Distinct locations owned by each shard (shadow-map reserve hint).
  std::vector<std::size_t> shard_locs_;
  std::vector<ShardStats> stats_;
};

/// One-call driver: sharded replay of `trace` with `shards` workers.
/// Bit-identical to serial replay (detect_races_trace) for every K ≥ 1.
/// Lint-failing traces raise TraceLintError unless the gate is kSkip.
std::vector<RaceReport> detect_races_parallel(
    const Trace& trace, std::size_t shards,
    ReportPolicy policy = ReportPolicy::kAll,
    LintGate gate = LintGate::kEnforce);

/// Serial reference: replays `trace` through one Figure-6 detector —
/// OnlineRaceDetector by default, or DePaDetector. Kept as an independent
/// code path so tests can check the sharded analyzer against it; the two
/// engines' outputs are bit-identical on lint-clean traces. Lint-failing
/// traces raise TraceLintError unless the gate is kSkip.
template <typename Detector = OnlineRaceDetector>
std::vector<RaceReport> detect_races_trace(
    const Trace& trace, ReportPolicy policy = ReportPolicy::kAll,
    LintGate gate = LintGate::kEnforce);

}  // namespace race2d
