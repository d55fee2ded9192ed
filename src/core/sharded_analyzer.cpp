#include "core/sharded_analyzer.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <thread>

#include "core/shadow_ops.hpp"
#include "core/suprema_walk.hpp"
#include "support/assert.hpp"
#include "support/flat_hash_map.hpp"

namespace race2d {

namespace {
// Reserve hint ceiling for the no-retire fast path, where the prescan only
// knows per-shard access counts, not distinct locations. Bounds speculative
// shadow-map memory; larger maps still grow by doubling as usual.
constexpr std::size_t kReserveCapLocs = 4096;
}  // namespace

ShardedTraceAnalyzer::ShardedTraceAnalyzer(const Trace& trace,
                                           std::size_t shards, LintGate gate)
    : trace_(&trace), shards_(shards), gate_(gate) {
  R2D_REQUIRE(shards_ >= 1, "need at least one shard");
}

void ShardedTraceAnalyzer::scan() {
  const Trace& trace = *trace_;
  const std::size_t K = shards_;
  const std::size_t n = trace.size();

  // Chunked scan, one chunk per worker, fully parallel (chunk results are
  // independent) so the scan is not a serial Amdahl term. Each chunk is
  // counted, then — for K > 1 — compiled into per-shard compact streams
  // (structure duplicated K ways, every access into exactly its owner's
  // stream) in one exact-size uninitialized buffer: growing vectors would
  // pay reallocation copies and fresh-page faults on every analysis.
  // Access ordinals are chunk-relative; replay adds the chunk's
  // access-count prefix sum to recover the global ordinal.
  chunk_rw_.assign(K, 0);
  chunks_.clear();
  chunks_.resize(K);
  std::vector<std::size_t> chunk_tasks(K, 1);
  std::vector<std::vector<std::size_t>> chunk_locs(
      K, std::vector<std::size_t>(K, 0));
  std::vector<std::uint8_t> chunk_retire(K, 0);
  // Largest task id any event REFERENCES (actor, or a join's target) — used
  // below to reject id-corrupt traces with a structured error even under
  // LintGate::kSkip, instead of indexing the engine out of bounds.
  std::vector<std::size_t> chunk_max_ref(K, 0);
  std::vector<std::exception_ptr> errors(K);

  auto scan_chunk = [&](std::size_t c) {
    const std::size_t lo = n * c / K;
    const std::size_t hi = n * (c + 1) / K;
    // Pass A: counters only.
    std::size_t rw = 0;
    std::size_t structural = 0;
    std::vector<std::size_t>& locs = chunk_locs[c];
    for (std::size_t i = lo; i < hi; ++i) {
      const TraceEvent& e = trace[i];
      chunk_max_ref[c] = std::max(chunk_max_ref[c],
                                  static_cast<std::size_t>(e.actor));
      if (e.op == TraceOp::kJoin)
        chunk_max_ref[c] = std::max(chunk_max_ref[c],
                                    static_cast<std::size_t>(e.other));
      switch (e.op) {
        case TraceOp::kFork:
          // Task ids are dense in fork order (class precondition), so
          // forks alone determine the task count.
          R2D_REQUIRE(e.other != kInvalidTask, "fork without a child id");
          chunk_tasks[c] = std::max(chunk_tasks[c],
                                    static_cast<std::size_t>(e.other) + 1);
          ++structural;
          break;
        case TraceOp::kJoin:
          R2D_REQUIRE(e.other != kInvalidTask, "join without a joined id");
          ++structural;
          break;
        case TraceOp::kHalt:
          ++structural;
          break;
        case TraceOp::kRead:
        case TraceOp::kWrite:
          ++rw;
          ++locs[shard_of(e.loc)];
          break;
        case TraceOp::kRetire:
          chunk_retire[c] = 1;
          break;
        default:
          break;  // sync / finish annotations: no engine action
      }
    }
    R2D_REQUIRE(rw <= std::numeric_limits<std::uint32_t>::max(),
                "chunk access count overflows the 32-bit relative ordinal");
    chunk_rw_[c] = rw;
    // K == 1 replays the trace directly (nothing to filter), and a retire
    // in this chunk forces the serial fallback anyway: skip the streams.
    if (K == 1 || chunk_retire[c] != 0) return;

    // Pass B: fill the CSR streams, sized exactly from pass A.
    ChunkStreams& out = chunks_[c];
    out.offsets.assign(K + 1, 0);
    for (std::size_t k = 0; k < K; ++k)
      out.offsets[k + 1] = out.offsets[k] + structural + locs[k];
    out.events = std::make_unique_for_overwrite<CompactEvent[]>(
        out.offsets[K]);
    std::vector<std::size_t> cur(out.offsets.begin(), out.offsets.end() - 1);
    std::uint32_t rel = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const TraceEvent& e = trace[i];
      switch (e.op) {
        case TraceOp::kFork:
        case TraceOp::kJoin:
        case TraceOp::kHalt:
          for (std::size_t k = 0; k < K; ++k)
            out.events[cur[k]++] = {e.actor, e.other, 0, 0, e.op};
          break;
        case TraceOp::kRead:
        case TraceOp::kWrite:
          ++rel;
          out.events[cur[shard_of(e.loc)]++] = {e.actor, e.other, e.loc, rel,
                                                e.op};
          break;
        default:
          break;
      }
    }
  };

  {
    std::vector<std::thread> scanners;
    scanners.reserve(K - 1);
    for (std::size_t c = 1; c < K; ++c) {
      scanners.emplace_back([&, c] {
        try {
          scan_chunk(c);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    try {
      scan_chunk(0);
    } catch (...) {
      errors[0] = std::current_exception();
    }
    for (std::thread& t : scanners) t.join();
    for (const std::exception_ptr& err : errors)
      if (err) std::rethrow_exception(err);
  }

  task_count_ = 1;
  access_count_ = 0;
  bool any_retire = false;
  std::size_t max_ref = 0;
  shard_locs_.assign(K, 0);
  for (std::size_t c = 0; c < K; ++c) {
    task_count_ = std::max(task_count_, chunk_tasks[c]);
    access_count_ += chunk_rw_[c];
    any_retire = any_retire || chunk_retire[c] != 0;
    max_ref = std::max(max_ref, chunk_max_ref[c]);
    for (std::size_t k = 0; k < K; ++k) shard_locs_[k] += chunk_locs[c][k];
  }
  // Even when the lint gate is skipped, an event naming a task outside the
  // dense fork range must fail as a contract violation, not as an
  // out-of-bounds engine access (empty traces have no references to check).
  R2D_REQUIRE(n == 0 || max_ref < task_count_,
              "trace references a task id outside the dense fork range; "
              "run the linter (LintGate::kEnforce) for a diagnosis");
  // The per-shard access counts are only an upper bound on distinct
  // locations; cap the shadow-map reserve hint to bound speculation.
  for (std::size_t& locs : shard_locs_) locs = std::min(locs, kReserveCapLocs);
  compact_ = !any_retire;
  scanned_ = true;
  if (compact_) return;

  // Retire fallback: whether a retire counts as an access depends on cell
  // liveness (accessed since the last retirement), a global property — so
  // ordinals need a serial liveness pass, and workers replay the full
  // stream against ordinal_. Pays one flat-map operation per access, only
  // for retire-bearing traces.
  chunks_.clear();
  chunk_rw_.clear();
  ordinal_.assign(n, 0);
  std::fill(shard_locs_.begin(), shard_locs_.end(), 0);
  // state: 1 = live cell, 2 = seen but retired.
  FlatHashMap<Loc, std::uint8_t> state;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = trace[i];
    switch (e.op) {
      case TraceOp::kRead:
      case TraceOp::kWrite: {
        ordinal_[i] = ++count;
        std::uint8_t& s = state[e.loc];
        if (s == 0) ++shard_locs_[shard_of(e.loc)];  // exact distinct count
        s = 1;
        break;
      }
      case TraceOp::kRetire: {
        std::uint8_t* s = state.find(e.loc);
        if (s != nullptr && *s == 1) {
          ordinal_[i] = ++count;
          *s = 2;
        }
        break;
      }
      default:
        break;
    }
  }
  access_count_ = count;
}

// Fallback replay for retire-bearing traces: the full stream against the
// prescanned ordinal_ array. In a well-formed trace (see the class
// contract) a task accesses only while running, and a running task's class
// is already visited — its on_loop ran at the root start, its fork, or its
// last join. The serial detector's per-access on_loop is therefore a
// structural no-op; workers keep it for owned accesses to mirror the
// serial detector call-for-call and elide it for non-owned ones, which is
// what makes the per-access cost of foreign shards near zero.
void ShardedTraceAnalyzer::run_shard(std::size_t shard, RaceReporter& reporter,
                                     ShardStats& stats) const {
  // Private engine + shadow memory: the full last-arc forest (every worker
  // replays all structure), but cells only for owned locations.
  SupremaEngine engine(task_count_);
  const SupremaOrder order(engine);
  ShadowMap<SupremaOrder> cells;
  cells.reserve(shard_locs_[shard]);
  engine.on_loop(0);  // the root task is live from the start

  const Trace& trace = *trace_;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    switch (e.op) {
      case TraceOp::kFork:
        // Fork arcs are never last-arcs; the child's first loop follows
        // immediately in fork-first order (cf. DsuClock::on_fork).
        engine.on_loop(e.other);
        break;
      case TraceOp::kJoin:
        engine.on_last_arc(e.other, e.actor);
        engine.on_loop(e.actor);
        break;
      case TraceOp::kHalt:
        engine.on_stop_arc(e.actor);
        break;
      case TraceOp::kRead:
        if (shard_of(e.loc) == shard) {
          engine.on_loop(e.actor);
          ++stats.checked_accesses;
          detail::shadow_read(order, cells[e.loc], e.actor, e.actor,
                              e.loc, ordinal_[i], reporter);
        }
        break;
      case TraceOp::kWrite:
        if (shard_of(e.loc) == shard) {
          engine.on_loop(e.actor);
          ++stats.checked_accesses;
          detail::shadow_write(order, cells[e.loc], e.actor, e.actor,
                               e.loc, ordinal_[i], reporter);
        }
        break;
      case TraceOp::kRetire:
        if (shard_of(e.loc) == shard) {
          engine.on_loop(e.actor);
          if (detail::shadow_retire(order, cells, e.actor, e.actor, e.loc,
                                    ordinal_[i], reporter)) {
            ++stats.checked_accesses;
          }
        }
        break;
      case TraceOp::kSync:
      case TraceOp::kFinishBegin:
      case TraceOp::kFinishEnd:
      case TraceOp::kAcquire:
      case TraceOp::kRelease:
        break;  // annotations: no engine action (cf. OnlineRaceDetector)
    }
  }
  stats.tracked_locations = cells.size();
  stats.races = reporter.count();
}

// Fast-path replay: the shard's compact streams already hold exactly the
// events this worker must act on (all structure + owned accesses), in
// trace order; everything else was filtered out during the scan.
void ShardedTraceAnalyzer::run_shard_compact(std::size_t shard,
                                             RaceReporter& reporter,
                                             ShardStats& stats) const {
  SupremaEngine engine(task_count_);
  const SupremaOrder order(engine);
  ShadowMap<SupremaOrder> cells;
  cells.reserve(shard_locs_[shard]);
  engine.on_loop(0);  // the root task is live from the start

  std::size_t base = 0;  // global ordinal of the current chunk's first access
  for (std::size_t c = 0; c < shards_; ++c) {
    const ChunkStreams& chunk = chunks_[c];
    const CompactEvent* lo = chunk.events.get() + chunk.offsets[shard];
    const CompactEvent* hi = chunk.events.get() + chunk.offsets[shard + 1];
    for (const CompactEvent* p = lo; p != hi; ++p) {
      const CompactEvent& e = *p;
      switch (e.op) {
        case TraceOp::kFork:
          engine.on_loop(e.other);
          break;
        case TraceOp::kJoin:
          engine.on_last_arc(e.other, e.actor);
          engine.on_loop(e.actor);
          break;
        case TraceOp::kHalt:
          engine.on_stop_arc(e.actor);
          break;
        case TraceOp::kRead:
          engine.on_loop(e.actor);
          ++stats.checked_accesses;
          detail::shadow_read(order, cells[e.loc], e.actor, e.actor,
                              e.loc, base + e.rel_ordinal, reporter);
          break;
        case TraceOp::kWrite:
          engine.on_loop(e.actor);
          ++stats.checked_accesses;
          detail::shadow_write(order, cells[e.loc], e.actor, e.actor,
                               e.loc, base + e.rel_ordinal, reporter);
          break;
        default:
          break;  // retires never reach the compact path
      }
    }
    base += chunk_rw_[c];
  }
  stats.tracked_locations = cells.size();
  stats.races = reporter.count();
}

// K == 1 fast path for retire-free traces: one worker owns everything, so
// filtering buys nothing — replay the original trace directly, counting
// ordinals on the fly (every read/write counts when there are no retires).
void ShardedTraceAnalyzer::run_shard_direct(RaceReporter& reporter,
                                            ShardStats& stats) const {
  SupremaEngine engine(task_count_);
  const SupremaOrder order(engine);
  ShadowMap<SupremaOrder> cells;
  cells.reserve(shard_locs_[0]);
  engine.on_loop(0);  // the root task is live from the start

  std::size_t ordinal = 0;
  for (const TraceEvent& e : *trace_) {
    switch (e.op) {
      case TraceOp::kFork:
        engine.on_loop(e.other);
        break;
      case TraceOp::kJoin:
        engine.on_last_arc(e.other, e.actor);
        engine.on_loop(e.actor);
        break;
      case TraceOp::kHalt:
        engine.on_stop_arc(e.actor);
        break;
      case TraceOp::kRead:
        engine.on_loop(e.actor);
        ++stats.checked_accesses;
        detail::shadow_read(order, cells[e.loc], e.actor, e.actor,
                            e.loc, ++ordinal, reporter);
        break;
      case TraceOp::kWrite:
        engine.on_loop(e.actor);
        ++stats.checked_accesses;
        detail::shadow_write(order, cells[e.loc], e.actor, e.actor,
                             e.loc, ++ordinal, reporter);
        break;
      default:
        break;  // retires can't occur here; sync / finish: no engine action
    }
  }
  stats.tracked_locations = cells.size();
  stats.races = reporter.count();
}

std::vector<RaceReport> ShardedTraceAnalyzer::run(ReportPolicy policy) {
  if (!scanned_) {
    // Lint before any replay state exists: the scan and the workers assume
    // the §5 line discipline and dense fork-order ids, and a malformed
    // trace would otherwise trip R2D_REQUIREs (or worse) mid-replay.
    if (gate_ == LintGate::kEnforce) require_lint_clean(*trace_);
    scan();
  }
  stats_.assign(shards_, ShardStats{});
  // Workers collect everything; the policy is applied after the merge so
  // kFirstOnly keeps the globally first report, not some shard's first.
  std::vector<RaceReporter> reporters(shards_,
                                      RaceReporter(ReportPolicy::kAll));
  std::vector<std::exception_ptr> errors(shards_);

  std::vector<std::thread> workers;
  workers.reserve(shards_ > 0 ? shards_ - 1 : 0);
  auto replay = [this, &reporters](std::size_t s) {
    if (!compact_)
      run_shard(s, reporters[s], stats_[s]);
    else if (shards_ == 1)
      run_shard_direct(reporters[s], stats_[s]);
    else
      run_shard_compact(s, reporters[s], stats_[s]);
  };
  for (std::size_t s = 1; s < shards_; ++s) {
    workers.emplace_back([&replay, s, &errors] {
      try {
        replay(s);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  try {
    replay(0);  // shard 0 runs on the calling thread
  } catch (...) {
    errors[0] = std::current_exception();
  }
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& err : errors)
    if (err) std::rethrow_exception(err);

  // Deterministic merge: global access ordinals are unique (each access
  // produces at most one report), so sorting by them reproduces the exact
  // serial report order.
  std::vector<RaceReport> merged;
  for (const RaceReporter& r : reporters)
    merged.insert(merged.end(), r.all().begin(), r.all().end());
  std::sort(merged.begin(), merged.end(),
            [](const RaceReport& a, const RaceReport& b) {
              return a.access_index < b.access_index;
            });
  if (policy == ReportPolicy::kFirstOnly && merged.size() > 1)
    merged.resize(1);
  return merged;
}

std::vector<RaceReport> detect_races_parallel(const Trace& trace,
                                              std::size_t shards,
                                              ReportPolicy policy,
                                              LintGate gate) {
  ShardedTraceAnalyzer analyzer(trace, shards, gate);
  return analyzer.run(policy);
}

}  // namespace race2d
