#include "workloads.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/sharded_analyzer.hpp"
#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"
#include "runtime/serial_executor.hpp"
#include "runtime/trace.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "support/rng.hpp"

namespace e2e {

namespace {

using namespace race2d;

constexpr Loc kPoolBase = 0x50000;        // shared locations
constexpr Loc kPrivateBase = 0x10000000;  // per-task private locations
constexpr std::size_t kPrivatePerTask = 8;
constexpr std::size_t kTrailerBytes = 13;  // 'E' + u64 count + u32 crc

/// Random fork-join programs. Each task reads a shared pool and writes
/// locations only it owns; with pool_write_p > 0 it also writes the shared
/// pool, which makes the program racy.
struct ProgramShape {
  std::uint64_t target_events = 0;  ///< stop acting once this many are made
  std::size_t max_tasks = 1;
  std::size_t min_actions = 1;
  std::size_t max_actions = 1;
  std::size_t max_depth = 8;
  double fork_p = 0.0;
  double join_p = 0.0;
  std::size_t pool_locs = 64;
  double pool_write_p = 0.0;
};

class ProgramGen {
 public:
  ProgramGen(std::uint64_t seed, ProgramShape shape)
      : rng_(seed), shape_(shape) {}

  Trace random_program() {
    return record([this](TaskContext& t) { random_task(t, 0); });
  }

 private:
  template <typename Body>
  Trace record(Body body) {
    TraceRecorder rec;
    SerialExecutor exec(&rec);
    exec.run([&](TaskContext& t) {
      body(t);
      while (t.join_left()) {
      }
    });
    return rec.take();
  }

  Loc own_block() {
    const Loc base = next_private_;
    next_private_ += kPrivatePerTask;
    return base;
  }

  void access(TaskContext& t, Loc own) {
    ++events_;
    if (rng_.chance(0.5)) {
      t.read(kPoolBase + rng_.below(shape_.pool_locs));
    } else if (shape_.pool_write_p > 0.0 && rng_.chance(shape_.pool_write_p)) {
      t.write(kPoolBase + rng_.below(shape_.pool_locs));
    } else {
      t.write(own + rng_.below(kPrivatePerTask));
    }
  }

  void random_task(TaskContext& t, std::size_t depth) {
    const Loc own = own_block();
    const std::size_t actions =
        rng_.range(shape_.min_actions, shape_.max_actions);
    for (std::size_t i = 0; i < actions && events_ < shape_.target_events;
         ++i) {
      const double r = rng_.uniform01();
      if (r < shape_.fork_p && depth < shape_.max_depth &&
          tasks_ < shape_.max_tasks) {
        ++tasks_;
        events_ += 3;  // fork, halt, join
        t.fork([this, depth](TaskContext& c) { random_task(c, depth + 1); });
      } else if (r < shape_.fork_p + shape_.join_p && t.has_left()) {
        t.join_left();
      } else {
        access(t, own);
      }
    }
  }

  Xoshiro256 rng_;
  ProgramShape shape_;
  std::uint64_t events_ = 0;
  std::size_t tasks_ = 1;
  Loc next_private_ = kPrivateBase;
};

/// `fork; write; halt; join; write`, n times on one location: depth-1
/// nesting, the serial fork loop whose labels DePa grows with n.
Trace serial_fork_loop(std::size_t n, Loc x) {
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run([&](TaskContext& t) {
    for (std::size_t i = 0; i < n; ++i) {
      t.fork([x](TaskContext& c) { c.write(x); });
      t.join_left();
      t.write(x);
    }
  });
  return rec.take();
}

/// One forked task repeating a fixed access template of `m` accesses
/// `reps` times: the shape a v2 writer folds into stationary runs. Which
/// accesses read or write and where depends only on `variant`, so the
/// template, and with it the encoded size and cost of each event, does
/// not change with the seed.
Trace stationary_loop(std::size_t m, std::size_t variant, std::size_t reps) {
  std::vector<std::pair<bool, Loc>> tmpl;
  for (std::size_t j = 0; j < m; ++j)
    tmpl.emplace_back((j + variant) % 2 == 1,
                      kPoolBase + 8 * ((j + variant / 2) % 4));
  TraceRecorder rec;
  SerialExecutor exec(&rec);
  exec.run([&](TaskContext& t) {
    t.fork([&](TaskContext& c) {
      for (std::size_t r = 0; r < reps; ++r)
        for (const auto& [is_write, loc] : tmpl) {
          if (is_write)
            c.write(loc);
          else
            c.read(loc);
        }
    });
    t.join_left();
  });
  return rec.take();
}

/// Encodes `trace` with chunks of `frame_bytes` payload and cuts the wire
/// at chunk boundaries; computes the folded share and the reference.
SessionSpec make_spec(const char* kind, const Trace& trace,
                      DetectorEngine engine, bool v2,
                      std::size_t frame_bytes) {
  SessionSpec s;
  s.kind = kind;
  s.engine = engine;
  s.v2 = v2;
  s.events = trace.size();

  std::ostringstream os;
  BinaryWriteOptions options;
  options.chunk_payload_bytes = frame_bytes;
  options.compression = v2 ? CompressionMode::kRuns : CompressionMode::kNone;
  BinaryTraceWriter writer(os, options);
  s.cuts.push_back(0);
  std::uint64_t written = writer.bytes_written();
  for (const TraceEvent& e : trace) {
    writer.add(e);
    if (writer.bytes_written() != written) {
      written = writer.bytes_written();
      s.cuts.push_back(static_cast<std::size_t>(written));
    }
  }
  writer.finish();
  s.wire = os.str();
  // The trailer rides with the last chunk; a trailer alone is no FEED.
  if (s.cuts.size() > 1 && s.wire.size() - s.cuts.back() == kTrailerBytes)
    s.cuts.back() = s.wire.size();
  else
    s.cuts.push_back(s.wire.size());

  // Decode frame by frame, as the daemon will, to learn how many events
  // each FEED acknowledges and how many of them arrive folded.
  BinaryTraceDecoder decoder;
  std::vector<TraceEvent> out;
  std::vector<DecodedRun> runs;
  for (std::size_t f = 0; f < s.frames(); ++f) {
    const std::uint64_t before = decoder.events_decoded();
    out.clear();
    runs.clear();
    decoder.feed(s.wire.data() + s.cuts[f], s.cuts[f + 1] - s.cuts[f], out,
                 &runs);
    std::uint64_t folded = 0;
    for (const DecodedRun& r : runs) folded += r.len * r.extra;
    s.frame_events.push_back(decoder.events_decoded() - before);
    s.frame_folded.push_back(folded);
  }
  decoder.finish();

  s.reference = detect_races_trace(trace);
  return s;
}

/// A size from stratum `k` of `n` equal strata of [lo, hi], drawn
/// uniformly within it. Giving the k-th trace of a kind the k-th stratum
/// keeps the pool's size distribution the same for every seed; the seed
/// moves each size only within its stratum.
std::uint64_t stratified(Xoshiro256& rng, std::uint64_t lo, std::uint64_t hi,
                         std::size_t k, std::size_t n) {
  const double width = static_cast<double>(hi - lo) / static_cast<double>(n);
  return lo + static_cast<std::uint64_t>(
                  width * (static_cast<double>(k) + rng.uniform01()));
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  Xoshiro256 rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return rng();
}

Workload tenants_mixed(std::uint64_t seed) {
  Workload w;
  w.name = "tenants_mixed";
  w.connections = 4;
  w.live_per_connection = 16;
  w.frame_bytes = 4 * 1024;
  w.stats_every = 256;
  Xoshiro256 rng(mix(seed, 2));
  // Fixed shares (40% racy, 30% fork loops, 30% stationary). Within each
  // kind, every group of eight consecutive traces holds each engine four
  // times and wire v1 twice, v2 six times, with sizes from one stratum:
  // engine and wire are independent of each other, of the kind and of the
  // size, and seeds change the programs but not the mix. Wire v2 is the
  // majority so that the folded stationary-loop feeds, which cost little
  // beyond the round trip itself, are more than half of all feeds and
  // feed_p50_us falls inside that cluster: with v1 and v2 even it fell in
  // the gap between the folded feeds (20-30 us) and the per-event ones
  // (55-100 us) and jumped across it from run to run.
  const std::size_t offset = rng.below(8);
  std::size_t of_kind[3] = {};
  for (std::size_t i = 0; i < 160; ++i) {
    const std::size_t kind = i % 10 < 4 ? 0 : i % 10 < 7 ? 1 : 2;
    const std::size_t j = of_kind[kind]++;
    const std::size_t combo = (j + offset) % 8;
    const DetectorEngine engine =
        combo % 2 == 1 ? DetectorEngine::kDepa : DetectorEngine::kDsu;
    const bool v2 = combo >= 2;
    if (kind == 0) {
      ProgramShape shape;
      shape.target_events = stratified(rng, 3'000, 6'000, j / 8, 8);
      shape.max_tasks = 64;
      shape.min_actions = 20;
      shape.max_actions = 80;
      shape.fork_p = 0.08;
      shape.join_p = 0.04;
      shape.pool_locs = 32;
      shape.pool_write_p = 0.1;
      ProgramGen gen(mix(seed, 1000 + i), shape);
      w.pool.push_back(make_spec("racy_program", gen.random_program(), engine,
                                 v2, w.frame_bytes));
    } else if (kind == 1) {
      w.pool.push_back(make_spec(
          "serial_fork_loop",
          serial_fork_loop(stratified(rng, 1'200, 1'800, j / 8, 6),
                           kPoolBase + 8 * i),
          engine, v2, w.frame_bytes));
    } else {
      // Template lengths 2, 3, 4 and two repetition strata: every group
      // of eight gets one combination.
      const std::size_t m = 2 + j / 8 % 3;
      const std::size_t reps = stratified(rng, 30'000, 50'000, j / 24, 2);
      w.pool.push_back(make_spec("stationary_loop",
                                 stationary_loop(m, j / 8, reps), engine, v2,
                                 w.frame_bytes));
    }
  }
  return w;
}

Workload spill_churn(std::uint64_t seed) {
  Workload w;
  w.name = "spill_churn";
  w.connections = 2;
  w.live_per_connection = 64;
  w.frame_bytes = 4 * 1024;
  w.spill = true;
  Xoshiro256 rng(mix(seed, 3));
  std::uint64_t footprint = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const DetectorEngine engine =
        i % 2 == 0 ? DetectorEngine::kDsu : DetectorEngine::kDepa;
    ProgramShape shape;
    shape.target_events = stratified(rng, 10'000, 14'000, i / 2, 32);
    shape.max_tasks = 128;
    shape.min_actions = 40;
    shape.max_actions = 200;
    shape.fork_p = 0.05;
    shape.join_p = 0.02;
    shape.pool_locs = 128;
    ProgramGen gen(mix(seed, 2000 + i), shape);
    w.pool.push_back(make_spec("mid_program", gen.random_program(), engine,
                               false, w.frame_bytes));
    // Resident size of the finished session, as the daemon measures it.
    DetectionSession session(ReportPolicy::kAll, ServiceLimits{}.max_pending_reports,
                             engine);
    const SessionSpec& s = w.pool.back();
    for (std::size_t f = 0; f < s.frames(); ++f)
      session.feed(std::string(s.frame(f)));
    footprint += session.memory_bytes();
  }
  // The budget holds about one eighth of the live sessions at full size.
  const std::size_t live = w.connections * w.live_per_connection;
  w.total_quota = footprint / w.pool.size() * live / 8;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "tenants_mixed") return tenants_mixed(seed);
  if (name == "spill_churn") return spill_churn(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace e2e
