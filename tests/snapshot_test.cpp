// Session snapshot/restore: round-trip fidelity at every chunk boundary
// (both engines), cross-worker migration through the pool, and the
// rejection contract — every truncation prefix and every single-bit flip
// of a valid blob must bounce with a stable K-code, never crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_analyzer.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "io/crc32c.hpp"
#include "io/varint.hpp"
#include "runtime/trace_io.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/worker_pool.hpp"

namespace race2d {
namespace {

Trace racy_trace() {
  return parse_trace_text(
      "fork 0 1\n"
      "write 1 10\n"
      "halt 1\n"
      "read 0 10\n"
      "join 0 1\n"
      "halt 0\n");
}

Trace generated(std::uint64_t seed) {
  return generate_trace(FuzzPlan::from_seed(seed)).trace;
}

std::uint32_t open_session(DetectionService& service, DetectorEngine engine) {
  Request req;
  req.verb = Verb::kOpen;
  req.open.engine = engine;
  const Response rsp = service.handle(req);
  EXPECT_EQ(rsp.status, ServiceStatus::kOk);
  return rsp.session;
}

Response feed_bytes(DetectionService& service, std::uint32_t session,
                    const std::string& bytes) {
  Request req;
  req.verb = Verb::kFeed;
  req.session = session;
  req.bytes = bytes;
  return service.handle(req);
}

std::vector<RaceReport> drain_session(DetectionService& service,
                                      std::uint32_t session) {
  std::vector<RaceReport> out;
  for (;;) {
    Request req;
    req.verb = Verb::kDrain;
    req.session = session;
    const Response rsp = service.handle(req);
    EXPECT_EQ(rsp.status, ServiceStatus::kOk);
    out.insert(out.end(), rsp.drain.reports.begin(), rsp.drain.reports.end());
    if (!rsp.drain.more) return out;
  }
}

std::string snapshot_via_service(DetectionService& service,
                                 std::uint32_t session) {
  Request req;
  req.verb = Verb::kSnapshot;
  req.session = session;
  const Response rsp = service.handle(req);
  EXPECT_EQ(rsp.status, ServiceStatus::kOk) << rsp.message;
  EXPECT_FALSE(rsp.blob.empty());
  return rsp.blob;
}

/// Has the blob's error-code prefix: "Kxxx: ...".
bool has_k_code(const std::string& error) {
  return error.size() >= 5 && error[0] == 'K' &&
         std::isdigit(static_cast<unsigned char>(error[1])) &&
         std::isdigit(static_cast<unsigned char>(error[2])) &&
         std::isdigit(static_cast<unsigned char>(error[3])) &&
         error[4] == ':';
}

/// Overwrites the payload's length and CRC so a deliberately edited blob
/// passes the frame checks and reaches the payload decoder.
void reseal(std::string& blob) {
  const auto len = static_cast<std::uint32_t>(blob.size() - 16);
  const std::uint32_t crc = crc32c(blob.data() + 16, blob.size() - 16);
  for (int i = 0; i < 4; ++i) {
    blob[8 + i] = static_cast<char>((len >> (8 * i)) & 0xffu);
    blob[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xffu);
  }
}

/// A v4 payload field as the codec stores it: LEB128 of v + 1, wrapping in
/// the field's width.
template <typename T>
void put_field(std::string& out, T v) {
  append_varint(out, static_cast<T>(v + 1));
}

#ifndef RACE2D_CORPUS_DIR
#error "tests/CMakeLists.txt must define RACE2D_CORPUS_DIR"
#endif

std::string read_corpus_bytes(const char* name) {
  std::ifstream in(std::string(RACE2D_CORPUS_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Pins the v4 byte layout: the snapshot of a session fed a whole corpus
// stream (not yet closed) has a fixed length and CRC32C on each engine. Shadow
// cells (owner caches included), the clock image and the report backlog
// all feed the CRC, so any change to what a snapshot stores, to how its
// fields are encoded, or to the detector state that produces it shows up
// here. (The same four sessions took 367, 461, 98623 and 237913 bytes as
// fixed-width v3 blobs.)
TEST(Snapshot, V4BlobBytesArePinned) {
  struct Pin {
    const char* file;
    DetectorEngine engine;
    std::size_t length;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {"retire-reuse-race.btrace", DetectorEngine::kDsu, 99, 4049584956u},
      {"retire-reuse-race.btrace", DetectorEngine::kDepa, 112, 3450021092u},
      {"serial-fork-loop.btrace", DetectorEngine::kDsu, 40934, 1466887501u},
      {"serial-fork-loop.btrace", DetectorEngine::kDepa, 93891, 2652534376u},
  };
  for (const Pin& pin : pins) {
    const std::string wire = read_corpus_bytes(pin.file);
    ASSERT_FALSE(wire.empty()) << pin.file;
    DetectionSession session(ReportPolicy::kAll, 1u << 16, pin.engine);
    const auto outcome = session.feed(wire);
    ASSERT_EQ(outcome.status, ServiceStatus::kOk) << outcome.message;
    ASSERT_GT(session.pending_reports(), 0u) << pin.file;
    const std::string blob = snapshot_session(session, 1u << 20);
    EXPECT_EQ(blob.size(), pin.length)
        << pin.file << " engine " << static_cast<int>(pin.engine);
    EXPECT_EQ(crc32c(blob.data(), blob.size()), pin.crc)
        << pin.file << " engine " << static_cast<int>(pin.engine);
  }
}

/// Byte offsets where an R2DT stream's header, frames and trailer end,
/// plus the midpoint of every frame (a cut that leaves a partial frame in
/// the decoder's buffer). Starts with 0.
std::vector<std::size_t> frame_cuts(const std::string& wire) {
  std::vector<std::size_t> cuts = {0, kBinaryHeaderBytes};
  std::size_t pos = kBinaryHeaderBytes;
  while (pos < wire.size()) {
    const auto marker = static_cast<std::uint8_t>(wire[pos]);
    if (marker == kTrailerMarker) {
      pos = wire.size();
    } else {
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(wire[pos + 1 + i]))
               << (8 * i);
      cuts.push_back(pos + (9 + len) / 2);
      pos += 9 + len;
    }
    cuts.push_back(std::min(pos, wire.size()));
  }
  return cuts;
}

bool same_summary(VertexId a, VertexId b) { return a == b; }
bool same_summary(const DePaClock::SummaryImage& a,
                  const DePaClock::SummaryImage& b) {
  return a.e == b.e && a.h == b.h;
}

void expect_same_reports(const std::vector<RaceReport>& a,
                         const std::vector<RaceReport>& b,
                         const std::string& where) {
  EXPECT_EQ(a, b) << where;
}

void expect_same_clock(const DsuClock::State& a, const DsuClock::State& b,
                       const std::string& where) {
  EXPECT_EQ(a.dsu.parent, b.dsu.parent) << where;
  EXPECT_EQ(a.dsu.rank, b.dsu.rank) << where;
  EXPECT_EQ(a.dsu.label, b.dsu.label) << where;
  EXPECT_EQ(a.dsu.visited, b.dsu.visited) << where;
  EXPECT_EQ(a.version, b.version) << where;
}

void expect_same_clock(const DePaClock::State& a, const DePaClock::State& b,
                       const std::string& where) {
  ASSERT_EQ(a.intervals.size(), b.intervals.size()) << where;
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].e_rank, b.intervals[i].e_rank) << where << " " << i;
    EXPECT_EQ(a.intervals[i].h_rank, b.intervals[i].h_rank) << where << " " << i;
    EXPECT_EQ(a.intervals[i].task, b.intervals[i].task) << where << " " << i;
  }
  EXPECT_EQ(a.cur, b.cur) << where;
}

template <typename DetectorState>
void expect_same_detector(const DetectorState& a, const DetectorState& b,
                          const std::string& where) {
  expect_same_clock(a.clock, b.clock, where);
  ASSERT_EQ(a.cells.size(), b.cells.size()) << where;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& x = a.cells[i];
    const auto& y = b.cells[i];
    EXPECT_EQ(x.loc, y.loc) << where << " cell " << i;
    EXPECT_TRUE(same_summary(x.read, y.read)) << where << " cell " << i;
    EXPECT_TRUE(same_summary(x.write, y.write)) << where << " cell " << i;
    EXPECT_EQ(x.owner, y.owner) << where << " cell " << i;
    EXPECT_TRUE(x.stamp == y.stamp) << where << " cell " << i;
  }
  expect_same_reports(a.undrained, b.undrained, where);
  EXPECT_EQ(a.first, b.first) << where;
  EXPECT_EQ(a.reports_total, b.reports_total) << where;
  EXPECT_EQ(a.access_count, b.access_count) << where;
}

/// Field-by-field equality of two whole-session images.
void expect_same_state(const DetectionSession::State& a,
                       const DetectionSession::State& b,
                       const std::string& where) {
  EXPECT_EQ(a.policy, b.policy) << where;
  ASSERT_EQ(a.engine, b.engine) << where;
  EXPECT_EQ(a.max_pending_reports, b.max_pending_reports) << where;
  EXPECT_EQ(a.events_total, b.events_total) << where;
  EXPECT_EQ(a.fed_bytes, b.fed_bytes) << where;

  EXPECT_EQ(a.decoder.state, b.decoder.state) << where;
  EXPECT_EQ(a.decoder.buffer, b.decoder.buffer) << where;
  EXPECT_EQ(a.decoder.need, b.decoder.need) << where;
  EXPECT_EQ(a.decoder.payload_len, b.decoder.payload_len) << where;
  EXPECT_EQ(a.decoder.payload_crc, b.decoder.payload_crc) << where;
  EXPECT_EQ(a.decoder.offset, b.decoder.offset) << where;
  EXPECT_EQ(a.decoder.events_decoded, b.decoder.events_decoded) << where;
  EXPECT_EQ(a.decoder.version, b.decoder.version) << where;
  EXPECT_EQ(a.decoder.compressed, b.decoder.compressed) << where;

  EXPECT_EQ(a.lint.index, b.lint.index) << where;
  EXPECT_EQ(a.lint.finished, b.lint.finished) << where;
  EXPECT_EQ(a.lint.warnings_emitted, b.lint.warnings_emitted) << where;
  EXPECT_EQ(a.lint.errors_emitted, b.lint.errors_emitted) << where;
  ASSERT_EQ(a.lint.tasks.size(), b.lint.tasks.size()) << where;
  for (std::size_t i = 0; i < a.lint.tasks.size(); ++i) {
    const auto& x = a.lint.tasks[i];
    const auto& y = b.lint.tasks[i];
    EXPECT_EQ(x.left, y.left) << where << " lint task " << i;
    EXPECT_EQ(x.right, y.right) << where << " lint task " << i;
    EXPECT_EQ(x.finish_depth, y.finish_depth) << where << " lint task " << i;
    EXPECT_EQ(x.halted, y.halted) << where << " lint task " << i;
    EXPECT_EQ(x.joined, y.joined) << where << " lint task " << i;
  }
  EXPECT_EQ(a.lint.stack, b.lint.stack) << where;
  EXPECT_EQ(a.lint.locs, b.lint.locs) << where;
  EXPECT_EQ(a.lint.mutexes, b.lint.mutexes) << where;
  EXPECT_EQ(a.lint.semaphores, b.lint.semaphores) << where;

  if (a.engine == DetectorEngine::kDsu)
    expect_same_detector(a.dsu, b.dsu, where);
  else
    expect_same_detector(a.depa, b.depa, where);
  expect_same_reports(a.pending, b.pending, where);
}

// Nothing is lost in the codec: restoring a snapshot rebuilds exactly the
// state that was exported, field by field, at every frame boundary (and
// mid-frame) of every corpus stream, on both engines.
TEST(Snapshot, RestoredStateEqualsExported) {
  std::size_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(RACE2D_CORPUS_DIR)) {
    if (entry.path().extension() != ".btrace") continue;
    const std::string name = entry.path().filename().string();
    const std::string wire = read_corpus_bytes(name.c_str());
    for (const DetectorEngine engine :
         {DetectorEngine::kDsu, DetectorEngine::kDepa}) {
      for (const std::size_t cut : frame_cuts(wire)) {
        const std::string where = name + " engine " +
                                  std::to_string(static_cast<int>(engine)) +
                                  " cut " + std::to_string(cut);
        DetectionSession session(ReportPolicy::kAll, 1u << 16, engine);
        const auto fed = session.feed(wire.substr(0, cut));
        ASSERT_EQ(fed.status, ServiceStatus::kOk) << where << fed.message;
        const DetectionSession::State exported = session.export_state();
        const RestoreOutcome back =
            restore_session(snapshot_session(session, 1u << 20));
        ASSERT_NE(back.session, nullptr) << where << ": " << back.error;
        EXPECT_EQ(back.quota_bytes, 1u << 20) << where;
        expect_same_state(back.session->export_state(), exported, where);
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 19u * 2u * 4u);
}

// The central property: snapshot at EVERY feed-chunk boundary, restore into
// a fresh service, feed the remainder — the combined report stream is
// bit-identical to an uninterrupted run, for both engines.
TEST(Snapshot, RoundTripsAtEveryChunkBoundaryBothEngines) {
  constexpr std::size_t kChunk = 64;
  for (const DetectorEngine engine :
       {DetectorEngine::kDsu, DetectorEngine::kDepa}) {
    for (const std::uint64_t seed : {7ull, 31ull, 123ull}) {
      const Trace trace = generated(seed);
      const std::string wire = trace_to_binary(trace);
      const std::vector<RaceReport> expected = detect_races_trace(trace);
      for (std::size_t cut = 0; cut <= wire.size(); cut += kChunk) {
        // Phase 1: feed the prefix, snapshot (pending reports and all).
        DetectionService a;
        const std::uint32_t ida = open_session(a, engine);
        std::uint64_t events_before = 0;
        for (std::size_t off = 0; off < cut; off += kChunk) {
          const Response r = feed_bytes(
              a, ida, wire.substr(off, std::min(kChunk, cut - off)));
          ASSERT_EQ(r.status, ServiceStatus::kOk) << r.message;
          events_before = r.feed.events;
        }
        const std::string blob = snapshot_via_service(a, ida);
        std::uint64_t fed = 0;
        std::string error;
        ASSERT_TRUE(snapshot_fed_bytes(blob, fed, error)) << error;
        EXPECT_EQ(fed, cut);

        // Phase 2: restore into a DIFFERENT service, feed the remainder.
        DetectionService b;
        Request restore;
        restore.verb = Verb::kRestore;
        restore.bytes = blob;
        const Response restored = b.handle(restore);
        ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
        const std::uint32_t idb = restored.session;
        for (std::size_t off = cut; off < wire.size(); off += kChunk) {
          const Response r = feed_bytes(
              b, idb, wire.substr(off, std::min(kChunk, wire.size() - off)));
          ASSERT_EQ(r.status, ServiceStatus::kOk)
              << "engine " << static_cast<int>(engine) << " seed " << seed
              << " cut " << cut << ": " << r.message;
        }
        EXPECT_EQ(drain_session(b, idb), expected)
            << "engine " << static_cast<int>(engine) << " seed " << seed
            << " cut " << cut;
        Request close;
        close.verb = Verb::kClose;
        close.session = idb;
        const Response closed = b.handle(close);
        ASSERT_EQ(closed.status, ServiceStatus::kOk);
        EXPECT_TRUE(closed.close.complete);
        EXPECT_EQ(closed.close.events, trace.size());
        (void)events_before;
      }
    }
  }
}

// The same property over a version-2 run-compressed stream: a snapshot cut
// can land inside a 'Z' frame (the decoder's partial-chunk buffer, the
// chunk dictionary lifetime) and even between the materialized first
// repetition of a run and its fast-forwarded remainder. Every 64-byte split
// must still finish bit-identical to the uninterrupted uncompressed run, on
// both engines.
TEST(Snapshot, RoundTripsCompressedStreamsAtEverySplitBothEngines) {
  constexpr std::size_t kChunk = 64;
  BinaryWriteOptions zopt;
  zopt.compression = CompressionMode::kRuns;
  zopt.chunk_payload_bytes = 512;  // several 'Z' frames even on small traces
  // A run-heavy trace (tight access loops) plus a generated one: the former
  // exercises the detector fast path across the snapshot boundary, the
  // latter the literal-item paths.
  Trace loops = parse_trace_text(
      "fork 0 1\n"
      "write 1 16\n"
      "halt 1\n"
      "read 0 16\n"
      "join 0 1\n"
      "halt 0\n");
  {
    Trace t;
    t.push_back({TraceOp::kFork, 0, 1});
    for (int i = 0; i < 300; ++i) {
      t.push_back({TraceOp::kRead, 1, kInvalidTask, 0x40});
      t.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x40});
    }
    t.push_back({TraceOp::kHalt, 1});
    t.push_back({TraceOp::kJoin, 0, 1});
    t.push_back({TraceOp::kHalt, 0});
    loops = t;
  }
  for (const DetectorEngine engine :
       {DetectorEngine::kDsu, DetectorEngine::kDepa}) {
    for (const Trace& trace : {loops, generated(123)}) {
      const std::string wire = trace_to_binary(trace, zopt);
      const std::vector<RaceReport> expected = detect_races_trace(trace);
      for (std::size_t cut = 0; cut <= wire.size(); cut += kChunk) {
        DetectionService a;
        const std::uint32_t ida = open_session(a, engine);
        for (std::size_t off = 0; off < cut; off += kChunk) {
          const Response r = feed_bytes(
              a, ida, wire.substr(off, std::min(kChunk, cut - off)));
          ASSERT_EQ(r.status, ServiceStatus::kOk) << r.message;
        }
        const std::string blob = snapshot_via_service(a, ida);
        DetectionService b;
        Request restore;
        restore.verb = Verb::kRestore;
        restore.bytes = blob;
        const Response restored = b.handle(restore);
        ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
        const std::uint32_t idb = restored.session;
        for (std::size_t off = cut; off < wire.size(); off += kChunk) {
          const Response r = feed_bytes(
              b, idb, wire.substr(off, std::min(kChunk, wire.size() - off)));
          ASSERT_EQ(r.status, ServiceStatus::kOk)
              << "engine " << static_cast<int>(engine) << " cut " << cut
              << ": " << r.message;
        }
        EXPECT_EQ(drain_session(b, idb), expected)
            << "engine " << static_cast<int>(engine) << " cut " << cut;
        Request close;
        close.verb = Verb::kClose;
        close.session = idb;
        const Response closed = b.handle(close);
        ASSERT_EQ(closed.status, ServiceStatus::kOk) << closed.message;
        EXPECT_TRUE(closed.close.complete);
        EXPECT_EQ(closed.close.events, trace.size());
      }
    }
  }
}

// Restore is the migration mechanism: a session snapshotted on one worker
// restores onto a DIFFERENT worker of a different pool under a fresh id
// congruent to the target shard, and finishes the stream there.
TEST(Snapshot, MigratesAcrossWorkersThroughThePool) {
  const Trace trace = generated(55);
  const std::string wire = trace_to_binary(trace);
  const std::vector<RaceReport> expected = detect_races_trace(trace);
  const std::size_t cut = wire.size() / 2;

  WorkerPool source(8);
  Request open;
  open.verb = Verb::kOpen;
  open.open.engine = DetectorEngine::kDepa;
  Response rsp = source.handle(open);
  ASSERT_EQ(rsp.status, ServiceStatus::kOk);
  const std::uint32_t id = rsp.session;
  Request feed;
  feed.verb = Verb::kFeed;
  feed.session = id;
  feed.bytes = wire.substr(0, cut);
  ASSERT_EQ(source.handle(feed).status, ServiceStatus::kOk);
  Request snap;
  snap.verb = Verb::kSnapshot;
  snap.session = id;
  rsp = source.handle(snap);
  ASSERT_EQ(rsp.status, ServiceStatus::kOk) << rsp.message;
  const std::string blob = rsp.blob;

  WorkerPool target(8);
  const std::size_t shard = (source.shard_of(id) + 5) % 8;  // a different one
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = blob;
  Response restored;
  std::atomic<bool> done{false};
  target.submit_to(shard, restore, [&](Response r) {
    restored = std::move(r);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
  EXPECT_EQ(restored.session % 8u, shard);
  EXPECT_NE(restored.session, id);

  feed.session = restored.session;
  feed.bytes = wire.substr(cut);
  ASSERT_EQ(target.handle(feed).status, ServiceStatus::kOk);
  std::vector<RaceReport> got;
  for (;;) {
    Request drain;
    drain.verb = Verb::kDrain;
    drain.session = restored.session;
    const Response d = target.handle(drain);
    ASSERT_EQ(d.status, ServiceStatus::kOk);
    got.insert(got.end(), d.drain.reports.begin(), d.drain.reports.end());
    if (!d.drain.more) break;
  }
  EXPECT_EQ(got, expected);
}

TEST(Snapshot, EveryTruncationPrefixIsRejected) {
  for (const DetectorEngine engine :
       {DetectorEngine::kDsu, DetectorEngine::kDepa}) {
    DetectionService service;
    const std::uint32_t id = open_session(service, engine);
    const std::string wire = trace_to_binary(generated(9));
    ASSERT_EQ(feed_bytes(service, id, wire.substr(0, wire.size() / 2)).status,
              ServiceStatus::kOk);
    const std::string blob = snapshot_via_service(service, id);
    for (std::size_t len = 0; len < blob.size(); ++len) {
      const RestoreOutcome out = restore_session(blob.substr(0, len));
      ASSERT_EQ(out.session, nullptr) << "prefix " << len;
      ASSERT_TRUE(has_k_code(out.error))
          << "prefix " << len << ": " << out.error;
      // A truncated blob dies in the frame checks, before any payload parse.
      const std::string code = out.error.substr(0, 4);
      EXPECT_TRUE(code == "K001" || code == "K003")
          << "prefix " << len << ": " << out.error;
    }
    // The untruncated blob still restores — the loop did not mutate it.
    EXPECT_NE(restore_session(blob).session, nullptr);
  }
}

TEST(Snapshot, EverySingleBitFlipIsRejected) {
  // A small trace keeps the blob small enough to try literally every bit.
  DetectionService service;
  const std::uint32_t id = open_session(service, DetectorEngine::kDepa);
  const std::string wire = trace_to_binary(racy_trace());
  ASSERT_EQ(feed_bytes(service, id, wire.substr(0, wire.size() - 3)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  // The fork made three intervals, so the sweep crosses a real rank section.
  const RestoreOutcome whole = restore_session(blob);
  ASSERT_NE(whole.session, nullptr) << whole.error;
  ASSERT_GE(whole.session->export_state().depa.clock.intervals.size(), 3u);
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = blob;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      const RestoreOutcome out = restore_session(mutated);
      ASSERT_EQ(out.session, nullptr) << "byte " << byte << " bit " << bit;
      ASSERT_TRUE(has_k_code(out.error))
          << "byte " << byte << " bit " << bit << ": " << out.error;
    }
  }
}

TEST(Snapshot, StructurallyInvalidPayloadsGetTheirOwnCodes) {
  DetectionService service;
  const std::uint32_t id = open_session(service, DetectorEngine::kDsu);
  ASSERT_EQ(feed_bytes(service, id, trace_to_binary(racy_trace())).status,
            ServiceStatus::kOk);
  std::string blob = snapshot_via_service(service, id);
  // Corrupt the engine byte (after the fed_bytes varint and the policy
  // byte) to an out-of-range value and RE-SEAL the CRC: the frame checks
  // pass, the payload decoder must catch it as K006.
  std::uint64_t fed = 0;
  std::string error;
  ASSERT_TRUE(snapshot_fed_bytes(blob, fed, error)) << error;
  std::string fed_field;
  put_field(fed_field, fed);
  ASSERT_EQ(blob.compare(16, fed_field.size(), fed_field), 0);
  const std::size_t engine_at = 16 + fed_field.size() + 1;
  ASSERT_EQ(blob[engine_at], static_cast<char>(DetectorEngine::kDsu));
  blob[engine_at] = '\x7f';
  reseal(blob);
  const RestoreOutcome out = restore_session(blob);
  ASSERT_EQ(out.session, nullptr);
  EXPECT_EQ(out.error.substr(0, 4), "K006") << out.error;
}

TEST(Snapshot, DePaRanksMustBePermutations) {
  DetectionService service;
  const std::uint32_t id = open_session(service, DetectorEngine::kDepa);
  ASSERT_EQ(feed_bytes(service, id, trace_to_binary(racy_trace())).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  const RestoreOutcome whole = restore_session(blob);
  ASSERT_NE(whole.session, nullptr) << whole.error;
  // Locate the clock section: the interval count, then (e_rank, h_rank,
  // task) per interval, each a v4 varint field.
  const auto& intervals = whole.session->export_state().depa.clock.intervals;
  ASSERT_GE(intervals.size(), 2u);
  const auto encode = [](const std::vector<OmClock::IntervalState>& ivs) {
    std::string section;
    put_field<std::uint64_t>(section, ivs.size());
    for (const OmClock::IntervalState& iv : ivs) {
      put_field(section, iv.e_rank);
      put_field(section, iv.h_rank);
      put_field(section, iv.task);
    }
    return section;
  };
  const std::string section = encode(intervals);
  const std::size_t at = blob.find(section);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.find(section, at + 1), std::string::npos);
  const auto with_section = [&](std::vector<OmClock::IntervalState> ivs) {
    std::string mutated = blob;
    mutated.replace(at, section.size(), encode(ivs));
    reseal(mutated);
    return mutated;
  };

  // A repeated E rank, an out-of-range H rank: both K006.
  auto ivs = intervals;
  ivs[1].e_rank = ivs[0].e_rank;
  const std::string repeated = with_section(ivs);
  ivs = intervals;
  ivs[0].h_rank = static_cast<std::uint32_t>(intervals.size());
  const std::string out_of_range = with_section(ivs);
  for (const std::string* bad : {&repeated, &out_of_range}) {
    const RestoreOutcome out = restore_session(*bad);
    ASSERT_EQ(out.session, nullptr);
    EXPECT_EQ(out.error.substr(0, 4), "K006") << out.error;
  }
}

TEST(Snapshot, OlderVersionBlobsAreRefused) {
  DetectionService service;
  const std::uint32_t id = open_session(service, DetectorEngine::kDepa);
  ASSERT_EQ(feed_bytes(service, id, trace_to_binary(racy_trace())).status,
            ServiceStatus::kOk);
  std::string blob = snapshot_via_service(service, id);
  ASSERT_EQ(blob[7], '\x04');
  for (const char version : {'\x01', '\x02', '\x03'}) {
    blob[7] = version;
    const RestoreOutcome out = restore_session(blob);
    ASSERT_EQ(out.session, nullptr);
    EXPECT_EQ(out.error.substr(0, 4), "K002") << out.error;
  }
}

TEST(Snapshot, PoisonedSessionsRefuseToSnapshot) {
  DetectionService service;
  const std::uint32_t id = open_session(service, DetectorEngine::kDsu);
  ASSERT_EQ(feed_bytes(service, id, "this is not R2DT data").status,
            ServiceStatus::kDecodeReject);
  Request snap;
  snap.verb = Verb::kSnapshot;
  snap.session = id;
  const Response rsp = service.handle(snap);
  EXPECT_EQ(rsp.status, ServiceStatus::kSnapshotReject);
  EXPECT_EQ(rsp.message.substr(0, 4), "K008") << rsp.message;
}

TEST(Snapshot, ServiceRejectsGarbageRestoreBlobs) {
  DetectionService service;
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = "definitely not a snapshot";
  const Response rsp = service.handle(restore);
  EXPECT_EQ(rsp.status, ServiceStatus::kSnapshotReject);
  EXPECT_TRUE(has_k_code(rsp.message)) << rsp.message;
  EXPECT_EQ(service.live_sessions(), 0u);
}

// A tightened per-session quota travels with the snapshot: the restored
// session keeps the original OPEN's cap instead of silently widening to the
// target service's default — and a target with a SMALLER per-session limit
// clamps the recorded quota down to it.
TEST(Snapshot, PerSessionQuotaSurvivesRestore) {
  // One task touching thousands of locations: the snapshotted prefix is
  // tiny, but feeding the remainder inflates shadow memory far past the
  // tightened quota.
  std::string text = "fork 0 1\n";
  for (int loc = 0; loc < 4000; ++loc)
    text += "write 1 " + std::to_string(loc) + "\n";
  text += "halt 1\njoin 0 1\nhalt 0\n";
  const std::string wire = trace_to_binary(parse_trace_text(text));

  DetectionService a;
  Request open;
  open.verb = Verb::kOpen;
  open.open.engine = DetectorEngine::kDsu;
  open.open.quota_bytes = 16384;  // far below the 64 MiB service default
  const Response opened = a.handle(open);
  ASSERT_EQ(opened.status, ServiceStatus::kOk);
  constexpr std::size_t kCut = 64;
  ASSERT_EQ(feed_bytes(a, opened.session, wire.substr(0, kCut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(a, opened.session);

  const auto feed_rest_until_reject = [&wire](DetectionService& service,
                                              std::uint32_t id) {
    Response last;
    for (std::size_t off = kCut;
         off < wire.size() && last.status == ServiceStatus::kOk; off += 4096)
      last = feed_bytes(service, id, wire.substr(off, 4096));
    return last;
  };

  DetectionService b;  // default limits: quota must NOT widen to them
  Request restore;
  restore.verb = Verb::kRestore;
  restore.bytes = blob;
  Response restored = b.handle(restore);
  ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
  Response last = feed_rest_until_reject(b, restored.session);
  EXPECT_EQ(last.status, ServiceStatus::kQuotaEvicted) << last.message;
  EXPECT_NE(last.message.find("16384"), std::string::npos) << last.message;

  ServiceLimits tight;
  tight.session_quota_bytes = 8192;  // below the blob's recorded quota
  DetectionService c(tight);
  restored = c.handle(restore);
  ASSERT_EQ(restored.status, ServiceStatus::kOk) << restored.message;
  last = feed_rest_until_reject(c, restored.session);
  EXPECT_EQ(last.status, ServiceStatus::kQuotaEvicted) << last.message;
  EXPECT_NE(last.message.find("8192"), std::string::npos) << last.message;
}

// ---- v4 varint fields -------------------------------------------------------

/// Frames `payload` as a v4 blob with a correct length and CRC.
std::string v4_blob(const std::string& payload) {
  std::string blob("R2DSNAP\x04", 8);
  blob.append(8, '\0');
  blob += payload;
  reseal(blob);
  return blob;
}

/// The payload of an empty DSU session up to its decoder's `need` field
/// inclusive; the next field is the decoder's u32 payload_len.
std::string payload_through_need() {
  std::string p;
  put_field<std::uint64_t>(p, 0);        // fed_bytes
  p.push_back(0);                        // policy
  p.push_back(0);                        // engine
  put_field<std::uint64_t>(p, 1 << 20);  // quota_bytes
  put_field<std::uint64_t>(p, 16);       // max_pending_reports
  put_field<std::uint64_t>(p, 0);        // events_total
  p.push_back(0);                        // decoder state
  p.push_back(1);                        // decoder wire-format version
  p.push_back(0);                        // decoder compressed flag
  put_field<std::uint64_t>(p, 8);        // decoder need: the R2DT header
  return p;
}

std::string restore_code(const std::string& blob) {
  const RestoreOutcome out = restore_session(blob);
  EXPECT_EQ(out.session, nullptr);
  return out.error.substr(0, 4);
}

// Every malformed varint has one code, whether the decoder meets it on its
// unchecked path (ten or more bytes left) or its checked one (near the end).
TEST(SnapshotVarint, MalformedFieldsGetTheirCodes) {
  // The hand-built prefix is the real layout: a fresh session's payload
  // starts with it.
  const DetectionSession fresh(ReportPolicy::kAll, 16, DetectorEngine::kDsu);
  const std::string real = snapshot_session(fresh, 1 << 20);
  ASSERT_EQ(real.compare(16, payload_through_need().size(),
                         payload_through_need()),
            0);

  const std::string padding(12, '\x01');
  const std::string wide_u32("\x80\x80\x80\x80\x10", 5);  // 2^32
  for (const std::string& tail : {std::string(), padding}) {
    const char* path = tail.empty() ? "checked" : "unchecked";
    // Overlong: 0 as two bytes.
    EXPECT_EQ(restore_code(v4_blob(std::string("\x80\x00", 2) + tail)), "K006")
        << path;
    // A u32 field (the decoder's payload_len) holding 2^32.
    EXPECT_EQ(restore_code(v4_blob(payload_through_need() + wide_u32 + tail)),
              "K006")
        << path;
    // A u32 field with a sixth byte.
    EXPECT_EQ(restore_code(v4_blob(payload_through_need() +
                                   std::string("\x81\x80\x80\x80\x80\x01", 6) +
                                   tail)),
              "K006")
        << path;
    // A u64 field (fed_bytes) holding 2^64, and one with an eleventh byte.
    const std::string wide_u64 = std::string(9, '\x80') + '\x02';
    EXPECT_EQ(restore_code(v4_blob(wide_u64 + tail)), "K006") << path;
    EXPECT_EQ(restore_code(v4_blob(std::string(10, '\x81') + '\x01' + tail)),
              "K006")
        << path;
  }
  // The widest legal values still decode: fed_bytes = 2^64 - 2 and a u32
  // payload_len of 2^32 - 2 (their stored forms are all-ones).
  std::string widest;
  put_field<std::uint64_t>(widest, ~std::uint64_t{0} - 1);
  EXPECT_EQ(widest.size(), 10u);
  std::uint64_t fed = 0;
  std::string error;
  EXPECT_TRUE(snapshot_fed_bytes(v4_blob(widest), fed, error)) << error;
  EXPECT_EQ(fed, ~std::uint64_t{0} - 1);
  // Truncated inside a varint.
  EXPECT_EQ(restore_code(v4_blob("\x80")), "K005");
  EXPECT_EQ(restore_code(v4_blob(payload_through_need() + "\x80\x80")), "K005");
  EXPECT_FALSE(snapshot_fed_bytes(v4_blob("\xff"), fed, error));
  EXPECT_EQ(error.substr(0, 4), "K005") << error;
}

// A hostile element count is refused as K005 before anything is sized by
// it: 2^40 lint task records would abort the process if allocated.
TEST(SnapshotVarint, HostileCountIsRejectedBeforeAllocation) {
  std::string p = payload_through_need();
  put_field<std::uint32_t>(p, 0);           // decoder payload_len
  put_field<std::uint32_t>(p, 0);           // decoder payload_crc
  put_field<std::uint64_t>(p, 0);           // decoder offset
  put_field<std::uint64_t>(p, 0);           // decoder events_decoded
  put_field<std::uint64_t>(p, 0);           // decoder buffer byte count
  put_field<std::uint64_t>(p, 0);           // lint index
  p.push_back(0);                           // lint finished
  put_field<std::uint64_t>(p, 0);           // lint warnings_emitted
  put_field<std::uint64_t>(p, 0);           // lint errors_emitted
  put_field<std::uint64_t>(p, 1ull << 40);  // lint task count
  p.append(64, '\0');
  EXPECT_EQ(restore_code(v4_blob(p)), "K005");
}

// Seeded random mutations of real v4 blobs, resealed so each reaches the
// payload decoder: every one is either refused with a payload code
// (K005–K007) or restores to a session that snapshots and restores again.
// Runs under the sanitizer builds, which catch any read past the payload.
TEST(SnapshotVarint, RandomMutationsAreRejectedOrRestoreCleanly) {
  std::vector<std::string> blobs;
  for (const DetectorEngine engine :
       {DetectorEngine::kDsu, DetectorEngine::kDepa}) {
    for (const std::uint64_t seed : {9ull, 31ull}) {
      DetectionService service;
      const std::uint32_t id = open_session(service, engine);
      const std::string wire = trace_to_binary(generated(seed));
      ASSERT_EQ(feed_bytes(service, id, wire.substr(0, wire.size() * 2 / 3))
                    .status,
                ServiceStatus::kOk);
      blobs.push_back(snapshot_via_service(service, id));
    }
  }
  std::mt19937_64 rng(20261020);
  std::size_t rejected = 0;
  std::size_t restored = 0;
  for (int i = 0; i < 2400; ++i) {
    std::string blob = blobs[static_cast<std::size_t>(i) % blobs.size()];
    const std::size_t payload = blob.size() - 16;
    const std::size_t at = 16 + rng() % payload;
    const auto byte = static_cast<char>(rng() & 0xFF);
    switch (rng() % 5) {
      case 0:  // random byte
        blob[at] = byte;
        break;
      case 1:  // one bit
        blob[at] = static_cast<char>(blob[at] ^ (1 << (rng() % 8)));
        break;
      case 2:  // a continuation or terminator where none was
        blob[at] = static_cast<char>(blob[at] ^ 0x80);
        break;
      case 3:  // insert
        blob.insert(blob.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      default:  // delete
        blob.erase(at, 1);
        break;
    }
    reseal(blob);
    const RestoreOutcome out = restore_session(blob);
    if (out.session == nullptr) {
      const std::string code = out.error.substr(0, 4);
      ASSERT_TRUE(code == "K005" || code == "K006" || code == "K007")
          << "mutation " << i << ": " << out.error;
      ++rejected;
      continue;
    }
    const std::string again = snapshot_session(*out.session, out.quota_bytes);
    const RestoreOutcome back = restore_session(again);
    ASSERT_NE(back.session, nullptr) << "mutation " << i << ": " << back.error;
    ++restored;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(restored, 0u);
}

TEST(Snapshot, FedBytesPeekMatchesWithoutFullRestore) {
  DetectionService service;
  const std::uint32_t id = open_session(service, DetectorEngine::kDsu);
  const std::string wire = trace_to_binary(generated(42));
  const std::size_t cut = std::min<std::size_t>(200, wire.size());
  ASSERT_EQ(feed_bytes(service, id, wire.substr(0, cut)).status,
            ServiceStatus::kOk);
  const std::string blob = snapshot_via_service(service, id);
  std::uint64_t fed = 0;
  std::string error;
  ASSERT_TRUE(snapshot_fed_bytes(blob, fed, error)) << error;
  EXPECT_EQ(fed, cut);
  EXPECT_FALSE(snapshot_fed_bytes("junk", fed, error));
  EXPECT_TRUE(has_k_code(error)) << error;
}

}  // namespace
}  // namespace race2d
