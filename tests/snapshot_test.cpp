// Session snapshot/restore: round-trip fidelity at every chunk boundary
// (both engines), cross-worker migration through the pool, and the
// rejection contract — every truncation prefix and every single-bit flip
// of a valid blob must bounce with a stable K-code, never crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_analyzer.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_writer.hpp"
#include "io/crc32c.hpp"
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

/// Overwrites the payload's CRC so a deliberately edited blob passes the
/// frame checks and reaches the payload decoder.
void reseal(std::string& blob) {
  const std::uint32_t crc = crc32c(blob.data() + 16, blob.size() - 16);
  for (int i = 0; i < 4; ++i)
    blob[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xffu);
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

// Pins the v3 byte layout: the snapshot of a session fed a whole corpus
// stream (not yet closed) has a fixed length and CRC32C on each engine. Shadow
// cells (owner caches included), the clock image and the report backlog
// all feed the CRC, so any change to what a snapshot stores — or to the
// detector state that produces it — shows up here.
TEST(Snapshot, V3BlobBytesArePinned) {
  struct Pin {
    const char* file;
    DetectorEngine engine;
    std::size_t length;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {"retire-reuse-race.btrace", DetectorEngine::kDsu, 367, 779278340u},
      {"retire-reuse-race.btrace", DetectorEngine::kDepa, 461, 3231886033u},
      {"serial-fork-loop.btrace", DetectorEngine::kDsu, 98623, 2077428944u},
      {"serial-fork-loop.btrace", DetectorEngine::kDepa, 237913, 4100713302u},
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
  // Corrupt the engine byte (payload offset 9 → blob offset 25) to an
  // out-of-range value and RE-SEAL the CRC: the frame checks pass, the
  // payload decoder must catch it as K006.
  ASSERT_GT(blob.size(), 26u);
  blob[25] = '\x7f';
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
  // Locate the clock section: u64 count, then (e_rank, h_rank, task) u32s.
  const auto& intervals = whole.session->export_state().depa.clock.intervals;
  ASSERT_GE(intervals.size(), 2u);
  std::string section;
  const auto put = [&section](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      section.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  };
  put(intervals.size(), 8);
  for (const OmClock::IntervalState& iv : intervals) {
    put(iv.e_rank, 4);
    put(iv.h_rank, 4);
    put(iv.task, 4);
  }
  const std::size_t at = blob.find(section);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.find(section, at + 1), std::string::npos);
  const std::size_t second_e_rank = at + 8 + 12;
  const std::size_t first_h_rank = at + 8 + 4;

  // A repeated E rank, an out-of-range H rank: both K006.
  std::string repeated = blob;
  repeated.replace(second_e_rank, 4, blob, at + 8, 4);
  reseal(repeated);
  std::string out_of_range = blob;
  out_of_range[first_h_rank] = static_cast<char>(intervals.size());
  reseal(out_of_range);
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
  ASSERT_EQ(blob[7], '\x03');
  for (const char version : {'\x01', '\x02'}) {
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
