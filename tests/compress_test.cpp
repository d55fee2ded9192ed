// The compress/ subsystem: version-2 run-compressed chunks and the spill
// tier under the service's cold tier.
//
//  * v2 round trip: every trace shape expands from its run-compressed
//    encoding to the identical event list, and re-encoding the expansion as
//    version 1 reproduces the version-1 bytes exactly (v2 is a pure
//    re-framing, never lossy);
//  * the version-1 encoding is byte-untouched by this PR (regression pin);
//  * rejection taxonomy: targeted structural mutants trigger each new code
//    B015–B018 (with the chunk CRC re-computed, so the CRC pass cannot mask
//    the structural check), and every truncation prefix and single-bit flip
//    of a valid v2 stream is rejected;
//  * the run sink surfaces stationary runs and the detector fast path is
//    bit-identical to per-event replay on both engines;
//  * spill tier: store/load round trip, LRU budget eviction, K009/K010,
//    the start-up sweep of stale spill files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "compress/chunk_codec.hpp"
#include "compress/run_decoder.hpp"
#include "compress/spill_tier.hpp"
#include "fuzz/fuzz_plan.hpp"
#include "fuzz/trace_gen.hpp"
#include "io/binary_reader.hpp"
#include "io/binary_writer.hpp"
#include "io/crc32c.hpp"
#include "io/varint.hpp"
#include "runtime/trace.hpp"
#include "service/session.hpp"
#include "support/ids.hpp"

namespace race2d {
namespace {

Trace repetitive_trace(std::size_t reps = 500) {
  // One forked child hammering its accumulator — the run compressor's
  // target shape. Valid Figure-9 serial order.
  Trace t;
  t.push_back({TraceOp::kFork, 0, 1});
  t.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x1000});
  for (std::size_t i = 0; i < reps; ++i) {
    t.push_back({TraceOp::kRead, 1, kInvalidTask, 0x1000});
    t.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x1000});
  }
  t.push_back({TraceOp::kHalt, 1});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  return t;
}

Trace racy_repetitive_trace(std::size_t reps = 200) {
  // Parent and un-joined child hammer the SAME location: races fire inside
  // the runs, so the fast path must bail and per-event replay must yield
  // the exact report stream.
  Trace t;
  t.push_back({TraceOp::kFork, 0, 1});
  for (std::size_t i = 0; i < reps; ++i)
    t.push_back({TraceOp::kWrite, 1, kInvalidTask, 0x2000});
  t.push_back({TraceOp::kHalt, 1});
  // The parent resumes WITHOUT joining: its accesses race with the child's.
  for (std::size_t i = 0; i < reps; ++i)
    t.push_back({TraceOp::kWrite, 0, kInvalidTask, 0x2000});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  return t;
}

std::string v1_bytes(const Trace& t) { return trace_to_binary(t); }

std::string v2_bytes(const Trace& t, std::size_t chunk_payload = 64 * 1024) {
  BinaryWriteOptions options;
  options.compression = CompressionMode::kRuns;
  options.chunk_payload_bytes = chunk_payload;
  return trace_to_binary(t, options);
}

DecodeCode decode_code_of(const std::string& bytes) {
  try {
    (void)trace_from_binary(bytes);
  } catch (const TraceDecodeError& e) {
    return e.code();
  }
  ADD_FAILURE() << "input decoded without error";
  return DecodeCode::kBadMagic;
}

void expect_pure_reframing(const Trace& trace, std::size_t chunk_payload) {
  const std::string v1 = v1_bytes(trace);
  const std::string v2 = v2_bytes(trace, chunk_payload);
  const Trace expanded = trace_from_binary(v2);
  ASSERT_EQ(expanded, trace);
  EXPECT_EQ(trace_to_binary(expanded), v1);
}

TEST(CompressedRoundTrip, RepetitiveGeneratedAndEdgeShapes) {
  expect_pure_reframing(Trace{}, 64 * 1024);
  expect_pure_reframing(repetitive_trace(), 64 * 1024);
  expect_pure_reframing(racy_repetitive_trace(), 64 * 1024);
  for (const std::uint64_t seed : {7ull, 99ull, 12345ull, 0xDEADBEEFull})
    expect_pure_reframing(generate_trace(FuzzPlan::from_seed(seed)).trace,
                          64 * 1024);
  // Tiny chunks: runs split across many chunk boundaries (registers and the
  // template dictionary reset at each), every boundary a fresh state.
  expect_pure_reframing(repetitive_trace(), 64);
  expect_pure_reframing(repetitive_trace(), 1);
}

TEST(CompressedRoundTrip, CompressesTheRepetitiveWorkload) {
  const Trace t = repetitive_trace(5000);
  const std::string v1 = v1_bytes(t);
  const std::string v2 = v2_bytes(t);
  // The acceptance floor is 2x; this shape folds far better.
  EXPECT_GE(v1.size(), 2 * v2.size())
      << "v1=" << v1.size() << " v2=" << v2.size();
}

TEST(CompressedRoundTrip, Version1BytesAreUntouched) {
  // Regression pin: the default (kNone) encoding of a fixed trace is
  // byte-identical to what every earlier release wrote — header version 1,
  // 'C' chunks only, no 'Z' anywhere.
  const std::string bytes = v1_bytes(repetitive_trace(8));
  EXPECT_EQ(bytes[4], 1);    // version byte
  EXPECT_EQ(bytes[8], 'C');  // first frame is a plain chunk
  EXPECT_EQ(trace_from_binary(bytes), repetitive_trace(8));
}

TEST(CompressedRoundTrip, MixedChunksAreLegal) {
  // A v2 stream may interleave 'C' and 'Z' chunks: the writer only emits
  // 'Z' when it is smaller. An incompressible chunk (every event distinct)
  // stays 'C' even under kRuns.
  Trace t;
  std::mt19937_64 rng(42);
  t.push_back({TraceOp::kFork, 0, 1});
  for (int i = 0; i < 200; ++i)
    t.push_back({TraceOp::kWrite, 1, kInvalidTask, rng()});
  t.push_back({TraceOp::kHalt, 1});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  expect_pure_reframing(t, 256);
}

TEST(RunDecoder, SurfacesStationaryRuns) {
  const Trace t = repetitive_trace(500);
  const std::string z = v2_bytes(t);
  RunDecoder decoder;
  std::vector<TraceEvent> out;
  std::vector<DecodedRun> runs;
  decoder.feed(z.data(), z.size(), out, runs);
  decoder.finish();
  ASSERT_FALSE(runs.empty()) << "repetitive stream surfaced no runs";
  std::uint64_t expanded = out.size();
  for (const DecodedRun& run : runs) {
    ASSERT_GT(run.len, 0u);
    ASSERT_LE(run.first + run.len, out.size());
    expanded += static_cast<std::uint64_t>(run.len) * run.extra;
  }
  EXPECT_EQ(expanded, t.size());
  EXPECT_EQ(decoder.events_decoded(), t.size());
  // Null sink (the default) fully expands instead.
  BinaryTraceDecoder full;
  std::vector<TraceEvent> everything;
  full.feed(z.data(), z.size(), everything);
  full.finish();
  EXPECT_EQ(everything, t);
}

TEST(RunReplay, BitIdenticalReportsOnBothEngines) {
  for (const Trace& t : {repetitive_trace(500), racy_repetitive_trace(100),
                         generate_trace(FuzzPlan::from_seed(77)).trace}) {
    const std::string v1 = v1_bytes(t);
    const std::string v2 = v2_bytes(t);
    for (const DetectorEngine engine :
         {DetectorEngine::kDsu, DetectorEngine::kDepa}) {
      DetectionSession plain(ReportPolicy::kAll, 1u << 20, engine);
      DetectionSession fast(ReportPolicy::kAll, 1u << 20, engine);
      const auto a = plain.feed(v1);
      const auto b = fast.feed(v2);
      ASSERT_EQ(a.status, ServiceStatus::kOk);
      ASSERT_EQ(b.status, ServiceStatus::kOk);
      EXPECT_EQ(a.events, b.events);
      bool more = false;
      EXPECT_EQ(plain.drain(0, more), fast.drain(0, more));
      EXPECT_EQ(plain.events_total(), fast.events_total());
    }
  }
}

// A chunk with more distinct run templates than the per-chunk dictionary
// holds: once it is full, the writer must keep further runs literal (a
// define past the cap is B015 to the reader), and the stream must still
// detect exactly as its version-1 encoding does.
TEST(CompressedRoundTrip, FullTemplateDictionaryFallsBackToLiterals) {
  constexpr Loc kBase = 0x1000;
  Trace t;
  t.push_back({TraceOp::kFork, 0, 1});
  for (Loc d = 1; d <= 5000; ++d) {
    for (int rep = 0; rep < 2; ++rep) {
      t.push_back({TraceOp::kWrite, 1, kInvalidTask, kBase});
      t.push_back({TraceOp::kWrite, 1, kInvalidTask, kBase + 8 * d});
    }
  }
  t.push_back({TraceOp::kHalt, 1});
  // The parent reads before it joins: races with the child's writes.
  t.push_back({TraceOp::kRead, 0, kInvalidTask, kBase});
  t.push_back({TraceOp::kRead, 0, kInvalidTask, kBase + 8 * 4999});
  t.push_back({TraceOp::kJoin, 0, 1});
  t.push_back({TraceOp::kHalt, 0});
  BinaryWriteOptions zopt;
  zopt.compression = CompressionMode::kRuns;
  zopt.chunk_payload_bytes = 1u << 20;
  const std::string v2 = trace_to_binary(t, zopt);
  const std::string v1 = trace_to_binary(t);
  EXPECT_EQ(trace_from_binary(v2), t);
  for (const DetectorEngine engine :
       {DetectorEngine::kDsu, DetectorEngine::kDepa}) {
    DetectionSession plain(ReportPolicy::kAll, 1u << 20, engine);
    DetectionSession z(ReportPolicy::kAll, 1u << 20, engine);
    const auto a = plain.feed(v1);
    const auto b = z.feed(v2);
    ASSERT_EQ(a.status, ServiceStatus::kOk) << a.message;
    ASSERT_EQ(b.status, ServiceStatus::kOk) << b.message;
    EXPECT_EQ(a.events, b.events);
    bool more = false;
    const std::vector<RaceReport> expected = plain.drain(0, more);
    EXPECT_EQ(expected.size(), 2u);
    EXPECT_EQ(z.drain(0, more), expected);
  }
}

// ---- rejection taxonomy ---------------------------------------------------

void append_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void append_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// Hand-frames one 'Z' chunk around `payload` (CRC freshly computed, so a
/// structural check — not the CRC pass — must do the rejecting) and seals
/// the stream with a trailer declaring `total_events`.
std::string v2_stream_with_payload(const std::string& payload,
                                   std::uint64_t total_events) {
  std::string s = "R2DT";
  s.push_back(2);
  s.append(3, '\0');
  s.push_back('Z');
  append_u32le(s, static_cast<std::uint32_t>(payload.size()));
  append_u32le(s, crc32c(payload.data(), payload.size()));
  s += payload;
  s.push_back('E');
  std::string count;
  append_u64le(count, total_events);
  s += count;
  append_u32le(s, crc32c(count.data(), count.size()));
  return s;
}

/// Delta bytes of a halt-by-task-0 event from reset registers: opcode then
/// zigzag(0) — the smallest legal template body.
std::string halt_event_bytes() {
  std::string e;
  e.push_back(static_cast<char>(TraceOp::kHalt));
  e.push_back(0);  // varint zigzag(actor 0 - prev 0)
  return e;
}

TEST(CompressedRejection, B015BadItemTag) {
  std::string payload;
  append_varint(payload, 1);     // one event
  payload.push_back('\x07');     // unknown item tag
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 1)),
            DecodeCode::kBadCompressedItem);
}

TEST(CompressedRejection, B015EmptyLiteral) {
  std::string payload;
  append_varint(payload, 1);
  payload.push_back('\x00');  // literal item
  append_varint(payload, 0);  // ...of zero events
  payload += halt_event_bytes();
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 1)),
            DecodeCode::kBadCompressedItem);
}

TEST(CompressedRejection, B015EmptyTemplate) {
  std::string payload;
  append_varint(payload, 4);
  payload.push_back('\x01');  // define+run
  append_varint(payload, 4);  // reps
  append_varint(payload, 0);  // m == 0
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 4)),
            DecodeCode::kBadCompressedItem);
}

TEST(CompressedRejection, B016DefineRunNeedsTwoReps) {
  std::string payload;
  append_varint(payload, 1);
  payload.push_back('\x01');
  append_varint(payload, 1);  // reps < 2: a run of one is a literal
  append_varint(payload, 1);
  payload += halt_event_bytes();
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 1)),
            DecodeCode::kBadRunCount);
}

TEST(CompressedRejection, B016ZeroDictRun) {
  std::string payload;
  append_varint(payload, 3);
  payload.push_back('\x01');  // define template 0 with 2 reps
  append_varint(payload, 2);
  append_varint(payload, 1);
  payload += halt_event_bytes();
  payload.push_back('\x02');  // dict-run of it...
  append_varint(payload, 0);  // template id
  append_varint(payload, 0);  // ...zero times
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 3)),
            DecodeCode::kBadRunCount);
}

TEST(CompressedRejection, B016ExpansionPastDeclaredCount) {
  std::string payload;
  append_varint(payload, 3);  // declares 3 events...
  payload.push_back('\x01');
  append_varint(payload, 4);  // ...but the run expands to 4
  append_varint(payload, 1);
  payload += halt_event_bytes();
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 3)),
            DecodeCode::kBadRunCount);
}

TEST(CompressedRejection, B017UndefinedTemplate) {
  std::string payload;
  append_varint(payload, 2);
  payload.push_back('\x02');  // dict-run of a template never defined
  append_varint(payload, 0);
  append_varint(payload, 2);
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 2)),
            DecodeCode::kBadTemplateRef);
}

TEST(CompressedRejection, B018DeclaredCountOverCap) {
  std::string payload;
  append_varint(payload, kMaxCompressedChunkEvents + 1ull);
  payload.push_back('\x00');
  append_varint(payload, 1);
  payload += halt_event_bytes();
  EXPECT_EQ(decode_code_of(v2_stream_with_payload(payload, 1)),
            DecodeCode::kChunkTooManyEvents);
}

TEST(CompressedRejection, ZMarkerIllegalInVersion1) {
  // Take a valid v2 stream and flip the header version byte back to 1: the
  // first 'Z' marker must be refused (B009) before any payload is touched.
  std::string bytes = v2_bytes(repetitive_trace(100));
  ASSERT_EQ(bytes[4], 2);
  bytes[4] = 1;
  EXPECT_EQ(decode_code_of(bytes), DecodeCode::kBadFrameMarker);
}

TEST(CompressedRejection, EveryTruncationPrefixThrows) {
  const std::string bytes = v2_bytes(repetitive_trace(40), 128);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      (void)trace_from_binary(bytes.substr(0, cut));
      ADD_FAILURE() << "truncation to " << cut << " bytes decoded";
    } catch (const TraceDecodeError&) {
    }
  }
}

TEST(CompressedRejection, EverySingleBitFlipThrows) {
  const std::string bytes = v2_bytes(repetitive_trace(40), 128);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(static_cast<unsigned char>(corrupt[i]) ^
                                     (1u << bit));
      try {
        (void)trace_from_binary(corrupt);
        ADD_FAILURE() << "bit " << bit << " of byte " << i << " decoded";
      } catch (const TraceDecodeError&) {
      }
    }
  }
}

// ---- spill tier -----------------------------------------------------------

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("race2d-spill-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

TEST(SpillTier, StoreLoadRoundTrip) {
  TempDir dir;
  SpillTier tier(dir.path.string(), 1u << 20);
  std::string blob(5000, 'q');
  blob += "tail structure";
  const SpillTier::StoreResult stored = tier.store(7, blob);
  EXPECT_TRUE(stored.stored);
  EXPECT_TRUE(stored.dropped.empty());
  EXPECT_TRUE(tier.contains(7));
  EXPECT_EQ(tier.sessions(), 1u);
  EXPECT_GT(tier.bytes(), 0u);
  std::string error;
  const std::optional<std::string> back = tier.load(7, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, blob);
  EXPECT_FALSE(tier.contains(7));  // load always consumes
  EXPECT_EQ(tier.bytes(), 0u);
}

TEST(SpillTier, LruEvictionUnderBudget) {
  TempDir dir;
  std::mt19937_64 rng(3);
  std::string incompressible;
  for (int i = 0; i < 4000; ++i)
    incompressible.push_back(static_cast<char>(rng() & 0xFF));
  SpillTier tier(dir.path.string(), 3 * (incompressible.size() + 256));
  EXPECT_TRUE(tier.store(1, incompressible).stored);
  EXPECT_TRUE(tier.store(2, incompressible).stored);
  EXPECT_TRUE(tier.store(3, incompressible).stored);
  // The fourth spill pushes past the budget: session 1 (least recently
  // spilled) is dropped for real.
  const SpillTier::StoreResult fourth = tier.store(4, incompressible);
  EXPECT_TRUE(fourth.stored);
  ASSERT_EQ(fourth.dropped.size(), 1u);
  EXPECT_EQ(fourth.dropped[0], 1u);
  EXPECT_FALSE(tier.contains(1));
  EXPECT_TRUE(tier.contains(4));
  // A blob that alone exceeds the whole budget is refused outright.
  std::string huge;
  for (int i = 0; i < 40000; ++i)
    huge.push_back(static_cast<char>(rng() & 0xFF));
  SpillTier tiny(dir.path.string() + "/tiny", 100);
  std::filesystem::create_directories(dir.path / "tiny");
  EXPECT_FALSE(tiny.store(9, huge).stored);
}

TEST(SpillTier, FailedWriteKeepsTheLruVictimsLoadable) {
  TempDir dir;
  std::mt19937_64 rng(5);
  std::string incompressible;
  for (int i = 0; i < 4000; ++i)
    incompressible.push_back(static_cast<char>(rng() & 0xFF));
  SpillTier tier(dir.path.string(), 3 * (incompressible.size() + 256));
  for (std::uint32_t id = 1; id <= 3; ++id)
    ASSERT_TRUE(tier.store(id, incompressible + std::to_string(id)).stored);
  // A directory squatting on the spill path makes the write fail. The tier
  // is full, so a successful store would have dropped session 1.
  std::filesystem::create_directories(dir.path / "sess-4.spill");
  const SpillTier::StoreResult failed = tier.store(4, incompressible);
  EXPECT_FALSE(failed.stored);
  EXPECT_TRUE(failed.dropped.empty());
  EXPECT_FALSE(tier.contains(4));
  EXPECT_EQ(tier.sessions(), 3u);
  for (std::uint32_t id = 1; id <= 3; ++id) {
    std::string error;
    const std::optional<std::string> back = tier.load(id, &error);
    ASSERT_TRUE(back.has_value()) << "session " << id << ": " << error;
    EXPECT_EQ(*back, incompressible + std::to_string(id));
  }
}

TEST(SpillTier, K009StructuralDamage) {
  TempDir dir;
  SpillTier tier(dir.path.string(), 1u << 20);
  ASSERT_TRUE(tier.store(5, std::string(1000, 'z')).stored);
  // Truncate the file below the header.
  const std::filesystem::path file = dir.path / "sess-5.spill";
  std::filesystem::resize_file(file, 10);
  std::string error;
  EXPECT_FALSE(tier.load(5, &error).has_value());
  EXPECT_NE(error.find("K009"), std::string::npos) << error;
  EXPECT_FALSE(tier.contains(5));  // consumed even on failure

  ASSERT_TRUE(tier.store(6, std::string(1000, 'z')).stored);
  {
    std::ofstream f(dir.path / "sess-6.spill",
                    std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XXXX", 4);  // clobber the magic
  }
  error.clear();
  EXPECT_FALSE(tier.load(6, &error).has_value());
  EXPECT_NE(error.find("K009"), std::string::npos) << error;

  // Missing file (deleted behind the tier's back).
  ASSERT_TRUE(tier.store(8, std::string(100, 'y')).stored);
  std::filesystem::remove(dir.path / "sess-8.spill");
  error.clear();
  EXPECT_FALSE(tier.load(8, &error).has_value());
  EXPECT_NE(error.find("K009"), std::string::npos) << error;
}

TEST(SpillTier, K010PayloadDamage) {
  TempDir dir;
  SpillTier tier(dir.path.string(), 1u << 20);
  ASSERT_TRUE(tier.store(11, std::string(2000, 'p')).stored);
  const std::filesystem::path file = dir.path / "sess-11.spill";
  // Flip one payload byte (past the 21-byte header): CRC catches it.
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    ASSERT_GT(size, 25);
    f.seekg(24);
    char c = 0;
    f.read(&c, 1);
    f.seekp(24);
    c = static_cast<char>(static_cast<unsigned char>(c) ^ 0x40);
    f.write(&c, 1);
  }
  std::string error;
  EXPECT_FALSE(tier.load(11, &error).has_value());
  EXPECT_NE(error.find("K010"), std::string::npos) << error;
}

TEST(SpillTier, ConstructorSweepsOnlyStaleSpillFiles) {
  TempDir dir;
  const auto plant = [&](const std::string& name) {
    std::ofstream(dir.path / name, std::ios::binary) << "stale";
  };
  // What an earlier process's tier leaves behind: no later tier can load
  // these (the index lived in that process), so they are deleted.
  const std::vector<std::string> stale = {"sess-1.spill", "sess-42.spill.tmp",
                                          "sess-4294967295.spill"};
  // Anything else is someone else's and stays.
  const std::vector<std::string> foreign = {
      "notes.txt",          "sess-1.spill.bak", "sess-.spill",
      "sess-01.spill",      "sess-x.spill",     "xsess-1.spill",
      "sess-4294967296.spill", "sess-3.spilltmp"};
  for (const std::string& name : stale) plant(name);
  for (const std::string& name : foreign) plant(name);
  std::filesystem::create_directories(dir.path / "sess-7.spill");
  plant("target");
  std::filesystem::create_symlink(dir.path / "target",
                                  dir.path / "sess-9.spill");

  SpillTier tier(dir.path.string(), 1u << 20);
  EXPECT_EQ(tier.sessions(), 0u);
  EXPECT_EQ(tier.bytes(), 0u);
  for (const std::string& name : stale)
    EXPECT_FALSE(std::filesystem::exists(dir.path / name)) << name;
  for (const std::string& name : foreign)
    EXPECT_TRUE(std::filesystem::exists(dir.path / name)) << name;
  EXPECT_TRUE(std::filesystem::is_directory(dir.path / "sess-7.spill"));
  EXPECT_TRUE(std::filesystem::is_symlink(dir.path / "sess-9.spill"));
  EXPECT_TRUE(std::filesystem::exists(dir.path / "target"));

  // A missing directory is not an error: there is nothing stale in it.
  SpillTier missing((dir.path / "absent").string(), 1u << 20);
  EXPECT_EQ(missing.sessions(), 0u);
}

}  // namespace
}  // namespace race2d
