#include "service/snapshot.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include "io/crc32c.hpp"
#include "service/protocol.hpp"
#include "support/assert.hpp"

namespace race2d {

namespace {

// Version byte history: 2 added the decoder's wire-format version and
// compressed-chunk flag; 3 replaced the DePa section's bit-path labels with
// per-interval list ranks; 4 encodes every u32/u64 field as a varint (see
// below). Older blobs are refused with K002 (the service never persisted
// them across releases).
constexpr char kMagic[8] = {'R', '2', 'D', 'S', 'N', 'A', 'P', '\x04'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 4;

/// Restore-side rejection: the K-coded message restore_session returns.
struct SnapshotReject {
  std::string message;
};

[[noreturn]] void reject(const char* code, const char* what) {
  throw SnapshotReject{std::string(code) + ": " + what};
}

// ------------------------------------------------------------ byte order --
//
// The header's length and CRC are fixed-width little-endian words. On
// little-endian hosts a word is one memcpy; the shift loops keep big-endian
// hosts byte-identical.

template <typename T>
void store_le(unsigned char* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      p[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

template <typename T>
T load_le(const unsigned char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

// -------------------------------------------------------------- varints --
//
// Every u32/u64 payload field is LEB128 of (v + 1) mod 2^width: the state is
// made of small ids and counts, and the all-ones sentinels (kInvalidVertex,
// kInvalidTask, kNullInterval) wrap to 0 and take one byte. u8 fields and
// raw byte arrays stay as they are. Only the minimal encoding of a value
// that fits its field is accepted, so a blob has exactly one valid encoding.

/// Bytes of the LEB128 encoding of `x`: one per started 7-bit group.
inline std::size_t varint_bytes(std::uint64_t x) {
  const auto top = static_cast<unsigned>(std::bit_width(x | 1)) - 1;
  return (top * 9 + 73) / 64;
}

/// The stored form of a field: v + 1, wrapping in the field's own width.
template <typename T>
std::uint64_t biased(T v) {
  return static_cast<T>(v + 1);
}

/// Decodes one varint field of type T at `p`. kChecked bounds every byte by
/// `end` (a truncation is K005); the unchecked form needs the caller to
/// guarantee ten readable bytes, the longest encoding of any field.
template <typename T, bool kChecked>
T decode_field(const unsigned char*& p, const unsigned char* end) {
  constexpr unsigned kBits = 8 * sizeof(T);
  constexpr unsigned kMaxBytes = (kBits + 6) / 7;
  std::uint64_t v = 0;
  for (unsigned i = 0;; ++i) {
    if constexpr (kChecked) {
      if (p == end) reject("K005", "payload structure truncated inside a varint");
    }
    const unsigned char byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
    if (byte < 0x80) {
      if (byte == 0 && i != 0) reject("K006", "overlong varint encoding");
      if (i == kMaxBytes - 1 && (byte >> (kBits - 7 * i)) != 0)
        reject("K006", "varint wider than its field");
      return static_cast<T>(static_cast<T>(v) - 1);
    }
    if (i == kMaxBytes - 1) reject("K006", "varint wider than its field");
  }
}

// --------------------------------------------------------------- writers --
//
// Every put_* is written once against a writer type W and run twice: over a
// Sizer, which only adds up the bytes, and then over a Writer into a buffer
// of exactly that size.

struct Sizer {
  std::size_t size = 0;

  void u8(std::uint8_t) { size += 1; }
  void u32(std::uint32_t v) { size += varint_bytes(biased(v)); }
  void u64(std::uint64_t v) { size += varint_bytes(biased(v)); }
  template <typename T>
  void words(const T* v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) size += varint_bytes(biased(v[i]));
  }
  void bytes(const void*, std::size_t n) { size += n; }
};

/// Unchecked cursor over a buffer the Sizer measured.
struct Writer {
  unsigned char* p;

  void u8(std::uint8_t v) { *p++ = v; }
  void varint(std::uint64_t x) {
    if (x < 0x80) {  // most ids and counts
      *p++ = static_cast<unsigned char>(x);
      return;
    }
    do {
      *p++ = static_cast<unsigned char>(x | 0x80);
      x >>= 7;
    } while (x >= 0x80);
    *p++ = static_cast<unsigned char>(x);
  }
  void u32(std::uint32_t v) { varint(biased(v)); }
  void u64(std::uint64_t v) { varint(biased(v)); }
  template <typename T>
  void words(const T* v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) varint(biased(v[i]));
  }
  void bytes(const void* data, std::size_t n) {
    if (n != 0) std::memcpy(p, data, n);
    p += n;
  }
};

// --------------------------------------------------------------- readers --

/// Bounds-checked payload reader; every underrun is a K005. A field is read
/// unchecked while ten or more bytes remain, and byte by byte near the end.
struct Reader {
  const unsigned char* p;
  const unsigned char* end;

  Reader(const void* data, std::size_t n)
      : p(static_cast<const unsigned char*>(data)), end(p + n) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  template <typename T>
  T field() {
    if (remaining() >= 10) {
      if (*p < 0x80) return static_cast<T>(static_cast<T>(*p++) - 1);
      return decode_field<T, false>(p, end);
    }
    return decode_field<T, true>(p, end);
  }
  std::uint8_t u8() {
    if (p == end) reject("K005", "payload structure truncated");
    return *p++;
  }
  std::uint32_t u32() { return field<std::uint32_t>(); }
  std::uint64_t u64() { return field<std::uint64_t>(); }
  /// Claims the next `n` raw bytes.
  const unsigned char* take(std::size_t n) {
    if (remaining() < n) reject("K005", "payload structure truncated");
    const unsigned char* at = p;
    p += n;
    return at;
  }
  /// An element count. Each element encodes in at least `min_elem_bytes`
  /// bytes (its field count), so the count cannot exceed the bytes left —
  /// checked BEFORE any resize so a hostile count cannot force a huge
  /// allocation.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_elem_bytes)
      reject("K005", "element count exceeds the payload size");
    return static_cast<std::size_t>(n);
  }
};

// ------------------------------------------------------- report sections --

/// Encoded bytes of a report at the least: one per field.
constexpr std::size_t kReportFields = 5;

template <typename W>
void put_report(W& w, const RaceReport& r) {
  w.u64(r.loc);
  w.u32(r.current_task);
  w.u8(static_cast<std::uint8_t>(r.current_kind));
  w.u8(static_cast<std::uint8_t>(r.prior_kind));
  w.u64(static_cast<std::uint64_t>(r.access_index));
}

RaceReport get_report(Reader& r) {
  RaceReport out;
  out.loc = r.u64();
  out.current_task = r.u32();
  const std::uint8_t ck = r.u8();
  const std::uint8_t pk = r.u8();
  if (ck > static_cast<std::uint8_t>(AccessKind::kRetire) ||
      pk > static_cast<std::uint8_t>(AccessKind::kRetire))
    reject("K006", "report names an unknown access kind");
  out.current_kind = static_cast<AccessKind>(ck);
  out.prior_kind = static_cast<AccessKind>(pk);
  out.access_index = static_cast<std::size_t>(r.u64());
  return out;
}

template <typename W>
void put_reports(W& w, const std::vector<RaceReport>& reports) {
  w.u64(reports.size());
  for (const RaceReport& r : reports) put_report(w, r);
}

std::vector<RaceReport> get_reports(Reader& r) {
  std::vector<RaceReport> out(r.count(kReportFields));
  for (RaceReport& report : out) report = get_report(r);
  return out;
}

// ------------------------------------------------------- decoder section --

template <typename W>
void put_decoder(W& w, const BinaryTraceDecoder::Snapshot& d) {
  w.u8(d.state);
  w.u8(d.version);
  w.u8(d.compressed ? 1 : 0);
  w.u64(d.need);
  w.u32(d.payload_len);
  w.u32(d.payload_crc);
  w.u64(d.offset);
  w.u64(d.events_decoded);
  w.u64(d.buffer.size());
  w.bytes(d.buffer.data(), d.buffer.size());
}

BinaryTraceDecoder::Snapshot get_decoder(Reader& r) {
  BinaryTraceDecoder::Snapshot d;
  d.state = r.u8();
  // 5 == State::kDone; 6 == kPoisoned, which never snapshots.
  if (d.state > 5) reject("K006", "decoder phase out of range");
  d.version = r.u8();
  if (d.version != kBinaryTraceVersion &&
      d.version != kBinaryTraceVersionCompressed)
    reject("K006", "decoder wire-format version out of range");
  const std::uint8_t compressed = r.u8();
  if (compressed > 1) reject("K006", "decoder compressed flag out of range");
  if (compressed != 0 && d.version != kBinaryTraceVersionCompressed)
    reject("K006", "compressed chunk flagged in a version-1 stream");
  d.compressed = compressed != 0;
  d.need = r.u64();
  d.payload_len = r.u32();
  d.payload_crc = r.u32();
  d.offset = r.u64();
  d.events_decoded = r.u64();
  const std::size_t n = r.count(1);
  const unsigned char* bytes = r.take(n);
  d.buffer.assign(bytes, bytes + n);
  if (d.need != 0 && d.buffer.size() > d.need)
    reject("K007", "decoder buffer larger than the frame it is collecting");
  return d;
}

// ---------------------------------------------------------- lint section --

template <typename W>
void put_lint(W& w, const TraceLintStream::Snapshot& l) {
  w.u64(l.index);
  w.u8(l.finished ? 1 : 0);
  w.u64(l.warnings_emitted);
  w.u64(l.errors_emitted);
  w.u64(l.tasks.size());
  for (const TraceLintStream::TaskState& t : l.tasks) {
    w.u32(t.left);
    w.u32(t.right);
    w.u32(t.finish_depth);
    w.u8(t.halted ? 1 : 0);
    w.u8(t.joined ? 1 : 0);
  }
  w.u64(l.stack.size());
  w.words(l.stack.data(), l.stack.size());
  w.u64(l.locs.size());
  for (const auto& [loc, mask] : l.locs) {
    w.u64(loc);
    w.u8(mask);
  }
  w.u64(l.mutexes.size());
  for (const auto& [id, holder] : l.mutexes) {
    w.u64(id);
    w.u32(holder);
  }
  w.u64(l.semaphores.size());
  for (const auto& [id, count] : l.semaphores) {
    w.u64(id);
    w.u64(count);
  }
}

TraceLintStream::Snapshot get_lint(Reader& r) {
  TraceLintStream::Snapshot l;
  l.index = r.u64();
  l.finished = r.u8() != 0;
  l.warnings_emitted = r.u64();
  l.errors_emitted = r.u64();
  const std::size_t tasks = r.count(5);
  l.tasks.resize(tasks);
  const auto valid_task = [tasks](TaskId t) {
    return t == kInvalidTask || t < tasks;
  };
  for (TraceLintStream::TaskState& t : l.tasks) {
    t.left = r.u32();
    t.right = r.u32();
    t.finish_depth = r.u32();
    t.halted = r.u8() != 0;
    t.joined = r.u8() != 0;
    if (!valid_task(t.left) || !valid_task(t.right))
      reject("K007", "lint task neighbor names a missing task");
  }
  l.stack.resize(r.count(1));
  for (TaskId& t : l.stack) {
    t = r.u32();
    if (t >= tasks) reject("K007", "lint stack names a missing task");
  }
  l.locs.resize(r.count(2));
  for (auto& [loc, mask] : l.locs) {
    loc = r.u64();
    mask = r.u8();
  }
  l.mutexes.resize(r.count(2));
  for (auto& [id, holder] : l.mutexes) {
    id = r.u64();
    holder = r.u32();
    if (holder != kInvalidTask && holder >= tasks)
      reject("K007", "lint mutex holder names a missing task");
  }
  l.semaphores.resize(r.count(2));
  for (auto& [id, count] : l.semaphores) {
    id = r.u64();
    count = r.u64();
  }
  return l;
}

// ------------------------------------------------------ detector sections --
//
// detector := clock image  cells  cell*  undrained  first  reports_total
//             access_count
// cell     := loc:u64  read  write  owner:u32  stamp
// Only the clock image and a cell's summary and stamp fields differ between
// engines; EngineCodec<Clock> writes, reads and validates those.

template <typename Clock>
struct EngineCodec;

/// DSU: the labeled union-find arrays plus the structural version; a
/// summary is a u32 vertex id, the stamp the u64 version it was cached at.
template <>
struct EngineCodec<DsuClock> {
  /// loc, read, write, owner, stamp.
  static constexpr std::size_t kCellFields = 5;

  template <typename W>
  static void put_clock(W& w, const DsuClock::State& s) {
    const std::size_t n = s.dsu.parent.size();
    w.u64(n);
    w.words(s.dsu.parent.data(), n);
    w.bytes(s.dsu.rank.data(), s.dsu.rank.size());
    w.words(s.dsu.label.data(), s.dsu.label.size());
    w.bytes(s.dsu.visited.data(), s.dsu.visited.size());
    w.u64(s.version);
  }
  /// `what` names the array in the K007 message.
  static void get_vertices(Reader& r, std::size_t n,
                           std::vector<std::uint32_t>& out, const char* what) {
    out.resize(n);
    for (std::uint32_t& v : out) {
      v = r.u32();
      if (v >= n) reject("K007", what);
    }
  }
  static DsuClock::State get_clock(Reader& r) {
    DsuClock::State s;
    const std::size_t n = r.count(4);  // parent, rank, label, visited
    get_vertices(r, n, s.dsu.parent, "DSU parent names a missing vertex");
    const unsigned char* in = r.take(n);
    s.dsu.rank.assign(in, in + n);
    get_vertices(r, n, s.dsu.label, "DSU label names a missing vertex");
    in = r.take(n);
    s.dsu.visited.assign(in, in + n);
    s.version = r.u64();
    return s;
  }
  template <typename W>
  static void put_summary(W& w, VertexId v) {
    w.u32(v);
  }
  static VertexId get_summary(Reader& r) { return r.u32(); }
  template <typename W>
  static void put_stamp(W& w, std::uint64_t version) {
    w.u64(version);
  }
  static std::uint64_t get_stamp(Reader& r) { return r.u64(); }

  template <typename CellState>
  static void check_cell(const DsuClock::State& s, const CellState& c) {
    const std::size_t n = s.dsu.parent.size();
    const auto valid = [n](std::uint32_t v) {
      return v == kInvalidVertex || v < n;
    };
    if (!valid(c.read) || !valid(c.write) || !valid(c.owner))
      reject("K007", "shadow cell names a missing vertex");
  }
};

/// DePa: per-interval (e_rank, h_rank, task) triples plus each task's
/// current interval index; a summary is two u64 interval indices, and there
/// is no stamp.
template <>
struct EngineCodec<DePaClock> {
  /// loc, read.e, read.h, write.e, write.h, owner.
  static constexpr std::size_t kCellFields = 6;

  template <typename W>
  static void put_clock(W& w, const DePaClock::State& s) {
    w.u64(s.intervals.size());
    for (const OmClock::IntervalState& iv : s.intervals) {
      w.u32(iv.e_rank);
      w.u32(iv.h_rank);
      w.u32(iv.task);
    }
    w.u64(s.cur.size());
    w.words(s.cur.data(), s.cur.size());
  }
  static DePaClock::State get_clock(Reader& r) {
    DePaClock::State s;
    const std::size_t intervals = r.count(3);  // e_rank, h_rank, task
    s.intervals.resize(intervals);
    // Each list's ranks must be a permutation of [0, intervals): restore
    // relinks the lists in rank order.
    std::vector<std::uint8_t> e_seen(intervals, 0);
    std::vector<std::uint8_t> h_seen(intervals, 0);
    for (OmClock::IntervalState& iv : s.intervals) {
      iv.e_rank = r.u32();
      iv.h_rank = r.u32();
      iv.task = r.u32();
      if (iv.e_rank >= intervals || e_seen[iv.e_rank] != 0 ||
          iv.h_rank >= intervals || h_seen[iv.h_rank] != 0)
        reject("K006", "interval list ranks are not a permutation");
      e_seen[iv.e_rank] = h_seen[iv.h_rank] = 1;
    }
    s.cur.resize(r.count(1));
    for (std::uint64_t& idx : s.cur) {
      idx = r.u64();
      if (idx >= intervals)
        reject("K007", "task interval index names a missing interval");
    }
    for (const OmClock::IntervalState& iv : s.intervals) {
      if (iv.task != kInvalidTask && iv.task >= s.cur.size())
        reject("K007", "interval names a missing task");
    }
    return s;
  }
  template <typename W>
  static void put_summary(W& w, const DePaClock::SummaryImage& m) {
    w.u64(m.e);
    w.u64(m.h);
  }
  static DePaClock::SummaryImage get_summary(Reader& r) {
    DePaClock::SummaryImage m;
    m.e = r.u64();
    m.h = r.u64();
    return m;
  }
  template <typename W>
  static void put_stamp(W&, NoStamp) {}
  static NoStamp get_stamp(Reader&) { return {}; }

  template <typename CellState>
  static void check_cell(const DePaClock::State& s, const CellState& c) {
    const std::size_t n = s.intervals.size();
    const auto valid = [n](std::uint64_t idx) {
      return idx == DePaClock::kNullInterval || idx < n;
    };
    if (!valid(c.read.e) || !valid(c.read.h) || !valid(c.write.e) ||
        !valid(c.write.h))
      reject("K007", "shadow cell names a missing interval");
    // The per-kind maxima are folded together: both set or both null.
    const auto half_set = [](const DePaClock::SummaryImage& m) {
      return (m.e == DePaClock::kNullInterval) !=
             (m.h == DePaClock::kNullInterval);
    };
    if (half_set(c.read) || half_set(c.write))
      reject("K007", "shadow cell maxima half-set");
    if (c.owner != kInvalidTask && c.owner >= s.cur.size())
      reject("K007", "shadow cell owner names a missing task");
  }
};

template <typename Clock, typename W>
void put_detector(W& w, const typename RaceDetector<Clock>::State& s) {
  using Codec = EngineCodec<Clock>;
  Codec::put_clock(w, s.clock);
  w.u64(s.cells.size());
  for (const auto& c : s.cells) {
    w.u64(c.loc);
    Codec::put_summary(w, c.read);
    Codec::put_summary(w, c.write);
    w.u32(c.owner);
    Codec::put_stamp(w, c.stamp);
  }
  put_reports(w, s.undrained);
  put_report(w, s.first);
  w.u64(s.reports_total);
  w.u64(s.access_count);
}

template <typename Clock>
typename RaceDetector<Clock>::State get_detector(Reader& r) {
  using Codec = EngineCodec<Clock>;
  typename RaceDetector<Clock>::State s;
  s.clock = Codec::get_clock(r);
  s.cells.resize(r.count(Codec::kCellFields));
  for (auto& c : s.cells) {
    c.loc = r.u64();
    c.read = Codec::get_summary(r);
    c.write = Codec::get_summary(r);
    c.owner = r.u32();
    c.stamp = Codec::get_stamp(r);
    Codec::check_cell(s.clock, c);
  }
  s.undrained = get_reports(r);
  s.first = get_report(r);
  s.reports_total = r.u64();
  s.access_count = r.u64();
  return s;
}

// ----------------------------------------------------------- whole blobs --

/// Frames, CRC-checks and opens `blob`; returns a reader over the payload.
Reader open_payload(const std::string& blob) {
  if (blob.size() < kHeaderBytes)
    reject("K001", "blob truncated before the fixed header");
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0)
    reject("K002", "bad magic or unsupported snapshot version");
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(blob.data()) + sizeof(kMagic);
  const auto len = load_le<std::uint32_t>(p);
  const auto crc = load_le<std::uint32_t>(p + 4);
  if (blob.size() != kHeaderBytes + static_cast<std::size_t>(len))
    reject("K003", "payload length disagrees with the blob size");
  const char* payload = blob.data() + kHeaderBytes;
  if (crc32c(payload, len) != crc) reject("K004", "payload CRC32C mismatch");
  return Reader(payload, len);
}

template <typename W>
void put_payload(W& w, const DetectionSession::State& s,
                 std::size_t quota_bytes) {
  w.u64(s.fed_bytes);
  w.u8(static_cast<std::uint8_t>(s.policy));
  w.u8(static_cast<std::uint8_t>(s.engine));
  w.u64(static_cast<std::uint64_t>(quota_bytes));
  w.u64(s.max_pending_reports);
  w.u64(s.events_total);
  put_decoder(w, s.decoder);
  put_lint(w, s.lint);
  if (s.engine == DetectorEngine::kDsu)
    put_detector<DsuClock>(w, s.dsu);
  else
    put_detector<DePaClock>(w, s.depa);
  put_reports(w, s.pending);
}

DetectionSession::State decode_payload(Reader& r, std::uint64_t& quota_bytes) {
  DetectionSession::State s;
  s.fed_bytes = r.u64();
  const std::uint8_t policy = r.u8();
  const std::uint8_t engine = r.u8();
  if (policy > static_cast<std::uint8_t>(ReportPolicy::kFirstOnly))
    reject("K006", "unknown report policy");
  if (engine > static_cast<std::uint8_t>(DetectorEngine::kDepa))
    reject("K006", "unknown detector engine");
  s.policy = static_cast<ReportPolicy>(policy);
  s.engine = static_cast<DetectorEngine>(engine);
  quota_bytes = r.u64();
  if (quota_bytes == 0) reject("K006", "session quota out of range");
  s.max_pending_reports = r.u64();
  s.events_total = r.u64();
  s.decoder = get_decoder(r);
  s.lint = get_lint(r);
  if (s.engine == DetectorEngine::kDsu)
    s.dsu = get_detector<DsuClock>(r);
  else
    s.depa = get_detector<DePaClock>(r);
  s.pending = get_reports(r);
  if (r.remaining() != 0)
    reject("K005", "trailing bytes after the session state");
  return s;
}

}  // namespace

std::string snapshot_session(const DetectionSession& session,
                             std::size_t quota_bytes) {
  const DetectionSession::State s = session.export_state();
  Sizer sizer;
  put_payload(sizer, s, quota_bytes);
  std::string blob(kHeaderBytes + sizer.size, '\0');
  auto* out = reinterpret_cast<unsigned char*>(blob.data());
  Writer w{out + kHeaderBytes};
  put_payload(w, s, quota_bytes);
  R2D_ASSERT(w.p == out + blob.size());
  std::memcpy(out, kMagic, sizeof(kMagic));
  store_le(out + sizeof(kMagic), static_cast<std::uint32_t>(sizer.size));
  store_le(out + sizeof(kMagic) + 4,
           crc32c(out + kHeaderBytes, sizer.size));
  return blob;
}

RestoreOutcome restore_session(const std::string& blob) {
  RestoreOutcome out;
  try {
    Reader r = open_payload(blob);
    DetectionSession::State s = decode_payload(r, out.quota_bytes);
    out.session = DetectionSession::restore(std::move(s));
  } catch (const SnapshotReject& e) {
    out.quota_bytes = 0;
    out.error = e.message;
  }
  return out;
}

bool snapshot_fed_bytes(const std::string& blob, std::uint64_t& fed_bytes,
                        std::string& error) {
  try {
    Reader r = open_payload(blob);
    fed_bytes = r.u64();
    return true;
  } catch (const SnapshotReject& e) {
    error = e.message;
    return false;
  }
}

}  // namespace race2d
