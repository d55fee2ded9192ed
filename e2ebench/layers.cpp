#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <variant>

#include "compress/spill_tier.hpp"
#include "core/depa_detector.hpp"
#include "core/detector.hpp"
#include "io/binary_reader.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "service/worker_pool.hpp"
#include "verify/trace_lint.hpp"

namespace e2e {

namespace {

using namespace race2d;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Median cost of one Clock::now(); every timed group of events pays one,
/// so it is subtracted from each.
double clock_overhead_ns() {
  std::vector<double> d;
  for (int i = 0; i < 2001; ++i) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    d.push_back(ns_between(a, b));
  }
  std::nth_element(d.begin(), d.begin() + 1000, d.end());
  return d[1000];
}

/// Every span of one request, ns. The request's index in the log is the
/// span id all passes share.
struct RequestSpans {
  double pool = 0;       ///< WorkerPool::handle
  double service = 0;    ///< DetectionService::handle
  double proto = 0;      ///< all four codec calls
  double proto_rtt = 0;  ///< the three inside the round trip
  double io = 0;         ///< BinaryTraceDecoder::feed / finish
  double lint = 0;       ///< TraceLintStream::feed / finish
  double core = 0;       ///< detector on_* and try_apply_clean_run
  double take = 0;       ///< mutable_reporter().take()
  double session = 0;    ///< DetectionSession call, stages interleaved
  double snapshot = 0;   ///< snapshot_session + restore_session
  double cold = 0;       ///< SpillTier::store + load
  bool rehydrated = false;  ///< this request rehydrated its session in B
};

void add(RequestSpans& to, const RequestSpans& s) {
  to.pool += s.pool;
  to.service += s.service;
  to.proto += s.proto;
  to.proto_rtt += s.proto_rtt;
  to.io += s.io;
  to.lint += s.lint;
  to.core += s.core;
  to.take += s.take;
  to.session += s.session;
  to.snapshot += s.snapshot;
  to.cold += s.cold;
}

/// What the replay counted besides spans.
struct Counts {
  double events = 0;
  double folded_events = 0;
  double wire_bytes = 0;
  double fold_attempts = 0;
  double fold_hits = 0;
  double reports = 0;
  double drain_bytes = 0;
  double resident_peak = 0;
  double status_mismatches = 0;
  struct Engine {
    double access_ns = 0, access_n = 0;
    double structural_ns = 0, structural_n = 0;
    double per_task_bytes = 0, tasks = 0;
    double shadow_bytes = 0, locations = 0;
  } engine[2];  ///< indexed by DetectorEngine
  double cycles = 0;
  double export_ns = 0, restore_ns = 0, store_ns = 0, load_ns = 0;
  double blob_raw = 0, blob_disk = 0;
};

using Ids = std::unordered_map<std::uint32_t, std::uint32_t>;

Request build(const Workload& w, const RequestRecord& r, const Ids& ids) {
  Request q;
  q.verb = r.verb;
  if (r.verb == Verb::kOpen) {
    q.open.engine = w.pool[r.spec].engine;
  } else if (r.session != kNoSession) {
    q.session = ids.at(r.session);
  }
  if (r.verb == Verb::kFeed) q.bytes = std::string(w.pool[r.spec].frame(r.frame));
  return q;
}

ServiceLimits with_spill_dir(ServiceLimits limits, const char* dir) {
  if (!limits.spill_dir.empty()) limits.spill_dir = dir;
  return limits;
}

/// Pass A: WorkerPool::handle, one request at a time in send order, as the
/// socket drive sends them. Nothing queues ahead of a request, so pool -
/// service is the pool's own hop (submit, wake, complete).
class PoolPass {
 public:
  PoolPass(std::size_t workers, const ServiceLimits& limits)
      : pool_(workers, with_spill_dir(limits, "replay-pool-spill")) {}

  void step(const Workload& w, const RequestRecord& r, RequestSpans& sp) {
    const Request q = build(w, r, ids_);
    const Clock::time_point a = Clock::now();
    const Response rsp = pool_.handle(q);
    sp.pool = ns_between(a, Clock::now());
    if (q.verb == Verb::kOpen) ids_[r.session] = rsp.session;
  }

 private:
  WorkerPool pool_;
  Ids ids_;
};

/// Pass B: the protocol codecs around DetectionService::handle. The
/// services are sharded the way WorkerPool shards them (same session ids,
/// OPEN round-robin over every request, budget enforced across shards after
/// a FEED by evicting from the heaviest shard), but run on this thread; as
/// in the pool, those evictions are not part of any request's service span.
class ServicePass {
 public:
  ServicePass(std::size_t workers, const ServiceLimits& limits)
      : budget_(limits.total_quota_bytes) {
    ServiceLimits shard = with_spill_dir(limits, "replay-service-spill");
    shard.total_quota_bytes = std::numeric_limits<std::size_t>::max();
    for (std::size_t w = 0; w < workers; ++w) {
      shards_.push_back(std::make_unique<DetectionService>(shard));
      shards_.back()->configure_session_ids(
          static_cast<std::uint32_t>(w == 0 ? workers : w),
          static_cast<std::uint32_t>(workers));
    }
  }

  void step(const Workload& w, const RequestRecord& r, RequestSpans& sp,
            Counts& n) {
    const Request q = build(w, r, ids_);
    const std::size_t next = next_++ % shards_.size();
    DetectionService& service =
        *shards_[q.verb == Verb::kOpen || q.verb == Verb::kStats
                     ? next
                     : q.session % shards_.size()];
    Request decoded;
    Response reply;
    std::string error;
    const std::uint64_t rehydrations = service.rehydrations();
    const Clock::time_point t0 = Clock::now();
    const std::string payload = encode_request(q);
    const Clock::time_point t1 = Clock::now();
    if (!decode_request(payload, decoded, error))
      throw std::runtime_error("replay: request does not decode: " + error);
    const Clock::time_point t2 = Clock::now();
    const Response rsp = service.handle(decoded);
    const Clock::time_point t3 = Clock::now();
    const std::string out = encode_response(rsp);
    if (!decode_response(out, reply, error))
      throw std::runtime_error("replay: reply does not decode: " + error);
    const Clock::time_point t4 = Clock::now();
    if (q.verb == Verb::kFeed) enforce_budget();
    sp.service = ns_between(t2, t3);
    sp.proto = ns_between(t0, t2) + ns_between(t3, t4);
    sp.proto_rtt = ns_between(t1, t2) + ns_between(t3, t4);
    sp.rehydrated = service.rehydrations() != rehydrations;
    if (q.verb == Verb::kOpen) ids_[r.session] = rsp.session;
    if (q.verb == Verb::kDrain) n.drain_bytes += static_cast<double>(out.size());
    if (rsp.status != r.status) n.status_mismatches += 1;
    std::size_t resident = 0;
    for (const auto& s : shards_) resident += s->resident_bytes();
    n.resident_peak = std::max(n.resident_peak, static_cast<double>(resident));
  }

 private:
  void enforce_budget() {
    for (;;) {
      std::size_t total = 0;
      DetectionService* heaviest = nullptr;
      for (const auto& s : shards_) {
        total += s->resident_bytes();
        if (heaviest == nullptr ||
            s->resident_bytes() > heaviest->resident_bytes())
          heaviest = s.get();
      }
      if (total <= budget_ || heaviest->evict_heaviest() == 0) return;
    }
  }

  std::size_t budget_;
  std::vector<std::unique_ptr<DetectionService>> shards_;
  std::size_t next_ = 0;  ///< WorkerPool's round-robin counter
  Ids ids_;
};

/// The lint gate a detection session runs: errors only, stop early.
TraceLintOptions gate_options() {
  TraceLintOptions options;
  options.warnings = false;
  options.max_diagnostics = 8;
  return options;
}

using Detector = std::variant<OnlineRaceDetector, DePaDetector>;

template <typename D>
void drive_event(D& d, const TraceEvent& e) {
  switch (e.op) {
    case TraceOp::kFork:   d.on_fork(e.actor); break;
    case TraceOp::kJoin:   d.on_join(e.actor, e.other); break;
    case TraceOp::kHalt:   d.on_halt(e.actor); break;
    case TraceOp::kRead:   d.on_read(e.actor, e.loc); break;
    case TraceOp::kWrite:  d.on_write(e.actor, e.loc); break;
    case TraceOp::kRetire: d.on_retire(e.actor, e.loc); break;
    default: break;
  }
}

bool is_access(const TraceEvent& e) {
  return e.op == TraceOp::kRead || e.op == TraceOp::kWrite ||
         e.op == TraceOp::kRetire;
}

/// Pass C: the session pipeline with its stages run apart, so each can be
/// timed on its own (DetectionSession::feed interleaves them per event).
class StagePass {
 public:
  explicit StagePass(double clock_overhead) : overhead_(clock_overhead) {}

  void step(const Workload& w, const RequestRecord& r, RequestSpans& sp,
            Counts& n) {
    if (r.verb == Verb::kOpen) {
      pipes_[r.session] = std::make_unique<Pipe>(w.pool[r.spec].engine);
      return;
    }
    if (r.status != ServiceStatus::kOk) return;  // backpressure: no work
    if (r.verb == Verb::kFeed) {
      feed(*pipes_.at(r.session), w.pool[r.spec].frame(r.frame), sp, n);
    } else if (r.verb == Verb::kClose) {
      close(*pipes_.at(r.session), sp, n);
      pipes_.erase(r.session);
    }
  }

 private:
  struct Pipe {
    explicit Pipe(DetectorEngine e)
        : engine(e),
          lint(gate_options()),
          det(e == DetectorEngine::kDepa
                  ? Detector(std::in_place_type<DePaDetector>, ReportPolicy::kAll)
                  : Detector(std::in_place_type<OnlineRaceDetector>,
                             ReportPolicy::kAll)) {
      std::visit([](auto& d) { d.on_root(); }, det);
    }
    DetectorEngine engine;
    BinaryTraceDecoder dec;
    TraceLintStream lint;
    Detector det;
    std::vector<TraceEvent> events;
    std::vector<DecodedRun> runs;
    std::vector<bool> folded;  ///< per run: try_apply_clean_run succeeded
  };

  void feed(Pipe& p, std::string_view bytes, RequestSpans& sp, Counts& n) {
    p.events.clear();
    p.runs.clear();
    p.folded.clear();
    const std::uint64_t before = p.dec.events_decoded();
    const Clock::time_point a = Clock::now();
    p.dec.feed(bytes.data(), bytes.size(), p.events, &p.runs);
    sp.io = ns_between(a, Clock::now());
    n.events += static_cast<double>(p.dec.events_decoded() - before);
    n.wire_bytes += static_cast<double>(bytes.size());
    Counts::Engine& e = n.engine[static_cast<int>(p.engine)];
    std::visit([&](auto& d) { detect(p, d, sp, n, e); }, p.det);
    lint(p, sp);
    std::visit(
        [&](auto& d) {
          const Clock::time_point t0 = Clock::now();
          const std::vector<RaceReport> fresh = d.mutable_reporter().take();
          sp.take = ns_between(t0, Clock::now());
          n.reports += static_cast<double>(fresh.size());
        },
        p.det);
    if (!p.lint.ok_so_far())
      throw std::runtime_error("replay: lint rejected a benchmark trace");
  }

  /// Consecutive events of one class (access / structural) are timed as
  /// one group: one clock read per group, not per event.
  template <typename D>
  void detect(Pipe& p, D& d, RequestSpans& sp, Counts& n, Counts::Engine& e) {
    int cls = -1;
    Clock::time_point last = Clock::now();
    const auto close_group = [&](Clock::time_point now) {
      if (cls < 0) return;
      const double ns = std::max(0.0, ns_between(last, now) - overhead_);
      (cls == 0 ? e.access_ns : e.structural_ns) += ns;
      sp.core += ns;
    };
    const auto feed_one = [&](const TraceEvent& ev) {
      const int c = is_access(ev) ? 0 : 1;
      if (c != cls) {
        const Clock::time_point now = Clock::now();
        close_group(now);
        last = now;
        cls = c;
      }
      (c == 0 ? e.access_n : e.structural_n) += 1;
      drive_event(d, ev);
    };
    std::size_t run_idx = 0;
    for (std::size_t k = 0; k < p.events.size();) {
      if (run_idx < p.runs.size() && p.runs[run_idx].first == k) {
        const DecodedRun run = p.runs[run_idx++];
        for (std::size_t j = 0; j < run.len; ++j) feed_one(p.events[k + j]);
        const Clock::time_point f0 = Clock::now();
        close_group(f0);
        cls = -1;
        const bool ok = d.try_apply_clean_run(&p.events[k], run.len, run.extra);
        const Clock::time_point f1 = Clock::now();
        sp.core += std::max(0.0, ns_between(f0, f1) - overhead_);
        last = f1;
        n.fold_attempts += 1;
        n.fold_hits += ok ? 1 : 0;
        n.folded_events += static_cast<double>(run.len * run.extra);
        p.folded.push_back(ok);
        if (!ok)
          for (std::uint64_t rep = 0; rep < run.extra; ++rep)
            for (std::size_t j = 0; j < run.len; ++j) feed_one(p.events[k + j]);
        k += run.len;
      } else {
        feed_one(p.events[k]);
        ++k;
      }
    }
    close_group(Clock::now());
  }

  /// Lint sees the stream the detector saw; a folded run only advances
  /// its index, as in DetectionSession::feed.
  void lint(Pipe& p, RequestSpans& sp) {
    const Clock::time_point a = Clock::now();
    std::size_t run_idx = 0;
    for (std::size_t k = 0; k < p.events.size();) {
      if (run_idx < p.runs.size() && p.runs[run_idx].first == k) {
        const DecodedRun run = p.runs[run_idx];
        for (std::size_t j = 0; j < run.len; ++j) p.lint.feed(p.events[k + j]);
        if (p.folded[run_idx])
          p.lint.note_replayed(run.len * run.extra);
        else
          for (std::uint64_t rep = 0; rep < run.extra; ++rep)
            for (std::size_t j = 0; j < run.len; ++j)
              p.lint.feed(p.events[k + j]);
        ++run_idx;
        k += run.len;
      } else {
        p.lint.feed(p.events[k]);
        ++k;
      }
    }
    sp.lint = ns_between(a, Clock::now());
  }

  void close(Pipe& p, RequestSpans& sp, Counts& n) {
    const Clock::time_point a = Clock::now();
    p.dec.finish();
    const Clock::time_point b = Clock::now();
    p.lint.finish();
    const Clock::time_point c = Clock::now();
    sp.io = ns_between(a, b);
    sp.lint = ns_between(b, c);
    Counts::Engine& e = n.engine[static_cast<int>(p.engine)];
    std::visit(
        [&e](const auto& d) {
          const MemoryFootprint f = d.footprint();
          e.per_task_bytes += static_cast<double>(f.per_task_bytes);
          e.tasks += static_cast<double>(d.task_count());
          e.shadow_bytes += static_cast<double>(f.shadow_bytes);
          e.locations += static_cast<double>(d.tracked_locations());
        },
        p.det);
  }

  double overhead_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Pipe>> pipes_;
};

/// Pass D: DetectionSession itself (the span the stage split is scaled
/// into), plus the cold tier's full cycle on every session pass B
/// rehydrated, run at the rehydration. Only its rehydrate half
/// (SpillTier::load + restore_session) is charged to that request: the
/// pool spills through EvictHeaviest jobs between requests, so the spill
/// half (snapshot_session + SpillTier::store) shows as the queue wait of
/// whatever request waits behind it, not as any request's own span.
class SessionPass {
 public:
  explicit SessionPass(const ServiceLimits& limits)
      : limits_(limits), tier_(make_tier_dir(), limits.spill_budget_bytes) {}

  void step(const Workload& w, const RequestRecord& r, RequestSpans& sp,
            Counts& n) {
    if (r.verb == Verb::kOpen) {
      const Clock::time_point a = Clock::now();
      sessions_[r.session] = std::make_unique<DetectionSession>(
          ReportPolicy::kAll, limits_.max_pending_reports,
          w.pool[r.spec].engine);
      sp.session = ns_between(a, Clock::now());
      return;
    }
    if (r.session == kNoSession) return;
    std::unique_ptr<DetectionSession>& s = sessions_.at(r.session);
    if (sp.rehydrated) cycle(r.session, s, sp, n);
    const std::string bytes = r.verb == Verb::kFeed
                                  ? std::string(w.pool[r.spec].frame(r.frame))
                                  : std::string();
    const Clock::time_point a = Clock::now();
    if (r.verb == Verb::kFeed) {
      s->feed(bytes);
    } else if (r.verb == Verb::kDrain) {
      bool more = false;
      s->drain(0, more);
    } else if (r.verb == Verb::kClose) {
      s->close();
    }
    sp.session = ns_between(a, Clock::now());
    if (r.verb == Verb::kClose) sessions_.erase(r.session);
  }

 private:
  static std::string make_tier_dir() {
    std::filesystem::create_directories("replay-tier");
    return "replay-tier";
  }

  void cycle(std::uint32_t id, std::unique_ptr<DetectionSession>& s,
             RequestSpans& sp, Counts& n) {
    const Clock::time_point a = Clock::now();
    const std::string blob = snapshot_session(*s, limits_.session_quota_bytes);
    const Clock::time_point b = Clock::now();
    const SpillTier::StoreResult stored = tier_.store(id, blob);
    const std::uint64_t disk = tier_.bytes();
    const Clock::time_point c = Clock::now();
    std::string error;
    const std::optional<std::string> loaded = tier_.load(id, &error);
    const Clock::time_point d = Clock::now();
    if (!stored.stored || !loaded)
      throw std::runtime_error("replay: spill cycle failed: " + error);
    RestoreOutcome back = restore_session(*loaded);
    const Clock::time_point e = Clock::now();
    if (!back.session)
      throw std::runtime_error("replay: restore failed: " + back.error);
    s = std::move(back.session);
    sp.cold = ns_between(c, d);
    sp.snapshot = ns_between(d, e);
    n.export_ns += ns_between(a, b);
    n.store_ns += ns_between(b, c);
    n.load_ns += ns_between(c, d);
    n.restore_ns += ns_between(d, e);
    n.blob_raw += static_cast<double>(blob.size());
    n.blob_disk += static_cast<double>(disk);
    n.cycles += 1;
  }

  ServiceLimits limits_;
  SpillTier tier_;
  std::unordered_map<std::uint32_t, std::unique_ptr<DetectionSession>>
      sessions_;
};

/// Layers a request's round trip is split into, in report order.
enum Layer { kServer, kQueue, kService, kIo, kVerify, kCore, kCold, kLayers };
constexpr const char* kLayerNames[kLayers] = {
    "server", "queue", "service", "io", "verify", "core", "cold"};

/// Self times of a set of requests, from the sums of their spans: each
/// layer's span minus its children's, clamped at 0. The session span is
/// split into io / verify / core in the shares the stage pass measured.
struct SelfTimes {
  double layer[kLayers] = {};
  double server = 0;  ///< round trip - pool span - protocol in the trip

  static SelfTimes of(const RequestSpans& sum, double rtt) {
    SelfTimes s;
    const double stages = sum.io + sum.lint + sum.core + sum.take;
    s.server = std::max(0.0, rtt - sum.pool - sum.proto_rtt);
    s.layer[kServer] = s.server + sum.proto_rtt;
    s.layer[kQueue] = std::max(0.0, sum.pool - sum.service);
    s.layer[kService] =
        std::max(0.0, sum.service - sum.session - sum.snapshot - sum.cold);
    if (stages > 0) {
      const double scale = sum.session / stages;
      s.layer[kIo] = sum.io * scale;
      s.layer[kVerify] = sum.lint * scale;
      s.layer[kCore] = (sum.core + sum.take) * scale;
    } else {
      s.layer[kService] += sum.session;  // OPEN / DRAIN: session bookkeeping
    }
    s.layer[kCold] = sum.snapshot + sum.cold;
    return s;
  }
  double total() const {
    double t = 0;
    for (const double l : layer) t += l;
    return t;
  }
};

}  // namespace

std::vector<Metric> replay_layers(const Workload& w,
                                  const std::vector<RequestRecord>& log,
                                  std::size_t workers,
                                  const ServiceLimits& limits) {
  const std::size_t count = log.size();
  std::vector<RequestSpans> spans(count);
  Counts n;
  {
    // The passes advance request by request together, so all of them see
    // the host at the same moments.
    PoolPass pool(workers, limits);
    ServicePass service(workers, limits);
    StagePass stages(clock_overhead_ns());
    SessionPass sessions(limits);
    for (std::size_t i = 0; i < count; ++i) {
      pool.step(w, log[i], spans[i]);
      service.step(w, log[i], spans[i], n);
      stages.step(w, log[i], spans[i], n);
      sessions.step(w, log[i], spans[i], n);
    }
  }

  // Self times per verb, from span sums: spans of one request taken in
  // separate passes pair up well in aggregate, not one by one.
  RequestSpans by_verb[8];
  double rtt_by_verb[8] = {};
  RequestSpans all;
  double rtt_total = 0;
  std::vector<std::size_t> feeds;
  for (std::size_t i = 0; i < count; ++i) {
    const int v = static_cast<int>(log[i].verb) & 7;
    const double rtt = static_cast<double>(log[i].rtt_us) * 1e3;
    add(by_verb[v], spans[i]);
    add(all, spans[i]);
    rtt_by_verb[v] += rtt;
    rtt_total += rtt;
    if (log[i].verb == Verb::kFeed && log[i].status == ServiceStatus::kOk)
      feeds.push_back(i);
  }
  SelfTimes self;
  for (int v = 0; v < 8; ++v) {
    const SelfTimes s = SelfTimes::of(by_verb[v], rtt_by_verb[v]);
    for (int l = 0; l < kLayers; ++l) self.layer[l] += s.layer[l];
    self.server += s.server;
  }

  // The slowest 1% of feeds: how many events they carried, and where
  // their round trip went.
  std::sort(feeds.begin(), feeds.end(), [&](std::size_t a, std::size_t b) {
    return log[a].rtt_us > log[b].rtt_us;
  });
  const std::size_t slow = std::min(feeds.size(), (feeds.size() + 99) / 100);
  double feed_events = 0;
  for (const std::size_t i : feeds) feed_events += static_cast<double>(log[i].events);
  RequestSpans slow_sum;
  double slow_rtt = 0;
  double slow_events = 0;
  for (std::size_t k = 0; k < slow; ++k) {
    add(slow_sum, spans[feeds[k]]);
    slow_rtt += static_cast<double>(log[feeds[k]].rtt_us) * 1e3;
    slow_events += static_cast<double>(log[feeds[k]].events);
  }
  const SelfTimes slow_self = SelfTimes::of(slow_sum, slow_rtt);

  const double reqs = static_cast<double>(count);
  const Counts::Engine& dsu = n.engine[0];
  const Counts::Engine& depa = n.engine[1];
  std::vector<Metric> m = {
      {"server.self_us_per_req", ratio(self.server, reqs) / 1e3, "us"},
      {"worker_pool.queue_wait_us_per_req", ratio(self.layer[kQueue], reqs) / 1e3,
       "us"},
      {"protocol.ns_per_req", ratio(all.proto, reqs), "ns"},
      {"protocol.bytes_per_report", ratio(n.drain_bytes, n.reports), "bytes"},
      {"service.self_us_per_req", ratio(self.layer[kService], reqs) / 1e3, "us"},
      {"service.resident_bytes_peak", n.resident_peak, "bytes"},
      {"io.decode_ns_per_event", ratio(all.io, n.events), "ns"},
      {"io.decode_ns_per_wire_byte", ratio(all.io, n.wire_bytes), "ns"},
      {"io.wire_bytes_per_event", ratio(n.wire_bytes, n.events), "bytes"},
      {"verify.lint_ns_per_event", ratio(all.lint, n.events), "ns"},
      {"core.dsu_ns_per_access", ratio(dsu.access_ns, dsu.access_n), "ns"},
      {"core.dsu_ns_per_structural", ratio(dsu.structural_ns, dsu.structural_n),
       "ns"},
      {"core.depa_ns_per_access", ratio(depa.access_ns, depa.access_n), "ns"},
      {"core.depa_ns_per_structural",
       ratio(depa.structural_ns, depa.structural_n), "ns"},
      {"core.dsu_bytes_per_task", ratio(dsu.per_task_bytes, dsu.tasks), "bytes"},
      {"core.depa_bytes_per_task", ratio(depa.per_task_bytes, depa.tasks),
       "bytes"},
      {"core.bytes_per_location",
       ratio(dsu.shadow_bytes + depa.shadow_bytes, dsu.locations + depa.locations),
       "bytes"},
      {"core.run_fold_attempts", n.fold_attempts, "count"},
      {"core.run_fold_hit_frac", ratio(n.fold_hits, n.fold_attempts), "ratio"},
      {"core.reports_per_kevent", ratio(n.reports * 1e3, n.events), "count"},
      {"core.report_take_ns_per_report", ratio(all.take, n.reports), "ns"},
      {"compress.folded_event_frac", ratio(n.folded_events, n.events), "ratio"},
      {"compress.spill_us", ratio(n.store_ns, n.cycles) / 1e3, "us"},
      {"compress.rehydrate_us", ratio(n.load_ns, n.cycles) / 1e3, "us"},
      {"compress.blob_ratio", ratio(n.blob_raw, n.blob_disk), "ratio"},
      {"snapshot.export_us", ratio(n.export_ns, n.cycles) / 1e3, "us"},
      {"snapshot.restore_us", ratio(n.restore_ns, n.cycles) / 1e3, "us"},
      {"snapshot.blob_bytes", ratio(n.blob_raw, n.cycles), "bytes"},
      {"trace.residual_frac", 1.0 - ratio(self.total(), rtt_total), "ratio"},
      {"trace.rtt_us_per_req", ratio(rtt_total, reqs) / 1e3, "us"},
      {"trace.replay_status_mismatches", n.status_mismatches, "count"},
      {"feed.events_per_feed", ratio(feed_events, static_cast<double>(feeds.size())),
       "count"},
      {"feed.slow1pct_events_per_feed",
       ratio(slow_events, static_cast<double>(slow)), "count"},
      {"feed.slow1pct_rtt_us", ratio(slow_rtt, static_cast<double>(slow)) / 1e3,
       "us"},
  };
  for (int l = 0; l < kLayers; ++l)
    m.push_back({std::string("feed.slow1pct_") + kLayerNames[l] + "_frac",
                 ratio(slow_self.layer[l], slow_rtt), "ratio"});
  return m;
}

}  // namespace e2e
