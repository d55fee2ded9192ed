#include "drive.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>

#include "daemon.hpp"
#include "support/rng.hpp"

namespace e2e {

using namespace race2d;

void Totals::add(const Totals& o) {
  attempted += o.attempted;
  failed += o.failed;
  retries += o.retries;
  frames += o.frames;
  events += o.events;
  reports += o.reports;
  opened += o.opened;
  closed += o.closed;
}

namespace {

constexpr std::size_t kMaxErrors = 8;

struct Shared {
  const Workload& w;
  const DriveOptions& options;
  Clock::time_point t0;
  Clock::time_point window_end;
  std::uint64_t seq = 0;
  std::uint32_t next_session = 0;
};

class Connection {
 public:
  Connection(Shared& shared, std::size_t index)
      : sh_(shared),
        index_(static_cast<std::uint32_t>(index)),
        pick_(shared.options.seed * 1000003 + index),
        slots_(shared.w.live_per_connection) {}

  /// Connects and schedules the slots' arrival. A connection that cannot
  /// reach the daemon records the failure and is done.
  void start(DriveOutcome& out) {
    out_ = &out;
    if (!ch_.connect(sh_.options.socket)) {
      fail("connect: cannot reach the daemon");
      broken_ = true;
      return;
    }
    // Slots join one by one over the warm-up, as tenants arrive, rather
    // than all opening at the same instant.
    const std::size_t live = slots_.size() * sh_.w.connections;
    for (std::size_t k = 0; k < slots_.size(); ++k)
      join_at_.push_back(
          sh_.t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           sh_.options.warmup_s *
                           static_cast<double>(k * sh_.w.connections + index_) /
                           static_cast<double>(live))));
  }

  /// Sends the next request of this connection: the next live slot in
  /// round-robin order steps once (and a STATS follows when one is due).
  /// Returns kStepped, kWaiting with `next_join` lowered to the earliest
  /// arrival still to come, or kDone once no slot is live or can join.
  enum class Turn { kStepped, kWaiting, kDone };
  Turn advance(Clock::time_point& next_join) {
    if (broken_) return Turn::kDone;
    bool any = false;
    for (std::size_t n = 0; n < slots_.size(); ++n) {
      const std::size_t k = cursor_;
      cursor_ = (cursor_ + 1) % slots_.size();
      Slot& s = slots_[k];
      if (!s.active) {
        const Clock::time_point now = Clock::now();
        if (now >= sh_.window_end) continue;
        any = true;
        if (now < join_at_[k]) {
          next_join = std::min(next_join, join_at_[k]);
          continue;
        }
        s = Slot{};
        s.active = true;
        s.spec = next_spec();
        s.logical = sh_.next_session++;
      }
      step(s);
      if (sh_.w.stats_every != 0 && ++since_stats_ >= sh_.w.stats_every) {
        since_stats_ = 0;
        Request stats;
        stats.verb = Verb::kStats;
        Response rsp;
        send(stats, nullptr, 0, rsp);
      }
      return Turn::kStepped;
    }
    return any ? Turn::kWaiting : Turn::kDone;
  }

  void finish() { ch_.close(); }

 private:
  struct Slot {
    bool active = false;
    bool opened = false;
    bool need_drain = false;
    std::uint32_t spec = 0;
    std::uint32_t logical = 0;
    std::uint32_t sid = 0;
    std::size_t next = 0;
    double open_s = 0;
    std::vector<RaceReport> got;
  };

  /// Cycles through fresh random permutations of the pool, so every
  /// trace runs equally often and seeds change the programs, not the mix.
  std::uint32_t next_spec() {
    if (order_pos_ == order_.size()) {
      order_.resize(sh_.w.pool.size());
      for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[pick_.below(i)]);
      order_pos_ = 0;
    }
    return order_[order_pos_++];
  }

  double since_t0(Clock::time_point t) const {
    return std::chrono::duration<double>(t - sh_.t0).count();
  }

  void fail(const std::string& what) {
    ++out_->totals.failed;
    if (out_->errors.size() < kMaxErrors) out_->errors.push_back(what);
  }

  /// One timed round trip. Returns false on a transport failure (the
  /// connection is then unusable). Fills start/rtt for the caller.
  bool send(const Request& req, const Slot* slot, std::uint32_t frame,
            Response& rsp, double* start_s = nullptr,
            double* end_s = nullptr) {
    const std::string payload = encode_request(req);
    const std::uint64_t seq = sh_.options.trace ? sh_.seq++ : 0;
    std::string error;
    const Clock::time_point a = Clock::now();
    const bool ok = ch_.call(payload, rsp, error);
    const Clock::time_point b = Clock::now();
    ++out_->totals.attempted;
    ++out_->totals.frames;
    if (!ok) {
      broken_ = true;
      fail("transport: " + error);
      return false;
    }
    if (start_s != nullptr) *start_s = since_t0(a);
    if (end_s != nullptr) *end_s = since_t0(b);
    if (sh_.options.trace) {
      RequestRecord r;
      r.seq = seq;
      r.session = slot != nullptr ? slot->logical : kNoSession;
      r.spec = slot != nullptr ? slot->spec : 0;
      r.frame = frame;
      r.verb = req.verb;
      r.status = rsp.status;
      r.rtt_us = static_cast<float>(
          std::chrono::duration<double, std::micro>(b - a).count());
      r.events = rsp.feed.events;
      out_->log.push_back(r);
    }
    return true;
  }

  void abandon(Slot& s, const std::string& what) {
    std::ostringstream os;
    os << sh_.w.pool[s.spec].kind << " session " << s.logical << ": " << what;
    fail(os.str());
    s.active = false;
  }

  void step(Slot& s) {
    const SessionSpec& spec = sh_.w.pool[s.spec];
    Response rsp;
    Request req;
    req.session = s.sid;
    if (!s.opened) {
      req.verb = Verb::kOpen;
      req.open.engine = spec.engine;
      double start = 0;
      if (!send(req, &s, 0, rsp, &start)) return;
      if (rsp.status != ServiceStatus::kOk)
        return abandon(s, std::string("OPEN: ") +
                              service_status_id(rsp.status) + ": " +
                              rsp.message);
      ++out_->totals.opened;
      s.opened = true;
      s.sid = rsp.session;
      s.open_s = start;
    } else if (s.need_drain) {
      req.verb = Verb::kDrain;
      if (!send(req, &s, 0, rsp)) return;
      if (rsp.status != ServiceStatus::kOk)
        return abandon(s, std::string("DRAIN: ") +
                              service_status_id(rsp.status) + ": " +
                              rsp.message);
      out_->totals.reports += rsp.drain.reports.size();
      s.got.insert(s.got.end(), rsp.drain.reports.begin(),
                   rsp.drain.reports.end());
      s.need_drain = rsp.drain.more;
    } else if (s.next < spec.frames()) {
      req.verb = Verb::kFeed;
      req.bytes = std::string(spec.frame(s.next));
      double start = 0;
      double end = 0;
      if (!send(req, &s, static_cast<std::uint32_t>(s.next), rsp, &start,
                &end))
        return;
      if (rsp.status == ServiceStatus::kBackpressure) {
        ++out_->totals.retries;
        s.need_drain = true;
        return;
      }
      if (rsp.status != ServiceStatus::kOk)
        return abandon(s, std::string("FEED: ") +
                              service_status_id(rsp.status) + ": " +
                              rsp.message);
      out_->totals.events += rsp.feed.events;
      if (rsp.feed.events != spec.frame_events[s.next])
        return abandon(s, "FEED acknowledged " +
                              std::to_string(rsp.feed.events) +
                              " events, the frame holds " +
                              std::to_string(spec.frame_events[s.next]));
      FeedSample f;
      f.start_s = static_cast<float>(start);
      f.end_s = static_cast<float>(end);
      f.rtt_us = static_cast<float>((end - start) * 1e6);
      f.events = static_cast<std::uint32_t>(rsp.feed.events);
      f.bytes = static_cast<std::uint32_t>(req.bytes.size());
      f.folded = static_cast<std::uint32_t>(spec.frame_folded[s.next]);
      out_->feeds.push_back(f);
      ++s.next;
      s.need_drain = rsp.feed.pending_reports > 0;
    } else {
      req.verb = Verb::kClose;
      double end = 0;
      if (!send(req, &s, 0, rsp, nullptr, &end)) return;
      ++out_->totals.closed;
      if (rsp.status != ServiceStatus::kOk)
        return abandon(s, std::string("CLOSE: ") +
                              service_status_id(rsp.status) + ": " +
                              rsp.message);
      if (!rsp.close.complete) return abandon(s, "CLOSE: stream incomplete");
      if (rsp.close.events != spec.events)
        return abandon(s, "CLOSE counted " + std::to_string(rsp.close.events) +
                              " events, the trace holds " +
                              std::to_string(spec.events));
      if (s.got != spec.reference)
        return abandon(s, "drained " + std::to_string(s.got.size()) +
                              " reports that differ from the " +
                              std::to_string(spec.reference.size()) +
                              " of detect_races_trace");
      SessionSample ss;
      ss.end_s = static_cast<float>(end);
      ss.latency_ms = static_cast<float>((end - s.open_s) * 1e3);
      out_->sessions.push_back(ss);
      s.active = false;
    }
  }

  Shared& sh_;
  std::uint32_t index_;
  Xoshiro256 pick_;
  std::vector<std::uint32_t> order_;
  std::size_t order_pos_ = 0;
  std::vector<Slot> slots_;
  std::vector<Clock::time_point> join_at_;
  std::size_t cursor_ = 0;
  Channel ch_;
  DriveOutcome* out_ = nullptr;
  bool broken_ = false;
  std::size_t since_stats_ = 0;
};

}  // namespace

DriveOutcome drive(const Workload& w, const DriveOptions& options,
                  const std::function<void(std::size_t)>& on_tick) {
  Shared shared{w, options, Clock::now(), {}};
  const auto secs = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point window_start = shared.t0 + secs(options.warmup_s);
  shared.window_end = window_start + secs(options.seconds);

  // One thread sends every connection's requests in turn, one request in
  // flight at a time, so no request queues behind another and a round trip
  // is the request's own path through the daemon.
  std::vector<DriveOutcome> parts(w.connections);
  std::thread client([&shared, &parts, &w] {
    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t c = 0; c < w.connections; ++c) {
      conns.push_back(std::make_unique<Connection>(shared, c));
      conns.back()->start(parts[c]);
    }
    for (;;) {
      bool stepped = false;
      bool waiting = false;
      Clock::time_point next_join = Clock::time_point::max();
      for (auto& c : conns) {
        switch (c->advance(next_join)) {
          case Connection::Turn::kStepped: stepped = true; break;
          case Connection::Turn::kWaiting: waiting = true; break;
          case Connection::Turn::kDone: break;
        }
      }
      if (!stepped && !waiting) break;
      if (!stepped) std::this_thread::sleep_until(next_join);
    }
    for (auto& c : conns) c->finish();
  });
  for (std::size_t k = 0; k <= options.slices; ++k) {
    std::this_thread::sleep_until(
        window_start + secs(options.seconds * static_cast<double>(k) /
                            static_cast<double>(options.slices)));
    on_tick(k);
  }
  client.join();

  DriveOutcome out;
  out.window_start_s = options.warmup_s;
  out.window_end_s = options.warmup_s + options.seconds;
  out.wall_s =
      std::chrono::duration<double>(Clock::now() - shared.t0).count();
  for (DriveOutcome& p : parts) {
    out.feeds.insert(out.feeds.end(), p.feeds.begin(), p.feeds.end());
    out.sessions.insert(out.sessions.end(), p.sessions.begin(),
                        p.sessions.end());
    out.totals.add(p.totals);
    for (std::string& e : p.errors)
      if (out.errors.size() < kMaxErrors) out.errors.push_back(std::move(e));
    out.log.insert(out.log.end(), p.log.begin(), p.log.end());
  }
  std::sort(out.log.begin(), out.log.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

}  // namespace e2e
