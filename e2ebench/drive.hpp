// The closed-loop load generator: each connection keeps its workload's
// number of sessions live and sends one request at a time (the next only
// after the reply arrived, as an instrumented program blocked on FEED does).
// One thread drives every connection in turn, so exactly one request is in
// flight at any moment. Every session's drained reports are checked against
// the trace's reference when it closes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "workloads.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// One FEED round trip, first byte sent to reply decoded.
struct FeedSample {
  float start_s = 0;  ///< send time, seconds since the drive started
  float end_s = 0;    ///< reply decoded
  float rtt_us = 0;
  std::uint32_t events = 0;  ///< events the reply acknowledged
  std::uint32_t bytes = 0;   ///< wire bytes the FEED carried
  std::uint32_t folded = 0;  ///< of the events, how many arrived folded
};

/// One session, OPEN sent to CLOSE reply decoded.
struct SessionSample {
  float end_s = 0;
  float latency_ms = 0;
};

/// RequestRecord::session of requests outside any session (STATS).
inline constexpr std::uint32_t kNoSession = ~std::uint32_t{0};

/// One request of a traced drive. `session` numbers logical sessions
/// globally, so the in-process replay can map them to its own ids.
struct RequestRecord {
  std::uint64_t seq = 0;  ///< global send order; the request's span id
  std::uint32_t session = 0;
  std::uint32_t spec = 0;
  std::uint32_t frame = 0;  ///< FEED: frame index in the spec
  race2d::Verb verb = race2d::Verb::kStats;
  race2d::ServiceStatus status = race2d::ServiceStatus::kOk;
  float rtt_us = 0;
  std::uint64_t events = 0;  ///< FEED: events acknowledged
};

/// Client-side totals; at the end of a run they must equal the daemon's
/// STATS counters.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;  ///< kBackpressure replies
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  std::uint64_t reports = 0;
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;

  void add(const Totals& o);
};

struct DriveOutcome {
  double window_start_s = 0;  ///< after warm-up
  double window_end_s = 0;    ///< no session starts after this
  double wall_s = 0;          ///< until the last session closed
  std::vector<FeedSample> feeds;
  std::vector<SessionSample> sessions;
  Totals totals;
  std::vector<std::string> errors;  ///< the first failures, verbatim
  std::vector<RequestRecord> log;   ///< traced drives only, in send order
};

struct DriveOptions {
  std::string socket;
  std::uint64_t seed = 1;
  double warmup_s = 0;
  double seconds = 1;
  std::size_t slices = 1;  ///< the window is cut into this many equal slices
  bool trace = false;
};

/// Runs every connection of `w` against the daemon at `options.socket`
/// until the window closes and every live session finished. `on_tick(k)`
/// is called on the calling thread at each slice boundary of the window,
/// k = 0 .. slices, to sample the daemon there.
DriveOutcome drive(const Workload& w, const DriveOptions& options,
                  const std::function<void(std::size_t)>& on_tick);

}  // namespace e2e
