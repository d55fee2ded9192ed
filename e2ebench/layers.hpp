// The traced run's per-layer numbers.
//
// The socket drive gives each request's round trip. The replay then sends
// the identical request stream, in the same global order, through each
// layer's public entry point, in-process with one client, and times the
// calls from here (nothing inside src/ is instrumented). Four passes
// advance request by request together:
//
//   A  WorkerPool::handle                          -> pool span
//   B  encode_request / decode_request, DetectionService::handle,
//      encode_response / decode_response           -> protocol, service spans
//   C  the session pipeline with its stages apart: BinaryTraceDecoder::feed,
//      TraceLintStream::feed, the detector's on_* calls and
//      try_apply_clean_run, mutable_reporter().take()
//   D  DetectionSession::feed / drain / close, and at every request that
//      rehydrated a session in B: snapshot_session, SpillTier::store / load,
//      restore_session                             -> session, cold spans
//
// Spans of one request share its id (its send order). Self times come from
// span sums per verb, each clamped at 0: server = round trip - pool span -
// protocol inside the trip; queue wait = pool span - service span; service
// self = service span - session span - cold tier; the session span splits
// into io / verify / core in the shares pass C measured. The server is the
// remainder, so trace.residual_frac (1 - self times / round trips) is 0
// unless passes overshoot the round trip somewhere.
#pragma once

#include <string>
#include <vector>

#include "drive.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Replays `log` (a traced drive, in send order) through the layers with
/// the daemon's `workers` and `limits`. Spill directories for the replay
/// are created under the working directory.
std::vector<Metric> replay_layers(const Workload& w,
                                  const std::vector<RequestRecord>& log,
                                  std::size_t workers,
                                  const race2d::ServiceLimits& limits);

}  // namespace e2e
