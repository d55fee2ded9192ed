// Workloads of the end-to-end race2dd benchmark.
//
// A workload is a traffic mix: how many connections drive the daemon, how
// many sessions each keeps live, the FEED frame size, and a pool of traces
// drawn from the seed. Every trace is generated, encoded and checked before
// any timing starts: its wire bytes are cut into FEED frames at R2DT chunk
// boundaries (the chunk size equals the workload's frame size, so each FEED
// carries exactly one whole chunk, as a capture front-end flushing one chunk
// per send would), and its reference report stream comes from the offline
// detector, detect_races_trace. The daemon only ever sees the wire bytes.
//
// Why each workload exists, and which layers it loads, is in NOTES.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "service/protocol.hpp"

namespace e2e {

/// One trace of a workload's pool, ready to stream.
struct SessionSpec {
  const char* kind = "";  ///< generator family, e.g. "fork_tree"
  race2d::DetectorEngine engine = race2d::DetectorEngine::kDsu;
  bool v2 = false;  ///< wire version 2: run-compressed 'Z' chunks allowed
  std::string wire;
  /// FEED i carries wire[cuts[i], cuts[i+1]): the first also carries the
  /// 8-byte header, the last also carries the trailer.
  std::vector<std::size_t> cuts;
  std::uint64_t events = 0;  ///< logical events, repetitions expanded
  std::vector<std::uint64_t> frame_events;  ///< events FEED i acknowledges
  std::vector<std::uint64_t> frame_folded;  ///< of which arrive as
                                            ///< unmaterialized repetitions
                                            ///< of a stationary run
  std::vector<race2d::RaceReport> reference;

  std::size_t frames() const { return cuts.size() - 1; }
  std::string_view frame(std::size_t i) const {
    return std::string_view(wire).substr(cuts[i], cuts[i + 1] - cuts[i]);
  }
};

struct Workload {
  std::string name;
  std::size_t connections = 1;
  std::size_t live_per_connection = 1;  ///< sessions fed round-robin
  std::size_t frame_bytes = 64 * 1024;  ///< R2DT chunk payload target
  std::size_t stats_every = 0;  ///< a STATS every N requests per connection
  bool spill = false;           ///< run race2dd with a cold tier
  std::uint64_t total_quota = 0;  ///< --total-quota; 0 = daemon default
  std::vector<SessionSpec> pool;
};

/// Builds the named workload from `seed`: same seed, same pool, byte for
/// byte. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace e2e
