// Seeded fuzzing plans: every fuzz run is a pure function of one uint64_t.
//
// A FuzzPlan fixes the SHAPE of the structured program to synthesize (deep
// fork chains, wide finish regions, pipeline grids, future hand-offs,
// retire-heavy schedules, near-miss race densities, serial fork loops, ...)
// plus all size and
// bias knobs. FuzzPlan::from_seed derives every field deterministically from
// the seed, so a failure artifact is fully described by that one number:
// the same seed always regenerates the identical trace byte-for-byte (the
// generators draw from their own xoshiro streams, never from globals).
//
// The plan also records which BASELINE DISCIPLINES the generated program
// obeys (TraceFeatures): SP-bags is only sound on spawn-sync programs,
// ESP-bags on async-finish ones, and the vector-clock family has no retire
// semantics — the differential driver uses these flags to pick the oracle
// set it may legitimately compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace race2d {

enum class TraceShape : std::uint8_t {
  kRandomMix,      ///< arbitrary Figure-9 programs (fork / join_left mix)
  kDeepForkChain,  ///< one long spine of nested forks, late joins
  kSpawnSyncTree,  ///< recursive Cilk-style SpawnScope users (SP-bags lawful)
  kWideFinish,     ///< broad async-finish regions, incl. escaping asyncs
  kPipelineGrid,   ///< run_pipeline grids with serial / parallel stage flags
  kFutureChain,    ///< producer tasks + consumers joining siblings (Figure 2)
  kRetireHeavy,    ///< aggressive address reuse through retire
  kNearMissRaces,  ///< mostly-ordered conflicting pairs, races rare but real
  kSerialForkLoop, ///< `fork; access; halt; join; access` repeated serially
};

inline constexpr std::size_t kTraceShapeCount = 9;

const char* to_string(TraceShape shape);

/// Which detector disciplines a generated trace honors. The differential
/// driver only consults baselines whose preconditions hold: comparing
/// SP-bags against a non-spawn-sync trace would "find" mismatches that are
/// really precondition violations.
struct TraceFeatures {
  bool spawn_sync = false;    ///< pure SpawnScope structure + sync markers
  bool async_finish = false;  ///< finish markers match the join structure
  bool has_retire = false;    ///< vector-clock/FastTrack lack retire semantics
  bool has_futures = false;
  bool has_pipeline = false;
  bool has_locks = false;     ///< trace carries acquire/release annotations
};

struct FuzzPlan {
  std::uint64_t seed = 1;
  TraceShape shape = TraceShape::kRandomMix;

  std::size_t max_tasks = 64;    ///< global fork budget
  std::size_t max_actions = 24;  ///< per-task action budget
  std::size_t max_depth = 6;     ///< fork / scope nesting cap
  std::size_t loc_pool = 16;     ///< shared monitored locations
  double fork_prob = 0.25;
  double access_prob = 0.45;
  double write_frac = 0.4;
  double retire_prob = 0.0;      ///< per-location retire chance (kRetireHeavy)
  /// kNearMissRaces / kFutureChain: probability that a conflicting pair is
  /// left genuinely unordered instead of being sealed by a join.
  double race_bias = 0.05;

  /// Derives every knob (shape included) from `seed`. Pure: no globals, no
  /// time, no ambient state.
  static FuzzPlan from_seed(std::uint64_t seed);

  /// The discipline flags this plan's generator guarantees.
  TraceFeatures features() const;
};

/// One line, e.g. "seed=42 shape=deep-fork-chain tasks<=96 actions<=18 ...".
std::string to_string(const FuzzPlan& plan);

}  // namespace race2d
