#include "fuzz/fuzz_plan.hpp"

#include <sstream>

#include "support/rng.hpp"

namespace race2d {

const char* to_string(TraceShape shape) {
  switch (shape) {
    case TraceShape::kRandomMix:     return "random-mix";
    case TraceShape::kDeepForkChain: return "deep-fork-chain";
    case TraceShape::kSpawnSyncTree: return "spawn-sync-tree";
    case TraceShape::kWideFinish:    return "wide-finish";
    case TraceShape::kPipelineGrid:  return "pipeline-grid";
    case TraceShape::kFutureChain:   return "future-chain";
    case TraceShape::kRetireHeavy:   return "retire-heavy";
    case TraceShape::kNearMissRaces: return "near-miss-races";
    case TraceShape::kSerialForkLoop: return "serial-fork-loop";
  }
  return "?";
}

FuzzPlan FuzzPlan::from_seed(std::uint64_t seed) {
  // One derivation stream, consumed in a FIXED order — appending new knobs
  // at the end keeps old seeds' plans stable.
  Xoshiro256 rng(seed);
  FuzzPlan plan;
  plan.seed = seed;
  plan.shape = static_cast<TraceShape>(rng.below(kTraceShapeCount));
  plan.max_tasks = 16 + rng.below(113);    // 16..128
  plan.max_actions = 6 + rng.below(27);    // 6..32
  plan.max_depth = 3 + rng.below(6);       // 3..8
  plan.loc_pool = 4 + rng.below(45);       // 4..48
  plan.fork_prob = 0.10 + 0.30 * rng.uniform01();
  plan.access_prob = 0.30 + 0.40 * rng.uniform01();
  plan.write_frac = 0.15 + 0.55 * rng.uniform01();
  plan.race_bias = 0.02 + 0.10 * rng.uniform01();

  switch (plan.shape) {
    case TraceShape::kDeepForkChain:
      // The spine is the point: trade width for depth (the serial executor
      // recurses one frame per nesting level, so stay well under its guard).
      plan.max_depth = 48 + rng.below(81);  // 48..128
      plan.max_tasks = plan.max_depth + 8;
      plan.max_actions = 2 + rng.below(5);
      plan.loc_pool = 4 + rng.below(9);  // small pool: cross-spine conflicts
      break;
    case TraceShape::kWideFinish:
      plan.fork_prob = 0.45 + 0.25 * rng.uniform01();  // width over depth
      plan.max_depth = 2 + rng.below(3);
      break;
    case TraceShape::kRetireHeavy:
      plan.retire_prob = 0.50 + 0.45 * rng.uniform01();
      plan.loc_pool = 3 + rng.below(6);  // tiny pool: constant address reuse
      break;
    case TraceShape::kNearMissRaces:
      plan.loc_pool = 2 + rng.below(4);  // conflicts everywhere, races rare
      break;
    case TraceShape::kSerialForkLoop:
      // Length is the point: many short-lived children, one at a time.
      plan.max_tasks = 64 + rng.below(449);  // 64..512
      plan.max_actions = 1 + rng.below(3);
      plan.loc_pool = 2 + rng.below(7);
      break;
    default:
      break;
  }
  return plan;
}

TraceFeatures FuzzPlan::features() const {
  TraceFeatures f;
  f.spawn_sync = shape == TraceShape::kSpawnSyncTree;
  f.async_finish = shape == TraceShape::kWideFinish;
  f.has_retire = shape == TraceShape::kRetireHeavy;
  f.has_futures = shape == TraceShape::kFutureChain;
  f.has_pipeline = shape == TraceShape::kPipelineGrid;
  return f;
}

std::string to_string(const FuzzPlan& plan) {
  std::ostringstream os;
  os << "seed=" << plan.seed << " shape=" << to_string(plan.shape)
     << " tasks<=" << plan.max_tasks << " actions<=" << plan.max_actions
     << " depth<=" << plan.max_depth << " locs=" << plan.loc_pool
     << " fork=" << plan.fork_prob << " access=" << plan.access_prob
     << " write=" << plan.write_frac;
  if (plan.retire_prob > 0) os << " retire=" << plan.retire_prob;
  os << " race-bias=" << plan.race_bias;
  return os.str();
}

}  // namespace race2d
