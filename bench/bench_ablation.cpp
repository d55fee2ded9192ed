// Ablations of the implementation's design choices (DESIGN.md):
//  A1 — path compression in the labeled union–find. Theorem 3's bound needs
//       it; without compression Find degrades toward the tree depth.
//  A2 — flat open-addressing shadow map vs std::unordered_map nodes: the
//       per-access constant of Theorem 5 in practice.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/shadow_ops.hpp"
#include "support/rng.hpp"
#include "unionfind/labeled_union_find.hpp"

namespace {

using namespace race2d;

// Ablation variants of the labeled DSU along its two design axes: linking
// policy (union by rank vs naive "keep becomes the root") and path
// compression (halving vs none). Rank OR halving alone already tames most
// workloads (rank bounds depth at log n; halving amortizes); dropping BOTH
// is the Θ(n)-per-find disaster the Tarjan bound guards against.
template <bool kUseRank, bool kUseHalving>
class AblatedLabeledDsu {
 public:
  explicit AblatedLabeledDsu(std::size_t n) : parent_(n), rank_(n, 0), label_(n) {
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = label_[i] = i;
  }

  std::uint32_t find_label(std::uint32_t x) { return label_[root(x)]; }

  void merge_into(std::uint32_t keep, std::uint32_t absorb) {
    std::uint32_t rk = root(keep);
    std::uint32_t ra = root(absorb);
    if (rk == ra) return;
    const std::uint32_t kept = label_[rk];
    if constexpr (kUseRank) {
      if (rank_[rk] < rank_[ra]) std::swap(rk, ra);
      if (rank_[rk] == rank_[ra]) ++rank_[rk];
    }
    parent_[ra] = rk;
    label_[rk] = kept;
  }

 private:
  std::uint32_t root(std::uint32_t x) {
    while (parent_[x] != x) {
      if constexpr (kUseHalving) parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::vector<std::uint32_t> label_;
};

// Long join chains (the pipeline pattern) followed by many queries deep in
// the chain: the worst case compression is designed for.
template <typename Dsu>
void run_dsu_chain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Dsu dsu(n);
    // Chain merges: task i+1 joins task i.
    for (std::uint32_t i = 0; i + 1 < n; ++i) dsu.merge_into(i + 1, i);
    std::uint32_t sink = 0;
    for (std::uint32_t q = 0; q < 4; ++q)
      for (std::uint32_t i = 0; i < n; ++i) sink ^= dsu.find_label(i);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * 4);
}

void BM_Ablation_DsuRankAndHalving(benchmark::State& state) {
  run_dsu_chain<AblatedLabeledDsu<true, true>>(state);
}
void BM_Ablation_DsuRankOnly(benchmark::State& state) {
  run_dsu_chain<AblatedLabeledDsu<true, false>>(state);
}
void BM_Ablation_DsuHalvingOnly(benchmark::State& state) {
  run_dsu_chain<AblatedLabeledDsu<false, true>>(state);
}
void BM_Ablation_DsuNeither(benchmark::State& state) {
  run_dsu_chain<AblatedLabeledDsu<false, false>>(state);
}
BENCHMARK(BM_Ablation_DsuRankAndHalving)->RangeMultiplier(4)->Range(1 << 8, 1 << 14);
BENCHMARK(BM_Ablation_DsuRankOnly)->RangeMultiplier(4)->Range(1 << 8, 1 << 14);
BENCHMARK(BM_Ablation_DsuHalvingOnly)->RangeMultiplier(4)->Range(1 << 8, 1 << 14);
// The no-rank/no-compression strawman is quadratic on chains; cap the size.
BENCHMARK(BM_Ablation_DsuNeither)->RangeMultiplier(4)->Range(1 << 8, 1 << 12);

// Shadow-map ablation: the Figure 6 access pattern is one lookup+update per
// monitored access; compare the flat table against node-based buckets.
void BM_Ablation_ShadowFlatMap(benchmark::State& state) {
  const std::size_t locs = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(5);
  std::vector<Loc> sequence(1 << 14);
  for (auto& l : sequence) l = rng.below(locs) * 64;
  for (auto _ : state) {
    ShadowMap<SupremaOrder> history;
    VertexId fake = 0;
    for (Loc l : sequence) {
      ShadowCell& cell = history[l];
      cell.read = fake++;
    }
    benchmark::DoNotOptimize(history.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sequence.size()));
}

void BM_Ablation_ShadowStdUnorderedMap(benchmark::State& state) {
  const std::size_t locs = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(5);
  std::vector<Loc> sequence(1 << 14);
  for (auto& l : sequence) l = rng.below(locs) * 64;
  for (auto _ : state) {
    std::unordered_map<Loc, ShadowCell> history;
    VertexId fake = 0;
    for (Loc l : sequence) {
      ShadowCell& cell = history[l];
      cell.read = fake++;
    }
    benchmark::DoNotOptimize(history.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sequence.size()));
}

BENCHMARK(BM_Ablation_ShadowFlatMap)->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Ablation_ShadowStdUnorderedMap)->Arg(256)->Arg(4096)->Arg(65536);

}  // namespace
