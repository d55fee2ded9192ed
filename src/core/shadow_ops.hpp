// Figure 6's On-Read / On-Write / On-Retire as one set of inline routines
// over a precedence ORDER, with the owner fast path on the shadow cell.
//
// Per tracked location the detector keeps a Θ(1) summary of all prior
// readers and one of all prior writers, and asks one question of each: is
// that summary ⊑ the current access's position? Two orders answer it:
//
//   SupremaOrder   the labeled DSU of §3 (Theorem 5): a summary is ONE
//                  vertex, the supremum of the set; ⊑ is Sup(s, t) = t and
//                  the fold is R[loc] ← Sup(R[loc], t).
//   IntervalOrder  the two order-maintenance lists of om_timestamps.hpp
//                  (DePa): a summary is the pair of per-list maxima; ⊑ is
//                  two tag compares, because "all of S before v" distributes
//                  over the two linear extensions.
//
// Every detector runs these exact routines — RaceDetector<Clock> on either
// order, StreamingLatticeDetector (vertex level), the ShardedTraceAnalyzer
// workers, and ParallelOnlineDetector's stripes — and the sharded and DePa
// reports must be bit-identical to serial replay. Keeping the logic in one
// place is what makes that guarantee reviewable.
//
// Owner fast path. After an access by t that reports no race and folds the
// accessed kind's summary to t's position in full, every prior access of
// the cell is ordered before t. The cell then caches owner = t with the
// order's stamp. A later access by t whose stamp still matches skips every
// query: the only state change the slow path would make is setting the
// accessed summary to t's position, which the fast path does directly.
// Racing accesses never populate the cache (a join can order them later),
// and any slow-path access by another task overwrites or clears it.
//   * DSU stamp = the engine's structural version: a merge, halt or first
//     visit can change Sup answers, so it invalidates every cached verdict.
//     The fold counts when Sup(R, t) = t.
//   * DePa stamp = none: a task's later intervals only move up both lists
//     and a relabel never reorders nodes, so a cached verdict never goes
//     stale. The fold counts only when it is STRICT in both lists (an
//     equal interval is ordered but does not re-cache).
// Both caching rules feed the snapshot bytes and the run-fold hit rate, so
// each order keeps its own exactly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/om_timestamps.hpp"
#include "core/report.hpp"
#include "core/suprema_walk.hpp"
#include "support/flat_hash_map.hpp"
#include "support/ids.hpp"

namespace race2d {

/// The suprema DSU's precedence test. Positions are vertex (or collapsed
/// task) ids; a summary is the supremum vertex, kInvalidVertex when empty.
class SupremaOrder {
 public:
  using Position = VertexId;
  using Summary = VertexId;
  using Stamp = std::uint64_t;
  static constexpr Summary kNoAccess = kInvalidVertex;

  explicit SupremaOrder(SupremaEngine& engine) : engine_(&engine) {}

  static Summary point(Position t) { return t; }
  /// Every access summarised by `s` is ordered before `t` (eq. 6).
  bool ordered(Summary s, Position t) const {
    return s == kNoAccess || engine_->sup(s, t) == t;
  }
  /// s ← Sup(s, t); true iff the summary folded to t itself.
  bool fold(Summary& s, Position t) const {
    s = s == kNoAccess ? t : engine_->sup(s, t);
    return s == t;
  }
  Stamp stamp() const { return engine_->structural_version(); }

 private:
  SupremaEngine* engine_;
};

/// Componentwise maxima of an access set in the E and H lists (both null
/// when the set is empty).
struct IntervalMax {
  const OmInterval* e = nullptr;
  const OmInterval* h = nullptr;
  bool operator==(const IntervalMax&) const = default;
};

/// A cache stamp that always matches.
struct NoStamp {
  bool operator==(const NoStamp&) const = default;
};

/// The order-maintenance lists' precedence test. Positions are task
/// intervals; tags must hold still during a query (see om_timestamps.hpp).
class IntervalOrder {
 public:
  using Position = const OmInterval*;
  using Summary = IntervalMax;
  using Stamp = NoStamp;
  static constexpr Summary kNoAccess{};

  static Summary point(Position v) { return {v, v}; }
  /// Per-list comparison against the per-list maximum (equality means the
  /// same interval, which is ordered).
  static bool ordered(const Summary& s, Position v) {
    return s.e == nullptr || (s.e->e.tag <= v->e.tag && s.h->h.tag <= v->h.tag);
  }
  /// Raises each list's maximum to v where v is later; true iff v became
  /// the maximum in BOTH lists by a strict step.
  static bool fold(Summary& s, Position v) {
    const bool e = s.e == nullptr || s.e->e.tag < v->e.tag;
    const bool h = s.h == nullptr || s.h->h.tag < v->h.tag;
    if (e) s.e = v;
    if (h) s.h = v;
    return e && h;
  }
  static Stamp stamp() { return {}; }
};

/// Shadow state per tracked location: R[loc], W[loc] and the owner cache.
/// Θ(1) per location.
template <typename Order>
struct ShadowCellOf {
  typename Order::Summary read = Order::kNoAccess;
  typename Order::Summary write = Order::kNoAccess;
  TaskId owner = kInvalidTask;  ///< holder of the cached clean verdict
  [[no_unique_address]] typename Order::Stamp stamp{};  ///< when cached
};

using ShadowCell = ShadowCellOf<SupremaOrder>;
using DepaShadowCell = ShadowCellOf<IntervalOrder>;
// bytes_per_location is measured from these sizes.
static_assert(sizeof(ShadowCell) == 24);
static_assert(sizeof(DepaShadowCell) == 40);

template <typename Order>
using ShadowMap = FlatHashMap<Loc, ShadowCellOf<Order>>;

namespace detail {

/// Fault injection for the fuzzer's self-test (race2d_fuzz --inject-bug and
/// fuzz_selftest): when set, shadow_write skips the W[loc] fold — the
/// classic "one missing sup() update" detector bug. Every detector shares
/// this routine, so serial, DePa, sharded and streaming replay all go wrong
/// IDENTICALLY; only the independent oracles (naive gold, offline walks,
/// vector clocks) can expose the lie, which is exactly what the
/// differential driver must demonstrate. Plain bool by design: set once
/// before any replay starts, never flipped concurrently.
inline bool g_inject_skip_write_sup_update = false;

template <typename Order>
bool owns(const Order& order, const ShadowCellOf<Order>& cell, TaskId t) {
  return cell.owner == t && cell.stamp == order.stamp();
}

template <typename Order>
void cache_owner(const Order& order, ShadowCellOf<Order>& cell, TaskId t,
                 bool ordered) {
  if (ordered) {
    cell.owner = t;
    cell.stamp = order.stamp();
  } else {
    cell.owner = kInvalidTask;
  }
}

/// On-Read (Figure 6 line 2–3, with the §2.3 read rule: reads race only
/// with prior writes). `p` is task t's position; `ordinal` is the access
/// index carried by reports.
template <typename Order>
void shadow_read(const Order& order, ShadowCellOf<Order>& cell,
                 typename Order::Position p, TaskId t, Loc loc,
                 std::size_t ordinal, RaceReporter& reporter) {
  if (owns(order, cell, t)) {
    cell.read = Order::point(p);  // R[loc] ⊑ p was cached
    return;
  }
  const bool clean = order.ordered(cell.write, p);
  if (!clean)
    reporter.report({loc, t, AccessKind::kRead, AccessKind::kWrite, ordinal});
  const bool folded = order.fold(cell.read, p);  // Figure 6 line 3
  cache_owner(order, cell, t, clean && folded);
}

/// On-Write (Figure 6 line 5–8): a write races with prior reads and writes
/// (readers checked first).
template <typename Order>
void shadow_write(const Order& order, ShadowCellOf<Order>& cell,
                  typename Order::Position p, TaskId t, Loc loc,
                  std::size_t ordinal, RaceReporter& reporter) {
  if (owns(order, cell, t)) {
    cell.write = Order::point(p);  // W[loc] ⊑ p was cached
    return;
  }
  bool clean = true;
  if (!order.ordered(cell.read, p)) {
    reporter.report({loc, t, AccessKind::kWrite, AccessKind::kRead, ordinal});
    clean = false;
  } else if (!order.ordered(cell.write, p)) {
    reporter.report({loc, t, AccessKind::kWrite, AccessKind::kWrite, ordinal});
    clean = false;
  }
  const bool folded = g_inject_skip_write_sup_update
                          ? cell.write == Order::point(p)
                          : order.fold(cell.write, p);
  cache_owner(order, cell, t, clean && folded);
}

/// On-Retire: checked like a write (retiring live racing storage is itself
/// a defect), then the cell is dropped. Returns whether a cell existed —
/// i.e. whether the retire counted as an access.
template <typename Order>
bool shadow_retire(const Order& order, ShadowMap<Order>& cells,
                   typename Order::Position p, TaskId t, Loc loc,
                   std::size_t ordinal, RaceReporter& reporter) {
  const ShadowCellOf<Order>* cell = cells.find(loc);
  if (cell == nullptr) return false;  // never accessed: nothing to retire
  if (!owns(order, *cell, t)) {  // cached clean verdict ⇒ no report
    if (!order.ordered(cell->read, p)) {
      reporter.report(
          {loc, t, AccessKind::kRetire, AccessKind::kRead, ordinal});
    } else if (!order.ordered(cell->write, p)) {
      reporter.report(
          {loc, t, AccessKind::kRetire, AccessKind::kWrite, ordinal});
    }
  }
  cells.erase(loc);
  return true;
}

}  // namespace detail
}  // namespace race2d
