// DePa-style order-maintenance timestamps for structured fork-join tasks.
//
// The paper's central structural fact is that the task graphs of §5
// programs are 2D lattices: the happens-before order is exactly the
// intersection of TWO linear orders (Theorem 6; lattice/realizer.cpp
// certifies this offline via a Dushnik–Miller 2-realizer). This module
// maintains those two linear orders ONLINE, in the style of DePa
// (arXiv 2204.14168) and SP-order: every task *interval* — a maximal run
// of operations between structural events — sits at one position in each of
//
//   E, the fork-first ("English") linear extension: a forked child's
//      intervals come before the parent's continuation, and
//   H, the fork-last ("Hebrew") linear extension: the parent's
//      continuation comes before the forked child's intervals,
//
// and u happens-before v  ⟺  u <_E v  AND  u <_H v. Concurrency is
// exactly E/H disagreement — the two traversal directions of the planar
// diagram pull incomparable intervals apart.
//
// Each list is an order-maintenance list with 64-bit tags (Bender, Cole,
// Demaine, Farach-Colton, Zito 2002, "Two simplified algorithms for
// maintaining order in a list"): tags increase along the list, so list
// order is one integer compare and a precedence query is two. Every
// structural event is an insert_after(anchor). A new node takes a tag
// inside the gap after its anchor — a fixed stride of 2^32 when the gap is
// wide (serial chains append at the tail of both lists on every structural
// event, and halving the tail gap would exhaust it in 64 steps), else the
// midpoint. When the gap is closed, the smallest aligned tag range around
// the anchor whose density is under the (2/T)^i threshold (T = 1.5) is
// relabelled evenly: amortised O(log n) per insert, Θ(1) words per interval
// whatever the history. A relabel rewrites tags but never reorders nodes,
// so every order-derived fact (shadow maxima, owner caches) stays valid.
//
// Concurrency contract. Inserts must be serialised by the caller. An
// insert that fits its gap writes only the new node and the link fields of
// its neighbours, which no query reads; only a relabel rewrites the tags
// of published intervals. So a reader that compares tags needs exclusion
// from relabels alone: set_relabel_lock() names a shared_mutex that every
// relabel holds exclusively, and readers hold it shared. Serial replay
// (DePaDetector) sets none and takes no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <vector>

#include "support/assert.hpp"
#include "support/ids.hpp"

namespace race2d {

/// One node of a tagged, doubly-linked order-maintenance list.
struct OmNode {
  std::uint64_t tag = 0;
  OmNode* prev = nullptr;
  OmNode* next = nullptr;
};

/// An order-maintenance list over caller-owned nodes: insert_after and
/// O(1) order queries (compare tags). The first node never changes — the
/// list only grows by insertion after an existing node.
class OmList {
 public:
  /// Tag step for an insertion into a wide gap (see the header note).
  static constexpr std::uint64_t kStride = std::uint64_t{1} << 32;

  /// Links `node` immediately after `anchor`, relabelling a range of the
  /// list first when the gap after `anchor` has no free tag.
  void insert_after(OmNode* anchor, OmNode* node);

  /// Relinks `order` as the whole list, in that order, with evenly spaced
  /// tags starting at 0 (a new list's head; snapshot restore). `order`
  /// must be non-empty.
  void rebuild(const std::vector<OmNode*>& order);

  const OmNode* head() const { return head_; }
  /// Number of relabel passes so far (tests watch the order invariant
  /// across them).
  std::uint64_t relabels() const { return relabels_; }

  /// Every later relabel holds `lock` exclusively (null: no lock).
  void set_relabel_lock(std::shared_mutex* lock) { relabel_lock_ = lock; }

 private:
  void relabel_around(OmNode* anchor);

  OmNode* head_ = nullptr;
  std::uint64_t relabels_ = 0;
  std::shared_mutex* relabel_lock_ = nullptr;
};

/// One task interval: the timestamp unit. `e`/`h` are its nodes in the two
/// lists; `index` is its allocation index in the clock's arena.
struct OmInterval {
  OmNode e;
  OmNode h;
  TaskId task = kInvalidTask;
  std::uint32_t index = 0;
};

/// The two-list clock: allocates intervals and applies the structural
/// rules. Fork and join are amortised O(log n) inserts; queries are two
/// tag compares. Inserts need external serialisation (see the header note).
class OmClock {
 public:
  OmClock() = default;
  OmClock(const OmClock&) = delete;
  OmClock& operator=(const OmClock&) = delete;

  /// The root task's first interval (both lists start with it).
  OmInterval* make_root(TaskId root);

  struct ForkResult {
    OmInterval* child;         ///< the forked child's first interval
    OmInterval* continuation;  ///< the parent's post-fork interval
  };
  /// fork: in E insert child then continuation after the parent's current
  /// interval (child-first); in H insert continuation then child
  /// (continuation-first).
  ForkResult on_fork(OmInterval* parent_cur, TaskId child);

  /// join: the joiner's post-join interval goes right after its current
  /// interval in E, and right after max_H(joiner, joined's last interval)
  /// in H — after the join edge's source, which is what orders the joined
  /// task's whole subtree before the continuation in both lists.
  /// `joined_last` must be the halted task's final interval.
  OmInterval* on_join(OmInterval* joiner_cur, OmInterval* joined_last);

  /// u happens-before-or-equals v: agreement in both dimensions.
  static bool ordered_before(const OmInterval* u, const OmInterval* v) {
    if (u == v) return true;
    return u->e.tag < v->e.tag && u->h.tag < v->h.tag;
  }

  std::size_t interval_count() const { return arena_.size(); }

  /// The interval at allocation index `i` (restore-time pointer recovery).
  /// Allocation order is deterministic (one interval per structural event),
  /// so the index is a stable cross-process name for an interval — what the
  /// session snapshot stores instead of the pointer.
  OmInterval* interval_at(std::size_t i) {
    R2D_ASSERT(i < arena_.size());
    return &arena_[i];
  }

  /// Plain-data image of the arena in allocation order: each interval's
  /// rank (0-based position) in the two lists. Tags are not part of the
  /// image; restore spaces them evenly in rank order.
  struct IntervalState {
    std::uint32_t e_rank = 0;
    std::uint32_t h_rank = 0;
    TaskId task = kInvalidTask;
  };
  struct State {
    std::vector<IntervalState> intervals;
  };
  State export_state() const;
  /// Rebuilds the arena from `s` in order. Requires an empty clock (the
  /// restoring side constructs a fresh one) and rank arrays that are
  /// permutations of [0, n).
  void import_state(const State& s);

  /// Heap bytes of the clock: arena nodes only — Θ(1) per interval. O(1).
  std::size_t heap_bytes() const { return arena_.size() * sizeof(OmInterval); }

  /// Relabel passes over both lists (tests and benches).
  std::uint64_t relabels() const { return e_.relabels() + h_.relabels(); }

  /// Relabels of either list hold `lock` exclusively; concurrent readers
  /// hold it shared while they compare tags.
  void set_relabel_lock(std::shared_mutex* lock) {
    e_.set_relabel_lock(lock);
    h_.set_relabel_lock(lock);
  }

 private:
  OmInterval* alloc(TaskId task);

  std::deque<OmInterval> arena_;  ///< stable addresses
  OmList e_;
  OmList h_;
};

}  // namespace race2d
