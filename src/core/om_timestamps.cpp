#include "core/om_timestamps.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <mutex>

namespace race2d {

namespace {

constexpr std::uint64_t kMaxTag = std::numeric_limits<std::uint64_t>::max();

/// Tag distance from `a` to its successor; the tail measures to the top of
/// the tag space.
std::uint64_t gap_after(const OmNode* a) {
  return (a->next != nullptr ? a->next->tag : kMaxTag) - a->tag;
}

/// The interval embedding list node `n` as its E or H member.
const OmInterval* owner_of_e(const OmNode* n) {
  return reinterpret_cast<const OmInterval*>(
      reinterpret_cast<const char*>(n) - offsetof(OmInterval, e));
}
const OmInterval* owner_of_h(const OmNode* n) {
  return reinterpret_cast<const OmInterval*>(
      reinterpret_cast<const char*>(n) - offsetof(OmInterval, h));
}

}  // namespace

void OmList::insert_after(OmNode* anchor, OmNode* node) {
  std::uint64_t step = std::min(gap_after(anchor) / 2, kStride);
  if (step == 0) {
    relabel_around(anchor);
    step = std::min(gap_after(anchor) / 2, kStride);
    R2D_ASSERT(step > 0);
  }
  node->tag = anchor->tag + step;
  node->prev = anchor;
  node->next = anchor->next;
  if (anchor->next != nullptr) anchor->next->prev = node;
  anchor->next = node;
}

void OmList::relabel_around(OmNode* anchor) {
  std::unique_lock<std::shared_mutex> guard;
  if (relabel_lock_ != nullptr)
    guard = std::unique_lock<std::shared_mutex>(*relabel_lock_);
  ++relabels_;
  // Grow the aligned tag range [lo, lo | mask] around the anchor one bit at
  // a time until it holds fewer than (2/T)^i nodes (T = 1.5), counting the
  // pending insert; then spread the range's nodes evenly over it.
  OmNode* first = anchor;
  OmNode* last = anchor;
  std::uint64_t count = 1;
  double limit = 1.0;
  for (unsigned i = 1; i <= 64; ++i) {
    limit *= 4.0 / 3.0;
    const std::uint64_t mask =
        i == 64 ? kMaxTag : (std::uint64_t{1} << i) - 1;
    const std::uint64_t lo = anchor->tag & ~mask;
    const std::uint64_t hi = lo | mask;
    while (first->prev != nullptr && first->prev->tag >= lo) {
      first = first->prev;
      ++count;
    }
    while (last->next != nullptr && last->next->tag <= hi) {
      last = last->next;
      ++count;
    }
    if (static_cast<double>(count + 1) > limit && i < 64) continue;
    const std::uint64_t step = mask / (count + 1);
    R2D_REQUIRE(step >= 2, "order-maintenance list exhausted its tag space");
    std::uint64_t tag = lo;
    for (OmNode* n = first;; n = n->next) {
      n->tag = tag;
      tag += step;
      if (n == last) break;
    }
    return;
  }
}

void OmList::rebuild(const std::vector<OmNode*>& order) {
  R2D_REQUIRE(!order.empty(), "cannot rebuild an empty order list");
  const std::uint64_t step =
      std::min<std::uint64_t>(kStride, kMaxTag / order.size());
  OmNode* prev = nullptr;
  std::uint64_t tag = 0;
  for (OmNode* n : order) {
    n->tag = tag;
    tag += step;
    n->prev = prev;
    n->next = nullptr;
    if (prev != nullptr) prev->next = n;
    prev = n;
  }
  head_ = order.front();
}

OmInterval* OmClock::alloc(TaskId task) {
  R2D_REQUIRE(arena_.size() < std::numeric_limits<std::uint32_t>::max(),
              "interval arena exceeds 2^32 intervals");
  arena_.emplace_back();
  OmInterval* iv = &arena_.back();
  iv->task = task;
  iv->index = static_cast<std::uint32_t>(arena_.size() - 1);
  return iv;
}

OmInterval* OmClock::make_root(TaskId root) {
  R2D_REQUIRE(arena_.empty(), "make_root must allocate the first interval");
  OmInterval* r = alloc(root);
  // First in both lists; nothing is ever inserted before it.
  e_.rebuild({&r->e});
  h_.rebuild({&r->h});
  return r;
}

OmClock::ForkResult OmClock::on_fork(OmInterval* parent_cur, TaskId child) {
  OmInterval* c = alloc(child);
  OmInterval* k = alloc(parent_cur->task);
  // E (fork-first): parent, child, continuation.
  e_.insert_after(&parent_cur->e, &c->e);
  e_.insert_after(&c->e, &k->e);
  // H (fork-last): parent, continuation, child — the mirror image.
  h_.insert_after(&parent_cur->h, &k->h);
  h_.insert_after(&k->h, &c->h);
  return {c, k};
}

OmInterval* OmClock::on_join(OmInterval* joiner_cur, OmInterval* joined_last) {
  OmInterval* k = alloc(joiner_cur->task);
  // E: everything the joined task ever did is already before the joiner's
  // current interval (children sort before continuations in E), so the
  // continuation goes right after the joiner's own position.
  e_.insert_after(&joiner_cur->e, &k->e);
  // H: the joined task's intervals sit AFTER the joiner's (continuations
  // sort before children in H), so the continuation goes right after
  // whichever of the two join-edge sources is later — after the joined
  // subtree, yet before everything previously after it.
  OmInterval* anchor =
      joiner_cur->h.tag < joined_last->h.tag ? joined_last : joiner_cur;
  h_.insert_after(&anchor->h, &k->h);
  return k;
}

OmClock::State OmClock::export_state() const {
  State s;
  s.intervals.resize(arena_.size());
  for (std::size_t i = 0; i < arena_.size(); ++i)
    s.intervals[i].task = arena_[i].task;
  std::uint32_t rank = 0;
  for (const OmNode* n = e_.head(); n != nullptr; n = n->next)
    s.intervals[owner_of_e(n)->index].e_rank = rank++;
  rank = 0;
  for (const OmNode* n = h_.head(); n != nullptr; n = n->next)
    s.intervals[owner_of_h(n)->index].h_rank = rank++;
  return s;
}

void OmClock::import_state(const State& s) {
  R2D_REQUIRE(arena_.empty(), "import_state needs a fresh clock");
  const std::size_t n = s.intervals.size();
  if (n == 0) return;
  std::vector<OmNode*> e_order(n, nullptr);
  std::vector<OmNode*> h_order(n, nullptr);
  for (const IntervalState& iv : s.intervals) {
    R2D_REQUIRE(iv.e_rank < n && e_order[iv.e_rank] == nullptr,
                "E ranks are not a permutation");
    R2D_REQUIRE(iv.h_rank < n && h_order[iv.h_rank] == nullptr,
                "H ranks are not a permutation");
    OmInterval* out = alloc(iv.task);
    e_order[iv.e_rank] = &out->e;
    h_order[iv.h_rank] = &out->h;
  }
  e_.rebuild(e_order);
  h_.rebuild(h_order);
}

}  // namespace race2d
