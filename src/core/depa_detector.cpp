#include "core/depa_detector.hpp"

#include <utility>

namespace race2d {

TaskId DePaClock::on_root() {
  R2D_REQUIRE(cur_.empty(), "on_root must be the first event");
  cur_.push_back(clock_.make_root(0));
  return 0;
}

TaskId DePaClock::on_fork(TaskId parent) {
  R2D_REQUIRE(parent < cur_.size(), "unknown parent task");
  const TaskId child = static_cast<TaskId>(cur_.size());
  OmClock::ForkResult r = clock_.on_fork(cur_[parent], child);
  cur_.push_back(r.child);
  cur_[parent] = r.continuation;
  return child;
}

void DePaClock::on_join(TaskId joiner, TaskId joined) {
  R2D_REQUIRE(joiner < cur_.size() && joined < cur_.size(),
              "unknown task in join");
  cur_[joiner] = clock_.on_join(cur_[joiner], cur_[joined]);
}

DePaClock::State DePaClock::export_state() const {
  State s;
  static_cast<OmClock::State&>(s) = clock_.export_state();
  s.cur.reserve(cur_.size());
  for (const OmInterval* p : cur_) s.cur.push_back(p->index);
  return s;
}

void DePaClock::import_state(State&& s) {
  R2D_REQUIRE(cur_.empty(), "import_state needs a fresh clock");
  clock_.import_state(s);
  cur_.reserve(s.cur.size());
  for (const std::uint64_t i : s.cur) {
    R2D_REQUIRE(i != kNullInterval, "task without a current interval");
    cur_.push_back(interval(i));
  }
}

DePaClock::SummaryImage DePaClock::export_summary(const IntervalMax& s) const {
  const auto index = [](const OmInterval* p) {
    return p == nullptr ? kNullInterval : std::uint64_t{p->index};
  };
  return {index(s.e), index(s.h)};
}

IntervalMax DePaClock::import_summary(const SummaryImage& s) {
  return {interval(s.e), interval(s.h)};
}

OmInterval* DePaClock::interval(std::uint64_t index) {
  if (index == kNullInterval) return nullptr;
  R2D_REQUIRE(index < clock_.interval_count(),
              "snapshot interval index out of range");
  return clock_.interval_at(static_cast<std::size_t>(index));
}

}  // namespace race2d
