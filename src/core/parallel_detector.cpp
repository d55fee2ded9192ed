#include "core/parallel_detector.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/small_vector.hpp"

namespace race2d {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// One buffered access: 16 bytes, appended with no synchronization.
struct BufferedAccess {
  Loc loc;
  AccessKind kind;
};

}  // namespace

struct ParallelOnlineDetector::TaskState {
  OmInterval* cur = nullptr;  ///< current interval; owner-thread confined
  std::vector<BufferedAccess> buf;
};

struct ParallelOnlineDetector::Chunk {
  TaskState slots[kChunkSize];
};

/// A shadow shard: its own lock, cells, reporter, and applied-access
/// counter (the stripe-local ordinal carried by reports). Cache-line
/// aligned so neighboring stripes don't false-share their mutexes.
struct alignas(64) ParallelOnlineDetector::Stripe {
  std::mutex mu;
  ShadowMap<IntervalOrder> cells;
  RaceReporter reporter;
  std::size_t accesses = 0;
};

ParallelOnlineDetector::ParallelOnlineDetector(
    ParallelOnlineDetectorOptions options)
    : options_(options) {
  const std::size_t n =
      round_up_pow2(options_.stripes == 0 ? 1 : options_.stripes);
  stripe_mask_ = n - 1;
  stripes_ = std::make_unique<Stripe[]>(n);
  if (options_.expected_locations > 0) {
    // Spread the expected population over the stripes with 2x headroom for
    // hash skew, so flushes never pay an incremental rehash.
    const std::size_t per = options_.expected_locations / n + 1;
    for (std::size_t i = 0; i < n; ++i) stripes_[i].cells.reserve(2 * per);
  }
  if (options_.flush_threshold == 0) options_.flush_threshold = 1;
  clock_.set_relabel_lock(&clock_mu_);
}

ParallelOnlineDetector::~ParallelOnlineDetector() {
  for (Chunk* c : chunks_) delete c;
}

ParallelOnlineDetector::TaskState& ParallelOnlineDetector::state_for(
    TaskId id) const {
  Chunk* chunk = chunks_[id >> kChunkShift];
  R2D_ASSERT(chunk != nullptr);
  return chunk->slots[id & (kChunkSize - 1)];
}

ParallelOnlineDetector::TaskState& ParallelOnlineDetector::create_state(
    TaskId id) {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  const std::size_t ci = id >> kChunkShift;
  R2D_REQUIRE(ci < kMaxChunks, "task id exceeds detector capacity");
  if (chunks_[ci] == nullptr) chunks_[ci] = new Chunk();
  ++task_count_;
  return chunks_[ci]->slots[id & (kChunkSize - 1)];
}

std::size_t ParallelOnlineDetector::stripe_of(Loc loc) const {
  // Fibonacci mix: consecutive addresses land on different stripes.
  return static_cast<std::size_t>((loc * 0x9E3779B97F4A7C15ULL) >> 32) &
         stripe_mask_;
}

void ParallelOnlineDetector::on_root(TaskId root) {
  TaskState& s = create_state(root);
  std::lock_guard<std::mutex> lock(insert_mu_);
  s.cur = clock_.make_root(root);
}

void ParallelOnlineDetector::on_fork(TaskId parent, TaskId child) {
  TaskState& p = state_for(parent);
  flush(parent, p);  // pre-fork accesses belong to the pre-fork interval
  TaskState& c = create_state(child);
  std::lock_guard<std::mutex> lock(insert_mu_);
  OmClock::ForkResult r = clock_.on_fork(p.cur, child);
  c.cur = r.child;
  p.cur = r.continuation;
}

void ParallelOnlineDetector::on_join(TaskId joiner, TaskId joined) {
  TaskState& j = state_for(joiner);
  flush(joiner, j);  // pre-join accesses belong to the pre-join interval
  // state_for(joined).cur is the halted task's final interval, published by
  // its done release store and visible after the joiner's acquire.
  std::lock_guard<std::mutex> lock(insert_mu_);
  j.cur = clock_.on_join(j.cur, state_for(joined).cur);
}

void ParallelOnlineDetector::on_halt(TaskId t) { flush(t, state_for(t)); }

void ParallelOnlineDetector::on_read(TaskId t, Loc loc) {
  record(t, loc, AccessKind::kRead);
}

void ParallelOnlineDetector::on_write(TaskId t, Loc loc) {
  record(t, loc, AccessKind::kWrite);
}

void ParallelOnlineDetector::on_retire(TaskId t, Loc loc) {
  record(t, loc, AccessKind::kRetire);
}

void ParallelOnlineDetector::record(TaskId t, Loc loc, AccessKind kind) {
  TaskState& s = state_for(t);
  if (s.buf.capacity() == 0) s.buf.reserve(options_.flush_threshold);
  s.buf.push_back({loc, kind});
  if (s.buf.size() >= options_.flush_threshold) flush(t, s);
}

void ParallelOnlineDetector::flush(TaskId t, TaskState& s) {
  if (s.buf.empty()) return;
  // Every buffered access predates the next structural event, so all share
  // the task's current interval as their timestamp.
  const OmInterval* v = s.cur;
  const std::size_t n = s.buf.size();
  std::size_t i = 0;
  // Tags must hold still while cells compare them: one shared hold of the
  // clock lock, which relabels take exclusively, covers the whole flush.
  std::shared_lock<std::shared_mutex> clock_lock(clock_mu_);
  while (i < n) {
    // Batch consecutive same-stripe accesses under one lock acquisition.
    const std::size_t si = stripe_of(s.buf[i].loc);
    Stripe& stripe = stripes_[si];
    std::lock_guard<std::mutex> lock(stripe.mu);
    do {
      apply(stripe, s.buf[i].loc, s.buf[i].kind, v, t);
      ++i;
    } while (i < n && stripe_of(s.buf[i].loc) == si);
  }
  s.buf.clear();
}

void ParallelOnlineDetector::apply(Stripe& stripe, Loc loc, AccessKind kind,
                                   const OmInterval* v, TaskId t) {
  const IntervalOrder order;
  switch (kind) {
    case AccessKind::kRead:
      ++stripe.accesses;
      detail::shadow_read(order, stripe.cells[loc], v, t, loc, stripe.accesses,
                          stripe.reporter);
      break;
    case AccessKind::kWrite:
      ++stripe.accesses;
      detail::shadow_write(order, stripe.cells[loc], v, t, loc,
                           stripe.accesses, stripe.reporter);
      break;
    case AccessKind::kRetire:
      if (detail::shadow_retire(order, stripe.cells, v, t, loc,
                                stripe.accesses + 1, stripe.reporter))
        ++stripe.accesses;
      break;
  }
}

std::vector<RaceReport> ParallelOnlineDetector::reports() const {
  std::vector<RaceReport> out;
  for (std::size_t i = 0; i <= stripe_mask_; ++i) {
    const auto& all = stripes_[i].reporter.all();
    out.insert(out.end(), all.begin(), all.end());
  }
  std::sort(out.begin(), out.end(),
            [](const RaceReport& a, const RaceReport& b) {
              if (a.loc != b.loc) return a.loc < b.loc;
              if (a.current_task != b.current_task)
                return a.current_task < b.current_task;
              if (a.current_kind != b.current_kind)
                return a.current_kind < b.current_kind;
              if (a.prior_kind != b.prior_kind)
                return a.prior_kind < b.prior_kind;
              return a.access_index < b.access_index;
            });
  if (options_.policy == ReportPolicy::kFirstOnly && out.size() > 1)
    out.resize(1);
  return out;
}

std::vector<Loc> ParallelOnlineDetector::racing_locations() const {
  std::vector<Loc> locs;
  for (std::size_t i = 0; i <= stripe_mask_; ++i)
    for (const RaceReport& r : stripes_[i].reporter.all())
      locs.push_back(r.loc);
  std::sort(locs.begin(), locs.end());
  locs.erase(std::unique(locs.begin(), locs.end()), locs.end());
  return locs;
}

bool ParallelOnlineDetector::race_found() const {
  for (std::size_t i = 0; i <= stripe_mask_; ++i)
    if (stripes_[i].reporter.any()) return true;
  return false;
}

std::size_t ParallelOnlineDetector::access_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i <= stripe_mask_; ++i) n += stripes_[i].accesses;
  return n;
}

std::size_t ParallelOnlineDetector::tracked_locations() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i <= stripe_mask_; ++i) n += stripes_[i].cells.size();
  return n;
}

MemoryFootprint ParallelOnlineDetector::footprint() const {
  MemoryFootprint f;
  f.per_task_bytes = clock_.heap_bytes();
  for (std::size_t i = 0; i <= stripe_mask_; ++i)
    f.shadow_bytes += stripes_[i].cells.heap_bytes();
  std::size_t chunks = 0;
  for (const Chunk* c : chunks_)
    if (c != nullptr) ++chunks;
  f.other_bytes = chunks * sizeof(Chunk) + (stripe_mask_ + 1) * sizeof(Stripe);
  return f;
}

ParallelDetectionResult run_with_parallel_detection(
    TaskBody program, unsigned workers,
    ParallelOnlineDetectorOptions options) {
  ParallelOnlineDetector detector(options);
  ParallelExecutorOptions exec;
  exec.num_threads = workers;
  exec.monitor = &detector;
  ParallelExecutor pool(exec);
  pool.run(std::move(program));

  ParallelDetectionResult result;
  result.reports = detector.reports();
  result.racing_locations = detector.racing_locations();
  result.task_count = detector.task_count();
  result.access_count = detector.access_count();
  result.tracked_locations = detector.tracked_locations();
  result.footprint = detector.footprint();
  return result;
}

}  // namespace race2d
