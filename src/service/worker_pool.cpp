#include "service/worker_pool.hpp"

#include <future>
#include <limits>
#include <sstream>
#include <utility>

#include "support/assert.hpp"

namespace race2d {

WorkerPool::WorkerPool(std::size_t workers, ServiceLimits limits)
    : limits_(limits) {
  R2D_REQUIRE(workers >= 1, "WorkerPool: need at least one worker");
  ServiceLimits shard_limits = limits;
  // The budget is enforced pool-wide through EvictHeaviest commands; a
  // shard-local sweep would see only its own sessions and over-evict.
  shard_limits.total_quota_bytes = std::numeric_limits<std::size_t>::max();
  shards_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    auto shard = std::make_unique<Shard>();
    shard->service = std::make_unique<DetectionService>(shard_limits);
    // Shard w's ids ≡ w (mod workers); 0 is not a session id, so shard 0
    // starts at `workers`.
    shard->service->configure_session_ids(
        w == 0 ? static_cast<std::uint32_t>(workers)
               : static_cast<std::uint32_t>(w),
        static_cast<std::uint32_t>(workers));
    shards_.push_back(std::move(shard));
  }
  // Every shard exists before any worker runs: each shard's SpillTier
  // sweeps the shared spill directory for stale files when it is built,
  // which must not happen once a shard could have spilled into it.
  for (std::size_t w = 0; w < workers; ++w)
    shards_[w]->thread = std::thread([this, w] { worker_main(w); });
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_)
    if (shard->thread.joinable()) shard->thread.join();
}

void WorkerPool::post(std::size_t shard_index, Job job) {
  Shard& shard = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.queue.push_back(std::move(job));
  }
  shard.cv.notify_one();
}

void WorkerPool::worker_main(std::size_t index) {
  Shard& shard = *shards_[index];
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&shard] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // stop requested, queue drained
      job = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    if (job.kind == Job::Kind::kEvictHeaviest) {
      shard.service->evict_heaviest();
      evict_inflight_.store(false, std::memory_order_release);
      maybe_enforce_global();  // re-check: one eviction may not be enough
      continue;
    }
    const Verb verb = job.request.verb;
    Response response = shard.service->handle(job.request);
    if (verb == Verb::kFeed || verb == Verb::kRestore) maybe_enforce_global();
    if (job.done) job.done(std::move(response));
  }
}

std::size_t WorkerPool::live_sessions() const {
  std::size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->service->live_sessions();
  return sum;
}

std::size_t WorkerPool::resident_bytes() const {
  std::size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->service->resident_bytes();
  return sum;
}

std::size_t WorkerPool::spilled_sessions() const {
  std::size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->service->spilled_sessions();
  return sum;
}

std::uint64_t WorkerPool::rehydrations() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->service->rehydrations();
  return sum;
}

void WorkerPool::maybe_enforce_global() {
  if (resident_bytes() <= limits_.total_quota_bytes) return;
  bool expected = false;
  if (!evict_inflight_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel))
    return;  // a command is already on its way
  std::size_t heaviest = 0;
  std::size_t heaviest_bytes = 0;
  for (std::size_t w = 0; w < shards_.size(); ++w) {
    const std::size_t bytes = shards_[w]->service->resident_bytes();
    if (bytes > heaviest_bytes) {
      heaviest_bytes = bytes;
      heaviest = w;
    }
  }
  if (heaviest_bytes == 0) {
    evict_inflight_.store(false, std::memory_order_release);
    return;
  }
  Job job;
  job.kind = Job::Kind::kEvictHeaviest;
  post(heaviest, std::move(job));
}

void WorkerPool::submit(Request request, Callback done) {
  submit_to(next_shard_.fetch_add(1, std::memory_order_relaxed) %
                shards_.size(),
            std::move(request), std::move(done));
}

void WorkerPool::submit_to(std::size_t shard, Request request, Callback done) {
  switch (request.verb) {
    case Verb::kRestore:
      if (request.bytes.empty() && request.session != 0) {
        // Explicit rehydrate of a spilled session: no blob travels, the id
        // says which shard owns the spill file. The session was admitted
        // once already, so the pool cap is not re-checked (matching the
        // shard's install_at, which bypasses its own cap the same way).
        shard = shard_of(request.session);
        break;
      }
      [[fallthrough]];
    case Verb::kOpen:
      // Pool-wide session cap, checked before the job is queued; the
      // per-shard cap never binds first. Benign over-admission under
      // concurrent opens resolves at the shard (its own cap still holds).
      if (live_sessions() >= limits_.max_sessions) {
        std::ostringstream os;
        os << "live-session cap reached (" << limits_.max_sessions << ")";
        Response r;
        r.verb = request.verb;
        r.status = ServiceStatus::kSessionLimit;
        r.message = os.str();
        if (done) done(std::move(r));
        return;
      }
      break;
    case Verb::kFeed:
    case Verb::kDrain:
    case Verb::kClose:
    case Verb::kSnapshot:
      shard = shard_of(request.session);  // pinned: ownership routing
      break;
    case Verb::kStats: {
      Response r;
      r.verb = Verb::kStats;
      r.session = request.session;
      r.message = metrics_json();
      if (done) done(std::move(r));
      return;
    }
  }
  Job job;
  job.kind = Job::Kind::kRequest;
  job.request = std::move(request);
  job.done = std::move(done);
  post(shard, std::move(job));
}

Response WorkerPool::handle(const Request& request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  submit(request,
         [&promise](Response r) { promise.set_value(std::move(r)); });
  return future.get();
}

Response WorkerPool::handle_frame(const std::string& payload) {
  Request request;
  std::string error;
  if (!decode_request(payload, request, error)) {
    count_frame(true);
    Response r;
    r.verb = Verb::kStats;
    r.status = ServiceStatus::kBadFrame;
    r.message = error;
    return r;
  }
  count_frame(false);
  return handle(request);
}

std::string WorkerPool::metrics_json() const {
  std::uint64_t events = 0;
  std::size_t spilled = 0;
  std::size_t spill_bytes = 0;
  std::uint64_t rehydrations = 0;
  std::uint64_t spill_ns = 0;
  std::uint64_t rehydrate_ns = 0;
  for (const auto& shard : shards_) {
    events += shard->service->events_total();
    spilled += shard->service->spilled_sessions();
    spill_bytes += shard->service->spill_bytes();
    rehydrations += shard->service->rehydrations();
    spill_ns += shard->service->spill_ns();
    rehydrate_ns += shard->service->rehydrate_ns();
  }
  std::ostringstream os;
  os << "{\"workers\":" << shards_.size()
     << ",\"frames\":" << frames_.load(std::memory_order_relaxed)
     << ",\"bad_frames\":" << bad_frames_.load(std::memory_order_relaxed)
     << ",\"live_sessions\":" << live_sessions()
     << ",\"resident_bytes\":" << resident_bytes()
     << ",\"spilled_sessions\":" << spilled
     << ",\"spill_bytes\":" << spill_bytes
     << ",\"rehydrations\":" << rehydrations
     << ",\"spill_ns\":" << spill_ns << ",\"rehydrate_ns\":" << rehydrate_ns
     << ",\"events\":" << events << ",\"shards\":[";
  for (std::size_t w = 0; w < shards_.size(); ++w) {
    if (w != 0) os << ",";
    os << shards_[w]->service->metrics_json();
  }
  os << "]}";
  return os.str();
}

}  // namespace race2d
