// e2eload: the end-to-end race2dd benchmark's load generator.
//
//   e2eload --daemon <race2dd> --workload <name> --seed <n> --seconds <s>
//           --trace <0|1>
//
// Run from an empty scratch directory (the socket and spill files go
// there). With --trace 0 it drives the daemon over real unix-socket
// connections and prints the end-to-end metrics; with --trace 1 it drives
// it three times (untraced, traced, untraced) and replays the traced
// request stream through each layer in-process to print the per-layer
// metrics (layers.hpp). Either way
// every session's report stream is checked against detect_races_trace and
// the client's totals against the daemon's STATS counters; any mismatch
// fails the run (non-zero exit). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon.hpp"
#include "drive.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;
using namespace race2d;

constexpr std::size_t kWorkers = 2;
constexpr int kSetupSpawns = 41;
constexpr double kWarmupSeconds = 1.5;
// The daemon is sampled every slice of the window; the per-slice rates are
// printed so a reader can see the host change speed within a run.
constexpr double kSliceSeconds = 2.0;
constexpr const char* kSocket = "race2dd.sock";
constexpr const char* kSpillDir = "spill";

struct Args {
  std::string daemon;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--daemon") a.daemon = v;
    else if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else return false;
  }
  return argc % 2 == 1 && !a.daemon.empty() && !a.workload.empty() &&
         a.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Wall time of a fixed integer spin on `threads` threads at once.
double spin_seconds(unsigned threads) {
  const auto spin = [] {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 50'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every `"key":number` after position `from` of a metrics JSON.
std::vector<double> json_values(const std::string& json, const std::string& key,
                                std::size_t from = 0) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  for (std::size_t p = json.find(needle, from); p != std::string::npos;
       p = json.find(needle, p + 1))
    out.push_back(std::strtod(json.c_str() + p + needle.size(), nullptr));
  return out;
}

double sum_shards(const std::string& stats, const std::string& key) {
  const std::size_t shards = stats.find("\"shards\":[");
  if (shards == std::string::npos) return 0.0;
  double s = 0;
  for (const double v : json_values(stats, key, shards)) s += v;
  return s;
}

/// Pins this process, and so every thread and child it starts later, to
/// the highest CPU it may run on. Returns that CPU, or -1 if it stays
/// unpinned. With one request in flight, each round trip hands off from
/// the client to the daemon's epoll thread, a worker and back; on one CPU
/// those handoffs are local context switches, while across CPUs each one
/// waits for an idle virtual CPU to be woken, which on a shared host
/// costs anything from microseconds to milliseconds.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

class Run {
 public:
  explicit Run(Args args) : args_(std::move(args)) {}

  int main() {
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const double spin1 = spin_seconds(1);
    const double spinn = spin_seconds(nproc);
    const int cpu = pin_to_one_cpu();
    std::printf(
        "# host {\"nproc\":%u,\"spin_1_thread_s\":%s,\"spin_nproc_threads_s\":"
        "%s,\"parallel_speedup\":%s,\"pinned_cpu\":%d,\"build_type\":\"%s\","
        "\"seed\":%llu,\"workload\":\"%s\",\"seconds\":%s,\"trace\":%d}\n",
        nproc, fmt(spin1).c_str(), fmt(spinn).c_str(),
        fmt(nproc * spin1 / spinn).c_str(), cpu, E2E_BUILD_TYPE,
        static_cast<unsigned long long>(args_.seed), args_.workload.c_str(),
        fmt(args_.seconds).c_str(), args_.trace ? 1 : 0);

    const auto t0 = Clock::now();
    w_ = make_workload(args_.workload, args_.seed);
    std::uint64_t pool_events = 0;
    std::uint64_t pool_bytes = 0;
    for (const SessionSpec& s : w_.pool) {
      pool_events += s.events;
      pool_bytes += s.wire.size();
    }
    std::fprintf(stderr,
                 "e2eload: %s pool of %zu traces, %llu events, %llu wire "
                 "bytes, references computed in %.2f s\n",
                 w_.name.c_str(), w_.pool.size(),
                 static_cast<unsigned long long>(pool_events),
                 static_cast<unsigned long long>(pool_bytes),
                 std::chrono::duration<double>(Clock::now() - t0).count());

    limits_.max_sessions = 512;
    std::vector<std::string> daemon_args = {
        "--workers=" + std::to_string(kWorkers),
        "--max-sessions=" + std::to_string(limits_.max_sessions)};
    if (w_.spill) {
      limits_.spill_dir = kSpillDir;
      limits_.total_quota_bytes = w_.total_quota;
      daemon_args.push_back(std::string("--spill-dir=") + kSpillDir);
      daemon_args.push_back("--total-quota=" + std::to_string(w_.total_quota));
    }

    // Set-up time: spawn to first answered STATS, several times; the last
    // daemon serves the run.
    std::vector<double> setups;
    for (int i = 0; i < kSetupSpawns; ++i) {
      if (i > 0) daemon_.stop();
      std::string error;
      const double s = daemon_.start(args_.daemon, kSocket, daemon_args, error);
      if (s < 0) {
        std::fprintf(stderr, "e2eload: %s\n", error.c_str());
        return 2;
      }
      setups.push_back(s);
    }

    const int rc = args_.trace ? traced() : untraced(setups);
    daemon_.stop();
    return rc;
  }

 private:
  /// The daemon as sampled at one slice boundary of a drive's window.
  struct Tick {
    Clock::time_point t;
    double cpu = 0;
    double rss_mib = 0;
    std::vector<ThreadCpu> threads;
  };

  DriveOutcome run_drive(double seconds, bool trace, std::vector<Tick>& ticks) {
    DriveOptions o;
    o.socket = kSocket;
    o.seed = args_.seed;
    o.warmup_s = kWarmupSeconds;
    o.seconds = seconds;
    o.slices = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(seconds / kSliceSeconds)));
    o.trace = trace;
    ticks.clear();
    DriveOutcome r = drive(w_, o, [&](std::size_t) {
      ticks.push_back({Clock::now(), daemon_.cpu_seconds(), daemon_.rss_mib(),
                       daemon_.thread_cpu()});
    });
    totals_.add(r.totals);
    for (const std::string& e : r.errors) errors_.push_back(e);
    return r;
  }

  /// Final STATS: the client's totals must equal the daemon's counters.
  std::string check_counters() {
    Channel ch;
    Request req;
    req.verb = Verb::kStats;
    Response rsp;
    std::string error;
    if (!ch.connect(kSocket) || !call(ch, req, rsp, error) ||
        rsp.status != ServiceStatus::kOk) {
      fail("final STATS failed: " + error);
      return {};
    }
    const std::string& stats = rsp.message;
    const auto expect = [&](const char* what, double daemon, double client) {
      if (daemon != client) {
        std::ostringstream os;
        os << "STATS " << what << " = " << fmt(daemon) << ", client counted "
           << fmt(client);
        fail(os.str());
      }
    };
    // Besides the drives' frames: the serving daemon's set-up STATS and
    // this one.
    const std::vector<double> frames = json_values(stats, "frames");
    expect("frames", frames.empty() ? -1 : frames.front(),
           static_cast<double>(totals_.frames + 2));
    expect("events", sum_shards(stats, "events"),
           static_cast<double>(totals_.events));
    expect("reports_out", sum_shards(stats, "reports_out"),
           static_cast<double>(totals_.reports));
    expect("sessions_opened", sum_shards(stats, "sessions_opened"),
           static_cast<double>(totals_.opened));
    expect("sessions_closed", sum_shards(stats, "sessions_closed"),
           static_cast<double>(totals_.closed));
    return stats;
  }

  void fail(const std::string& what) {
    ++totals_.failed;
    errors_.push_back(what);
  }

  /// What one slice of a drive's window saw.
  struct Slice {
    double events = 0;  ///< acknowledged by replies decoded in the slice
    double bytes = 0;
    double folded = 0;
    double cpu_s = 0;  ///< daemon CPU time spent in the slice
    std::vector<double> feed_us;     ///< feeds sent in the slice
    std::vector<double> session_ms;  ///< sessions closed in the slice
  };

  static std::vector<Slice> slice(const DriveOutcome& r,
                                  const std::vector<Tick>& ticks) {
    const std::size_t n = ticks.size() - 1;
    const double len = (r.window_end_s - r.window_start_s) / static_cast<double>(n);
    const auto index = [&](double t) -> std::ptrdiff_t {
      if (t < r.window_start_s || t >= r.window_end_s) return -1;
      return std::min<std::ptrdiff_t>(
          static_cast<std::ptrdiff_t>(n) - 1,
          static_cast<std::ptrdiff_t>((t - r.window_start_s) / len));
    };
    std::vector<Slice> out(n);
    for (std::size_t k = 0; k < n; ++k) out[k].cpu_s = ticks[k + 1].cpu - ticks[k].cpu;
    for (const FeedSample& f : r.feeds) {
      if (const std::ptrdiff_t k = index(f.end_s); k >= 0) {
        out[k].events += f.events;
        out[k].bytes += f.bytes;
        out[k].folded += f.folded;
      }
      if (const std::ptrdiff_t k = index(f.start_s); k >= 0)
        out[k].feed_us.push_back(f.rtt_us);
    }
    for (const SessionSample& s : r.sessions)
      if (const std::ptrdiff_t k = index(s.end_s); k >= 0)
        out[k].session_ms.push_back(s.latency_ms);
    return out;
  }

  static double window_events(const DriveOutcome& r,
                              const std::vector<Tick>& ticks) {
    double e = 0;
    for (const Slice& s : slice(r, ticks)) e += s.events;
    return e;
  }

  int untraced(const std::vector<double>& setups) {
    std::vector<Tick> ticks;
    const DriveOutcome r = run_drive(args_.seconds, false, ticks);
    check_counters();
    const double rss = daemon_.peak_rss_mib();
    const std::vector<Slice> slices = slice(r, ticks);
    const double window = r.window_end_s - r.window_start_s;
    const double len = window / static_cast<double>(slices.size());
    // Every metric is taken over the whole window. The host's speed moves
    // between faster and slower states; a window-wide rate or percentile
    // moves with the share of the window spent in each, where a median over
    // slices would jump from one state to the other.
    Slice all;
    std::vector<double> rate;
    for (const Slice& s : slices) {
      rate.push_back(s.events / len);
      all.events += s.events;
      all.bytes += s.bytes;
      all.folded += s.folded;
      all.cpu_s += s.cpu_s;
      all.feed_us.insert(all.feed_us.end(), s.feed_us.begin(), s.feed_us.end());
      all.session_ms.insert(all.session_ms.end(), s.session_ms.begin(),
                            s.session_ms.end());
    }
    const double failed_frac =
        static_cast<double>(totals_.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, totals_.attempted));

    std::vector<Metric> e2e = {
        {"setup_s", median(setups), "s"},
        {"events_per_s", all.events / window, "events/s"},
        {"wire_mib_per_s", all.bytes / window / (1 << 20), "MiB/s"},
        {"feed_p50_us", percentile(all.feed_us, 0.50), "us"},
        {"feed_p99_us", percentile(all.feed_us, 0.99), "us"},
        {"session_p50_ms", percentile(all.session_ms, 0.50), "ms"},
        {"session_p90_ms", percentile(all.session_ms, 0.90), "ms"},
        {"daemon_cpu_ns_per_event", all.cpu_s * 1e9 / std::max(1.0, all.events),
         "ns"},
        {"peak_rss_mib", rss, "MiB"},
    };
    // How many samples each metric rests on.
    const std::string seconds = fmt(window) + " s";
    const std::string feeds = std::to_string(all.feed_us.size()) + " feeds";
    const std::string closes =
        std::to_string(all.session_ms.size()) + " sessions";
    const std::string notes[] = {
        std::to_string(setups.size()) + " spawns",
        seconds,
        seconds,
        feeds,
        feeds,
        closes,
        closes,
        seconds,
        "VmHWM at the end",
    };
    for (std::size_t i = 0; i < e2e.size(); ++i)
      std::printf("# %-26s %22s %-9s n: %s\n", e2e[i].name.c_str(),
                  fmt(e2e[i].value).c_str(), e2e[i].unit.c_str(),
                  notes[i].c_str());
    // failed_frac is 0 on a correct run and is carried by attempted/failed
    // in the result line.
    std::printf("# %-26s %22s %-9s n: %llu requests\n", "failed_frac",
                fmt(failed_frac).c_str(), "ratio",
                static_cast<unsigned long long>(totals_.attempted));
    // Throughput is only honest next to the wire rate and the share of
    // events that arrived folded (applied in O(1) per repetition, not
    // detected one by one).
    std::printf("# %-26s %22s %-9s n: %s events\n", "compress.folded_event_frac",
                fmt(all.events > 0 ? all.folded / all.events : 0.0).c_str(),
                "ratio", fmt(all.events).c_str());
    std::printf("# events_per_s by slice:");
    for (const double e : rate) std::printf(" %.4g", e);
    std::printf("\n# VmRSS MiB at slice boundaries:");
    for (const Tick& t : ticks) std::printf(" %.1f", t.rss_mib);
    std::printf("\n# sessions completed %zu, feeds %zu, backpressure retries "
                "%llu, wall %.2f s (window %.2f s after %.2f s warm-up)\n",
                r.sessions.size(), r.feeds.size(),
                static_cast<unsigned long long>(totals_.retries), r.wall_s,
                r.window_end_s - r.window_start_s, r.window_start_s);
    return finish(e2e);
  }

  int traced() {
    // Untraced, traced, untraced: the traced drive is compared with the
    // mean of the two around it, so drift of the host cancels to first
    // order in trace.overhead_frac. The three drives together take two
    // thirds of --seconds, leaving time for the replay.
    const double third = args_.seconds / 3;
    std::vector<Tick> before_ticks;
    const DriveOutcome before = run_drive(third / 2, false, before_ticks);
    std::vector<Tick> ticks;
    const DriveOutcome traced = run_drive(third, true, ticks);
    std::vector<Tick> after_ticks;
    const DriveOutcome after = run_drive(third / 2, false, after_ticks);
    const std::string stats = check_counters();

    const double plain_eps = (window_events(before, before_ticks) +
                              window_events(after, after_ticks)) /
                             third;
    const double traced_eps = window_events(traced, ticks) / third;

    std::vector<Metric> layer = replay_layers(w_, traced.log, kWorkers, limits_);

    // Busy fractions of the daemon's threads over the traced window: the
    // main thread is the epoll server, the others are pool workers.
    const Tick& t0 = ticks.front();
    const Tick& t1 = ticks.back();
    const double wall = std::chrono::duration<double>(t1.t - t0.t).count();
    double server_busy = 0;
    double worker_busy = 0;
    int workers = 0;
    for (const ThreadCpu& end : t1.threads) {
      double start = 0;
      for (const ThreadCpu& b : t0.threads)
        if (b.tid == end.tid) start = b.seconds;
      const double busy = (end.seconds - start) / wall;
      if (end.tid == daemon_.pid()) {
        server_busy = busy;
      } else {
        worker_busy += busy;
        ++workers;
      }
    }
    const std::vector<double> shard_events =
        json_values(stats, "events", stats.find("\"shards\":["));
    double shard_max = 0;
    double shard_sum = 0;
    for (const double e : shard_events) {
      shard_max = std::max(shard_max, e);
      shard_sum += e;
    }
    const double shard_mean =
        shard_events.empty() ? 0 : shard_sum / static_cast<double>(shard_events.size());
    layer.push_back({"server.busy_frac", server_busy, "ratio"});
    layer.push_back({"worker_pool.busy_frac",
                     workers > 0 ? worker_busy / workers : 0.0, "ratio"});
    layer.push_back({"worker_pool.shard_skew",
                     shard_mean > 0 ? shard_max / shard_mean : 0.0, "ratio"});
    layer.push_back({"service.backpressure_hits",
                     sum_shards(stats, "backpressure_hits"), "count"});
    layer.push_back({"service.evictions", sum_shards(stats, "sessions_evicted"),
                     "count"});
    layer.push_back({"compress.spills", sum_shards(stats, "spills"), "count"});
    layer.push_back({"compress.rehydrations", sum_shards(stats, "rehydrations"),
                     "count"});
    layer.push_back({"trace.overhead_frac",
                     plain_eps > 0 ? 1.0 - traced_eps / plain_eps : 0.0,
                     "ratio"});
    for (const Metric& mt : layer)
      std::printf("# %-36s %14s %s\n", mt.name.c_str(), fmt(mt.value).c_str(),
                  mt.unit.c_str());
    std::printf("# traced drive: %zu requests, %zu sessions; untraced %s "
                "events/s, traced %s events/s\n",
                traced.log.size(), traced.sessions.size(),
                fmt(plain_eps).c_str(), fmt(traced_eps).c_str());
    return finish(layer);
  }

  int finish(const std::vector<Metric>& metrics) {
    for (const std::string& e : errors_)
      std::fprintf(stderr, "e2eload: FAILED: %s\n", e.c_str());
    const bool correct = totals_.failed == 0 && errors_.empty();
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(totals_.attempted) +
                      ", \"failed\": " + std::to_string(totals_.failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + metrics[i].name + "\": {\"value\": " +
             fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  Args args_;
  Workload w_;
  ServiceLimits limits_;
  Daemon daemon_;
  Totals totals_;
  std::vector<std::string> errors_;
};

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "e2eload: refusing to measure a build without NDEBUG\n");
  return 2;
#endif
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "e2eload: refusing to measure a %s build\n",
                 E2E_BUILD_TYPE);
    return 2;
  }
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --daemon <race2dd> --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  try {
    return Run(std::move(args)).main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2eload: %s\n", e.what());
    return 2;
  }
}
