// The race2dd process under test, and the client side of its socket.
//
// Daemon spawns `race2dd --socket`, times set-up as the daemon's user sees
// it (spawn to the first answered STATS), reads the process's CPU time,
// per-thread CPU time and peak RSS from /proc, and stops it. Channel is one
// blocking AF_UNIX connection speaking the service/protocol.hpp framing.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace e2e {

class Channel {
 public:
  Channel() = default;
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// One attempt to connect to `path`; false (errno set) when nobody
  /// listens there yet.
  bool connect(const std::string& path);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Sends one framed request payload, then reads and decodes the reply
  /// frame. False with `error` set on a transport or decode failure.
  bool call(const std::string& payload, race2d::Response& out,
            std::string& error);

 private:
  int fd_ = -1;
  std::string body_;
};

/// Encodes and sends `request`, returning the decoded reply; the
/// convenience form for requests nobody times.
bool call(Channel& ch, const race2d::Request& request,
          race2d::Response& out, std::string& error);

/// CPU seconds (utime + stime) of one thread of the daemon.
struct ThreadCpu {
  int tid = 0;
  double seconds = 0.0;
};

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary --socket <socket> <args...>` and waits until a fresh
  /// connection gets a STATS answer. Returns the seconds that took, or a
  /// negative value with `error` set.
  double start(const std::string& binary, const std::string& socket,
               const std::vector<std::string>& args, std::string& error);
  /// SIGTERM, then waits for the process to end. Idempotent.
  void stop();
  bool alive();
  pid_t pid() const { return pid_; }

  /// utime + stime of the whole process, seconds.
  double cpu_seconds() const;
  /// Every thread's CPU time; the main (epoll) thread's tid is pid().
  std::vector<ThreadCpu> thread_cpu() const;
  /// VmHWM, MiB.
  double peak_rss_mib() const { return status_mib("VmHWM:"); }
  /// VmRSS, MiB.
  double rss_mib() const { return status_mib("VmRSS:"); }

 private:
  double status_mib(const char* field) const;

  pid_t pid_ = -1;
};

}  // namespace e2e
