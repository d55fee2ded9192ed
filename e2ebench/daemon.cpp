#include "daemon.hpp"

#include <dirent.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace e2e {

namespace {

using namespace race2d;

bool read_exact(int fd, void* buf, std::size_t size) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// utime + stime in seconds from a /proc/.../stat line. The command field
/// may hold spaces, so parsing starts after its closing parenthesis.
double stat_cpu_seconds(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields after the command start at field 3 (state); utime is field 14.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

Channel::~Channel() { close(); }

void Channel::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Channel::connect(const std::string& path) {
  close();
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return false;
  }
  fd_ = fd;
  return true;
}

bool Channel::call(const std::string& payload, Response& out,
                   std::string& error) {
  unsigned char len[4];
  for (int i = 0; i < 4; ++i)
    len[i] = static_cast<unsigned char>((payload.size() >> (8 * i)) & 0xffu);
  iovec parts[2] = {{len, 4},
                    {const_cast<char*>(payload.data()), payload.size()}};
  std::size_t left = 4 + payload.size();
  int first = 0;
  while (left > 0) {
    const ssize_t n = ::writev(fd_, parts + first, 2 - first);
    if (n < 0) {
      if (errno == EINTR) continue;
      error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    std::size_t sent = static_cast<std::size_t>(n);
    left -= sent;
    while (first < 2 && sent >= parts[first].iov_len) {
      sent -= parts[first].iov_len;
      ++first;
    }
    if (first < 2) {
      parts[first].iov_base = static_cast<char*>(parts[first].iov_base) + sent;
      parts[first].iov_len -= sent;
    }
  }
  if (!read_exact(fd_, len, 4)) {
    error = "daemon closed the connection";
    return false;
  }
  std::uint32_t rlen = 0;
  for (int i = 0; i < 4; ++i)
    rlen |= static_cast<std::uint32_t>(len[i]) << (8 * i);
  if (rlen > kMaxFrameBytes) {
    error = "oversized reply frame";
    return false;
  }
  body_.resize(rlen);
  if (rlen > 0 && !read_exact(fd_, body_.data(), rlen)) {
    error = "truncated reply frame";
    return false;
  }
  return decode_response(body_, out, error);
}

bool call(Channel& ch, const Request& request, Response& out,
          std::string& error) {
  return ch.call(encode_request(request), out, error);
}

double Daemon::start(const std::string& binary, const std::string& socket,
                     const std::vector<std::string>& args,
                     std::string& error) {
  using clock = std::chrono::steady_clock;
  ::unlink(socket.c_str());
  std::vector<std::string> argv_s = {binary, "--socket", socket};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto t0 = clock::now();
  // posix_spawn, not fork: the load generator holds the whole trace pool,
  // and copying its page tables would be timed as daemon set-up.
  if (const int rc = ::posix_spawn(&pid_, binary.c_str(), nullptr, nullptr,
                                   argv.data(), environ);
      rc != 0) {
    pid_ = -1;
    error = "spawn " + binary + ": " + std::strerror(rc);
    return -1.0;
  }
  Channel ch;
  while (!ch.connect(socket)) {
    if (!alive()) {
      error = "race2dd exited during start-up";
      return -1.0;
    }
    if (clock::now() - t0 > std::chrono::seconds(20)) {
      error = "race2dd did not accept connections within 20 s";
      return -1.0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  Request stats;
  stats.verb = Verb::kStats;
  Response rsp;
  if (!call(ch, stats, rsp, error) || rsp.status != ServiceStatus::kOk) {
    if (error.empty()) error = "STATS refused during start-up";
    return -1.0;
  }
  return std::chrono::duration<double>(clock::now() - t0).count();
}

bool Daemon::alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double Daemon::cpu_seconds() const {
  return stat_cpu_seconds("/proc/" + std::to_string(pid_) + "/stat");
}

std::vector<ThreadCpu> Daemon::thread_cpu() const {
  std::vector<ThreadCpu> out;
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
      const int tid = std::atoi(e->d_name);
      out.push_back({tid, stat_cpu_seconds(dir + "/" + e->d_name + "/stat")});
    }
    ::closedir(d);
  }
  return out;
}

double Daemon::status_mib(const char* field) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  const std::size_t len = std::strlen(field);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0)
      return std::stod(line.substr(len)) / 1024.0;  // kB
  }
  return 0.0;
}

}  // namespace e2e
