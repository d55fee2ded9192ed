#include "compress/spill_tier.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "io/crc32c.hpp"

namespace race2d {

namespace {

constexpr char kSpillMagic[8] = {'R', '2', 'D', 'S', 'P', 'I', 'L', 'L'};
// Version 1 carried an LZ-compressed blob; 2 carries the blob as it is.
constexpr std::uint8_t kSpillVersion = 2;
constexpr std::size_t kSpillHeaderBytes = 8 + 1 + 4 + 4 + 4;

void put_u32le(unsigned char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::string k_error(const char* code, std::uint32_t id, const char* what) {
  return std::string(code) + " spill of session " + std::to_string(id) +
         ": " + what;
}

/// Writes every byte of `parts` to `fd`, retrying short writes and EINTR.
bool write_all(int fd, iovec* parts, int count) {
  while (count > 0) {
    const ssize_t wrote = ::writev(fd, parts, count);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (wrote == 0) return false;
    auto left = static_cast<std::size_t>(wrote);
    while (count > 0 && left >= parts->iov_len) {
      left -= parts->iov_len;
      ++parts;
      --count;
    }
    if (count > 0) {
      parts->iov_base = static_cast<char*>(parts->iov_base) + left;
      parts->iov_len -= left;
    }
  }
  return true;
}

/// Fills `parts` from `fd`, retrying short reads and EINTR; returns the
/// count read (short only at end of file), or -1 on error.
ssize_t read_all(int fd, iovec* parts, int count) {
  std::size_t got = 0;
  while (count > 0) {
    const ssize_t n = ::readv(fd, parts, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
    auto left = static_cast<std::size_t>(n);
    while (count > 0 && left >= parts->iov_len) {
      left -= parts->iov_len;
      ++parts;
      --count;
    }
    if (count > 0) {
      parts->iov_base = static_cast<char*>(parts->iov_base) + left;
      parts->iov_len -= left;
    }
  }
  return static_cast<ssize_t>(got);
}

/// True for the names the tier writes, `sess-<id>.spill`, and the
/// `sess-<id>.spill.tmp` that older builds wrote first; <id> is a u32 in
/// canonical decimal.
bool is_spill_name(const char* name) {
  constexpr char kPrefix[] = "sess-";
  if (std::strncmp(name, kPrefix, sizeof(kPrefix) - 1) != 0) return false;
  const char* digits = name + sizeof(kPrefix) - 1;
  const char* end = digits;
  std::uint64_t id = 0;
  while (*end >= '0' && *end <= '9' && end - digits <= 10) {
    id = id * 10 + static_cast<std::uint64_t>(*end - '0');
    ++end;
  }
  const std::size_t len = static_cast<std::size_t>(end - digits);
  if (len == 0 || len > 10 || id > UINT32_MAX) return false;
  if (len > 1 && *digits == '0') return false;
  return std::strcmp(end, ".spill") == 0 || std::strcmp(end, ".spill.tmp") == 0;
}

}  // namespace

SpillTier::SpillTier(std::string dir, std::uint64_t budget_bytes)
    : dir_(std::move(dir)), prefix_(dir_ + "/sess-"), budget_(budget_bytes) {
  sweep_stale_files();
}

void SpillTier::sweep_stale_files() const {
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;  // not there yet: nothing stale either
  while (const dirent* e = ::readdir(d)) {
    if (!is_spill_name(e->d_name)) continue;
    struct stat st;
    if (::fstatat(::dirfd(d), e->d_name, &st, AT_SYMLINK_NOFOLLOW) == 0 &&
        S_ISREG(st.st_mode))
      ::unlinkat(::dirfd(d), e->d_name, 0);
  }
  ::closedir(d);
}

std::string SpillTier::path_for(std::uint32_t id) const {
  return prefix_ + std::to_string(id) + ".spill";
}

void SpillTier::drop_entry(std::uint32_t id) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  index_.erase(it);
  ::unlink(path_for(id).c_str());
}

SpillTier::StoreResult SpillTier::store(std::uint32_t id,
                                        const std::string& blob) {
  StoreResult result;
  drop_entry(id);  // re-spill of the same id replaces the old file

  unsigned char header[kSpillHeaderBytes];
  std::memcpy(header, kSpillMagic, sizeof(kSpillMagic));
  header[8] = kSpillVersion;
  put_u32le(header + 9, id);
  put_u32le(header + 13, static_cast<std::uint32_t>(blob.size()));
  put_u32le(header + 17, crc32c(blob.data(), blob.size()));
  const std::uint64_t file_bytes = kSpillHeaderBytes + blob.size();

  if (file_bytes > budget_) return result;  // would never fit
  // Pick the LRU victims now, but drop them only once the new file is in
  // place: a failed write must leave every victim loadable.
  std::vector<std::uint32_t> victims;
  std::uint64_t kept = bytes_;
  for (auto it = lru_.begin(); kept + file_bytes > budget_ && it != lru_.end();
       ++it) {
    victims.push_back(*it);
    kept -= index_.at(*it).bytes;
  }

  // Written in place, with no tmp + rename and no fsync: the index lives
  // in this process, so a file torn by a crash is never loaded — the next
  // process's sweep deletes it.
  const std::string path = path_for(id);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return result;
  iovec parts[2] = {{header, kSpillHeaderBytes},
                    {const_cast<char*>(blob.data()), blob.size()}};
  const bool wrote = write_all(fd, parts, 2);
  if (::close(fd) != 0 || !wrote) {
    ::unlink(path.c_str());
    return result;
  }

  for (const std::uint32_t victim : victims) drop_entry(victim);
  result.dropped = std::move(victims);
  lru_.push_back(id);
  Entry e;
  e.lru = std::prev(lru_.end());
  e.bytes = file_bytes;
  bytes_ += e.bytes;
  index_.emplace(id, e);
  result.stored = true;
  return result;
}

std::optional<std::string> SpillTier::load(std::uint32_t id,
                                           std::string* error) {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    if (error) *error = k_error("K009", id, "no spill entry for this session");
    return std::nullopt;
  }
  // One readv: the header, the blob straight into the string returned, and
  // one guard byte. Reading at most one byte more than the tier wrote
  // bounds the buffers whatever now sits at the path; a longer, shorter or
  // missing file fails the length checks below.
  unsigned char header[kSpillHeaderBytes];
  std::string blob(static_cast<std::size_t>(it->second.bytes) - kSpillHeaderBytes,
                   '\0');
  unsigned char guard = 0;
  std::size_t file_size = 0;
  const int fd = ::open(path_for(id).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    iovec parts[3] = {{header, kSpillHeaderBytes},
                      {blob.data(), blob.size()},
                      {&guard, 1}};
    const ssize_t got = read_all(fd, parts, 3);
    file_size = got < 0 ? 0 : static_cast<std::size_t>(got);
    ::close(fd);
  }
  drop_entry(id);  // success or corrupt, the entry is consumed

  const auto reject = [&](const char* code,
                          const char* what) -> std::optional<std::string> {
    if (error) *error = k_error(code, id, what);
    return std::nullopt;
  };
  if (file_size < kSpillHeaderBytes)
    return reject("K009", "spill file missing or truncated before its header");
  const unsigned char* p = header;
  if (std::memcmp(p, kSpillMagic, sizeof(kSpillMagic)) != 0)
    return reject("K009", "spill file magic mismatch");
  if (p[8] != kSpillVersion) return reject("K009", "spill file version mismatch");
  if (get_u32le(p + 9) != id)
    return reject("K009", "spill file names a different session");
  const std::uint32_t payload_len = get_u32le(p + 13);
  const std::uint32_t crc = get_u32le(p + 17);
  if (file_size != kSpillHeaderBytes + payload_len ||
      payload_len != blob.size())
    return reject("K009", "spill file length disagrees with its header");
  if (crc32c(blob.data(), blob.size()) != crc)
    return reject("K010", "spill payload fails its CRC32C");
  return blob;
}

}  // namespace race2d
