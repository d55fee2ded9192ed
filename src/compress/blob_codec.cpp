#include "compress/blob_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "io/varint.hpp"

namespace race2d {

namespace {

constexpr char kBlobMagic[4] = {'R', '2', 'D', 'Z'};
constexpr std::uint8_t kBlobVersion = 1;
constexpr std::uint8_t kTokLiteral = 0x00;
constexpr std::uint8_t kTokCopy = 0x01;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxWindow = 64 * 1024;
constexpr std::size_t kHashBits = 15;
/// Spare bytes past the end of the decompression buffer: short literals and
/// copies move a fixed kSlack bytes and let the next token overwrite the
/// excess.
constexpr std::size_t kSlack = 16;

/// Hashes the 4 bytes at `p` read as a little-endian word, so the matcher
/// (and with it the compressed bytes) is the same on every host.
std::uint32_t hash4(const unsigned char* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          static_cast<std::uint32_t>(p[1]) << 8 |
                          static_cast<std::uint32_t>(p[2]) << 16 |
                          static_cast<std::uint32_t>(p[3]) << 24;
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the match between `p + cand` and `p + i`, whose first
/// kMinMatch bytes are known equal, compared a word at a time.
std::size_t match_length(const unsigned char* p, std::size_t cand,
                         std::size_t i, std::size_t n) {
  std::size_t len = kMinMatch;
  while (i + len + 8 <= n) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, p + cand + len, 8);
    std::memcpy(&b, p + i + len, 8);
    const std::uint64_t diff = a ^ b;
    if (diff != 0) {
      // The first differing byte is the lowest-addressed one.
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bits / 8);
    }
    len += 8;
  }
  while (i + len < n && p[cand + len] == p[i + len]) ++len;
  return len;
}

unsigned char* put_varint(unsigned char* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<unsigned char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<unsigned char>(v);
  return out;
}

/// decode_varint with the one-byte case (nearly every token field) inline.
bool get_varint(const unsigned char* p, std::size_t n, std::size_t& pos,
                std::uint64_t& value) {
  if (pos < n && p[pos] < 0x80) {
    value = p[pos++];
    return true;
  }
  return decode_varint(p, n, pos, value) == VarintStatus::kOk;
}

}  // namespace

std::string blob_compress(const std::string& raw) {
  const auto* p = reinterpret_cast<const unsigned char*>(raw.data());
  const std::size_t n = raw.size();
  // Output bound. A literal token costs 1 + varint(len) bytes over its
  // payload and a copy token at most 1 + 3 + 1 bytes (dist <= 64 KiB) for
  // >= 4 input bytes. Literal runs are separated by copies, so the worst
  // case is a 1-byte literal then a 4-byte copy: 8 output bytes per 5 input
  // bytes. Add the header (<= 15 bytes) and the final literal's token
  // header (<= 11 bytes).
  const std::size_t bound = n + 3 * (n / 5) + 32;
  const std::unique_ptr<unsigned char[]> buffer(new unsigned char[bound]);
  unsigned char* const begin = buffer.get();
  unsigned char* o = begin;
  std::memcpy(o, kBlobMagic, sizeof(kBlobMagic));
  o += sizeof(kBlobMagic);
  *o++ = kBlobVersion;
  o = put_varint(o, n);

  // One candidate per hash bucket: greedy and cheap. Good matches in
  // snapshot blobs are overwhelmingly exact structural repeats, so a single
  // most-recent candidate captures nearly all of the win. The table is kept
  // per thread, so a call clears it instead of allocating it.
  thread_local std::vector<std::uint32_t> table(std::size_t{1} << kHashBits);
  std::fill(table.begin(), table.end(), UINT32_MAX);
  std::uint32_t* const head = table.data();

  std::size_t lit_start = 0;
  const auto flush_literals = [&](std::size_t end) {
    if (end == lit_start) return;
    *o++ = kTokLiteral;
    o = put_varint(o, end - lit_start);
    std::memcpy(o, p + lit_start, end - lit_start);
    o += end - lit_start;
  };

  std::size_t i = 0;
  while (i + kMinMatch <= n) {
    const std::uint32_t h = hash4(p + i);
    const std::uint32_t cand = head[h];
    head[h] = static_cast<std::uint32_t>(i);
    if (cand != UINT32_MAX && i - cand <= kMaxWindow &&
        std::memcmp(p + cand, p + i, kMinMatch) == 0) {
      const std::size_t len = match_length(p, cand, i, n);
      flush_literals(i);
      *o++ = kTokCopy;
      o = put_varint(o, i - cand);
      o = put_varint(o, len);
      // Index a few positions inside the match so back-to-back repeats
      // still find candidates, without paying a per-byte insert.
      const std::size_t step = len > 64 ? 16 : 4;
      for (std::size_t j = i + step; j + kMinMatch <= i + len; j += step)
        head[hash4(p + j)] = static_cast<std::uint32_t>(j);
      i += len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(n);
  return std::string(reinterpret_cast<const char*>(begin),
                     static_cast<std::size_t>(o - begin));
}

std::optional<std::string> blob_decompress(const char* blob,
                                           std::size_t size) {
  const auto* p = reinterpret_cast<const unsigned char*>(blob);
  const std::size_t n = size;
  if (n < sizeof(kBlobMagic) + 1) return std::nullopt;
  if (std::memcmp(p, kBlobMagic, sizeof(kBlobMagic)) != 0) return std::nullopt;
  if (p[4] != kBlobVersion) return std::nullopt;
  std::size_t pos = 5;

  std::uint64_t raw_size = 0;
  if (!get_varint(p, n, pos, raw_size)) return std::nullopt;
  if (raw_size > kMaxBlobBytes) return std::nullopt;

  // Sized once, with kSlack spare bytes so short copies can move a fixed
  // 16 bytes, and left uninitialised: a corrupt raw_size (<= 1 GiB) costs
  // address space, not memory, until the token stream fails.
  const std::size_t total = static_cast<std::size_t>(raw_size);
  const std::unique_ptr<char[]> buffer(new char[total + kSlack]);
  char* const out = buffer.get();
  std::size_t written = 0;
  while (pos < n) {
    const std::uint8_t tok = p[pos++];
    if (tok == kTokLiteral) {
      std::uint64_t len = 0;
      if (!get_varint(p, n, pos, len)) return std::nullopt;
      if (len == 0 || len > n - pos) return std::nullopt;
      if (len > total - written) return std::nullopt;
      if (len <= kSlack && n - pos >= kSlack)
        std::memcpy(out + written, p + pos, kSlack);
      else
        std::memcpy(out + written, p + pos, static_cast<std::size_t>(len));
      written += static_cast<std::size_t>(len);
      pos += static_cast<std::size_t>(len);
    } else if (tok == kTokCopy) {
      std::uint64_t dist = 0;
      std::uint64_t len = 0;
      if (!get_varint(p, n, pos, dist)) return std::nullopt;
      if (!get_varint(p, n, pos, len)) return std::nullopt;
      if (dist == 0 || dist > written) return std::nullopt;
      if (len < kMinMatch || len > total - written) return std::nullopt;
      char* const dst = out + written;
      const char* const src = dst - dist;
      if (len <= kSlack && dist >= kSlack) {
        std::memcpy(dst, src, kSlack);
      } else if (dist >= len) {
        std::memcpy(dst, src, static_cast<std::size_t>(len));
      } else {
        // Overlapping copies (dist < len) are legal and mean "repeat the
        // last `dist` bytes", exactly like LZ77: byte order matters.
        for (std::size_t k = 0; k < len; ++k) dst[k] = src[k];
      }
      written += static_cast<std::size_t>(len);
    } else {
      return std::nullopt;
    }
  }
  if (written != total) return std::nullopt;
  return std::string(out, total);
}

}  // namespace race2d
