// Byte-blob compressor for the service's cold tier (compress/spill_tier.hpp).
//
// Session snapshot blobs are full of repeated structure — shadow-cell
// tables, pending-report records, interval arrays — that a window match
// codec folds well. This is a small deterministic LZ77 variant (greedy
// hash-chain matcher, 64 KiB window) chosen over pulling in a third-party
// compressor: no new dependency, and byte-stable output the tests can pin.
//
//   blob := "R2DZ" version:u8=1 varint raw_size token*
//   token := 0x00 varint n  byte[n]          literal bytes
//          | 0x01 varint dist varint len     copy `len` bytes from `dist`
//                                            back in the output (len >= 4,
//                                            dist >= 1, overlap legal)
//
// blob_decompress returns std::nullopt on ANY malformed input (bad magic or
// version, distance past the output written so far, size mismatch, raw_size
// above kMaxBlobBytes) — the spill tier maps that to its K-coded rejection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace race2d {

/// Decompression bound: a corrupt raw_size field must not drive a huge
/// allocation before the token stream is even read.
inline constexpr std::uint64_t kMaxBlobBytes = 1ull << 30;

/// Deterministic: same input, same output, every build.
std::string blob_compress(const std::string& raw);

/// Decodes the `size` bytes at `blob`, which may point into a larger buffer
/// (the spill tier passes its file buffer past the header), so no copy of
/// the compressed bytes is made.
std::optional<std::string> blob_decompress(const char* blob,
                                           std::size_t size);

}  // namespace race2d
