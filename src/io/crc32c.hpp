// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// per-chunk checksum of the binary trace wire format, and the seal of
// snapshot blobs and spill files.
//
// Two implementations compute the same function. On x86 hosts whose CPU has
// SSE4.2, crc32c() runs the `crc32` instruction over 8-byte words; the
// choice is made once, at the first call, from __builtin_cpu_supports.
// Everywhere else it runs the portable slice-by-8 table loop, which stays
// exported as detail::crc32c_portable so tests can hold the two paths to
// identical values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace race2d {

/// CRC32C of `size` bytes starting at `data`, seeded with `crc` (pass 0 for
/// a fresh checksum; chain calls to checksum discontiguous pieces).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t crc = 0);

namespace detail {

/// The slice-by-8 table loop: same contract and values as crc32c().
std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t crc = 0);

/// True when crc32c() runs on the SSE4.2 instruction on this host.
bool crc32c_uses_hardware();

}  // namespace detail

}  // namespace race2d
