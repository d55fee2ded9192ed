// Bounded on-disk cold tier for evicted detection sessions.
//
// When the service's global byte budget forces an eviction, the session's
// snapshot blob (service/snapshot.hpp) is spilled as it is to
// `<dir>/sess-<id>.spill` instead of being tombstoned; the blob's varint
// fields already make it compact, so no second codec runs. A later FEED or
// explicit RESTORE rehydrates it transparently. The tier is LRU over file
// bytes: storing past the budget drops the least-recently-spilled sessions
// (the caller tombstones them — they are gone for real). Victims are
// dropped only after the new file is written, so a failed write loses
// nothing already spilled.
//
//   file := "R2DSPILL" version:u8=2 session_id:u32 payload_len:u32
//           crc:u32(payload, CRC32C) payload = snapshot blob
//
// Files are written in place with plain POSIX calls (open, writev, close;
// open, one readv on the way back), with no tmp + rename and no fsync: the
// tier trusts only its in-memory index, so nothing it spilled — a file torn
// by a crash included — can be loaded by a later process. A failed write
// unlinks its file. A spill directory therefore belongs to one daemon.
// Shards share it (session ids are disjoint across shards, so files never
// collide), and the constructor deletes the regular files named
// `sess-<id>.spill`, or `sess-<id>.spill.tmp` as older builds wrote, that
// an earlier process left behind, since they would sit outside the budget
// forever. Every other name, and every directory, is left alone. Because of
// that sweep, all tiers over one directory must be built before any of them
// stores.
//
// Corrupt spill files are K-coded like snapshot blobs: K009 for structural
// damage (missing file, bad magic/version/id, truncation), K010 for payload
// damage (CRC mismatch). load() always removes the entry — a corrupt spill
// must not be retried forever.
//
// Not thread-safe: each tier instance is owned by one shard thread; the
// service mirrors the counters into atomics for metrics_json().
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace race2d {

class SpillTier {
 public:
  /// `dir` should exist (the server creates it at startup); `budget_bytes`
  /// bounds the total file bytes resident on disk. Deletes the stale
  /// spill files an earlier process left in `dir`.
  SpillTier(std::string dir, std::uint64_t budget_bytes);

  struct StoreResult {
    bool stored = false;  ///< false: blob exceeds the whole budget, or I/O
                          ///< failed — the caller falls back to tombstoning
    std::vector<std::uint32_t> dropped;  ///< LRU victims deleted to make room;
                                         ///< empty whenever stored is false
  };
  /// Writes `blob` for session `id`, then evicts LRU entries
  /// until the tier fits its budget. On failure no other entry is touched.
  StoreResult store(std::uint32_t id, const std::string& blob);

  /// Reads back (and ALWAYS removes) session `id`'s blob. On failure
  /// returns nullopt with a K-coded message in *error (K009 structural,
  /// K010 payload).
  std::optional<std::string> load(std::uint32_t id, std::string* error);

  bool contains(std::uint32_t id) const {
    return index_.find(id) != index_.end();
  }
  std::size_t sessions() const { return index_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t budget_bytes() const { return budget_; }

 private:
  struct Entry {
    std::list<std::uint32_t>::iterator lru;
    std::uint64_t bytes = 0;  ///< whole file, header included
  };
  std::string path_for(std::uint32_t id) const;
  void drop_entry(std::uint32_t id);
  void sweep_stale_files() const;

  std::string dir_;
  std::string prefix_;  ///< "<dir>/sess-"
  std::uint64_t budget_;
  std::uint64_t bytes_ = 0;
  std::list<std::uint32_t> lru_;  ///< front = least recently spilled
  std::unordered_map<std::uint32_t, Entry> index_;
};

}  // namespace race2d
