// On-disk content-addressed cell cache backing `michican_cli campaign
// --cache-dir` (and perfbench's cache-replay workload).
//
// Layout: one append-only pack file, "cells.pack", per cache directory.
// Each stored cell is one record: a 24-byte little-endian header, the key
// id (the CellKey::id() content address — spec hash, derived seed, engine
// version — so a key change is a different record, never a
// reinterpretation), then the raw payload:
//
//   "MCPK" | u32 id length | u64 payload length | u64 hash | id | payload
//
// The hash is FNV-1a over the key id and the payload, and it is re-verified
// on every fetch.  Any mismatch — bit rot, hand editing, a pack cut short
// under a live store — drops the entry, counts it as `corrupt`, and reports
// a miss: the caller recomputes and re-stores.  Corruption is never fatal
// and never served.
//
// A store is one append; a fetch is one positioned read at the offset the
// index holds.  Opening the store rebuilds that index from the record
// headers alone (payloads are skipped, never read into memory), so the byte
// counts in stats() are exact.  A later record of a key supersedes an
// earlier one.  A tail too short to hold its whole record — a run killed
// mid-append, or a failed write — is truncated away at open and counted as
// one `corrupt`; a failed or short append truncates the pack back to its
// last whole record at once.  A run killed part-way therefore resumes from
// every record it finished.
//
// The store holds the pack open under an exclusive flock() for its whole
// lifetime.  flock() locks the open file description, so a second store on
// the same directory — in another process or in this one — fails to open
// with a std::runtime_error instead of interleaving appends.
//
// The store never evicts or compacts: records are small (a few KiB per
// cell) and keyed by engine version, so clearing a stale cache is
// `rm -r DIR`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "runner/cell_store.hpp"

namespace mcan::serve {

class DiskStore final : public runner::CellStore {
 public:
  /// Opens (creating if needed) the cache directory and its pack, locks the
  /// pack and indexes its records.  Throws std::runtime_error if the
  /// directory or the pack cannot be created or opened, or if another live
  /// store holds the directory.
  explicit DiskStore(std::filesystem::path dir);
  ~DiskStore() override;

  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  [[nodiscard]] std::optional<std::string> fetch(
      const runner::CellKey& key) override;
  void store(const runner::CellKey& key, std::string_view bytes) override;
  [[nodiscard]] Stats stats() const override;

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  /// Where a record's payload sits in the pack, and its stored hash.
  struct Slot {
    std::uint64_t offset{};
    std::uint64_t len{};
    std::uint64_t hash{};
  };

  void index_pack();
  /// Index `slot` under `id`, superseding any earlier record of the key.
  void put(const std::string& id, const Slot& slot);

  std::filesystem::path dir_;
  int fd_{-1};

  mutable std::mutex mu_;
  std::map<std::string, Slot, std::less<>> index_;  // key id -> record
  std::uint64_t end_{0};  // end of the last whole record
  Stats stats_;
};

}  // namespace mcan::serve
