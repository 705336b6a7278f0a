// On-disk content-addressed cell cache backing `michican_cli campaign
// --cache-dir` (and perfbench's cache-replay workload).
//
// Layout: one file per cell under the cache directory, named "<key id>.cell"
// (the CellKey::id() content address — spec hash, derived seed, engine
// version — so a key change is a different file, never a reinterpretation).
// Each file is a one-line header followed by the raw payload:
//
//   MCST1 <fnv64 hex, 16 digits> <payload length decimal>\n<payload bytes>
//
// The header's hash is re-verified on every fetch.  Any mismatch — torn
// write, truncation, bit rot, hand editing — deletes the entry, counts it
// as `corrupt`, and reports a miss: the caller recomputes and re-stores.
// Corruption is never fatal and never served.
//
// Writes go through a temp file + rename() in the same directory, so a
// reader can never observe a half-written entry and a crash mid-store
// leaves at most a stray ".tmp" file (swept at startup).  A run killed
// part-way therefore resumes from every cell it finished.
//
// The store never evicts: entries are small (a few KiB per cell) and keyed
// by engine version, so clearing a stale cache is `rm -r DIR`.
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
  /// Opens (creating if needed) the cache directory and indexes existing
  /// entries.  Throws std::runtime_error if the directory cannot be
  /// created.
  explicit DiskStore(std::filesystem::path dir);

  [[nodiscard]] std::optional<std::string> fetch(
      const runner::CellKey& key) override;
  void store(const runner::CellKey& key, std::string_view bytes) override;
  [[nodiscard]] Stats stats() const override;

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  [[nodiscard]] std::filesystem::path path_for(std::string_view id) const;

  std::filesystem::path dir_;

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> index_;  // key id -> payload bytes
  Stats stats_;
};

}  // namespace mcan::serve
