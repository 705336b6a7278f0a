// The CellStore seam: content-addressed fetch-or-compute for campaign grid
// cells (ARCHITECTURE.md §7).
//
// Every (spec, seed) cell of a campaign is deterministic by construction
// (the jobs=1-vs-N byte-identity gates of the benches and test_runner
// prove it on every run).  A deterministic cell is a pure function of its
// identity, so its serialized result can be cached and replayed verbatim:
// a warm sweep that fetches every cell is byte-identical to a cold one *by
// construction*, not by luck.
//
// Cache key = (spec content hash, derived seed, engine version):
//   * spec hash    — fingerprint() over every semantic ExperimentSpec field
//                    in a fixed order.  The engine switch (fast_path)
//                    and capture_timeline are deliberately EXCLUDED: the
//                    equivalence suites (test_fast_path, test_batch_engine,
//                    the conformance fuzzer) enforce that they cannot
//                    change the result, so keying on them would only split
//                    the cache.  The spec's own `seed` field is excluded
//                    too — the campaign overwrites it with the derived task
//                    seed, which is the second key component.
//   * derived seed — sim::derive_seed(spec_root, seed); a pure function of
//                    (base_seed, spec_index, seed).
//   * engine       — kEngineVersion, bumped whenever simulation semantics
//                    change; one bump invalidates every prior cell.
//
// CellStore is the narrow interface run_campaign() talks through.
// MemoryStore is the in-process implementation (tests, single-run reuse);
// `michican_cli campaign --cache-dir` and perfbench plug in
// serve::DiskStore (one append-only pack of hash-verified records per
// cache directory, persistent across runs).  A null CampaignConfig::cells
// means "compute every cell" — existing call sites keep working unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/experiments.hpp"

namespace mcan::runner {

/// Version tag of the simulation engine + cell serialization format.
/// Part of every cache key: bump it whenever a change could alter any
/// cell's deterministic result bytes (protocol model, codec layout,
/// aggregation inputs) or how a stored cell is checked, and every
/// previously cached cell goes stale at once — no manual cache flush, no
/// corrupt reuse.  v4: DiskStore checksums its records by 32-bit half-words,
/// so a v3 record would fail the new check; under v4 keys it is never
/// fetched, so it is never counted as corrupt.
inline constexpr std::string_view kEngineVersion = "michican-cell-v4";

/// Incremental FNV-1a 64-bit content hash.  Not cryptographic — the cache
/// is a local trusted store; what matters is stability across runs and
/// platforms (fixed integer widths, doubles hashed by bit pattern).  It
/// stays byte-wise: it computes the spec hash inside every cache key and
/// perfbench's output digests, and a word-wise variant would move both.
/// DiskStore's record checksum, which runs over every stored and fetched
/// payload, is the word-wise one (serve/disk_store.hpp).
class Fingerprint {
 public:
  void mix_bytes(const void* data, std::size_t len) noexcept;
  void mix_u64(std::uint64_t v) noexcept;
  void mix_i64(std::int64_t v) noexcept;
  void mix_double(double v) noexcept;  // bit pattern, so -0.0 != 0.0
  /// Length-prefixed, so ("ab","c") never collides with ("a","bc").
  void mix_str(std::string_view s) noexcept;

  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }

 private:
  std::uint64_t h_{0xCBF29CE484222325ull};  // FNV offset basis
};

/// Content hash of every semantic spec field (see the exclusion rules in
/// the file comment).  Two specs with equal fingerprints produce identical
/// deterministic results for equal derived seeds.
[[nodiscard]] std::uint64_t spec_fingerprint(
    const analysis::ExperimentSpec& spec);

struct CellKey {
  std::uint64_t spec_hash{};
  std::uint64_t seed{};  // derived seed — the actual RNG input
  std::string engine{kEngineVersion};

  /// Stable content address, filesystem- and JSON-safe:
  /// "<spec_hash hex>-<seed hex>-<engine>".
  [[nodiscard]] std::string id() const;
};

/// Result-cache interface.  Implementations may be called from multiple
/// campaign workers concurrently; fetch()/store() must be thread-safe.
class CellStore {
 public:
  struct Stats {
    std::uint64_t hits{};
    std::uint64_t misses{};
    std::uint64_t stores{};
    /// Entries whose stored hash failed re-verification (or that could not
    /// be parsed).  Counted, discarded, recomputed — never fatal.
    std::uint64_t corrupt{};
    std::uint64_t bytes{};    // payload bytes currently held
    std::uint64_t entries{};  // entries currently held
  };

  virtual ~CellStore() = default;

  /// Stored bytes for `key`, or nullopt on miss.  A corrupted entry counts
  /// as a miss (and is discarded) — the caller recomputes and re-stores.
  [[nodiscard]] virtual std::optional<std::string> fetch(const CellKey& key) = 0;

  /// Persist `bytes` under `key` (overwrites).  Must tolerate concurrent
  /// stores of the same key with identical bytes.
  virtual void store(const CellKey& key, std::string_view bytes) = 0;

  [[nodiscard]] virtual Stats stats() const = 0;
};

/// In-memory store: a mutex-guarded map.  The passthrough implementation
/// for tests and for reuse inside one process.
class MemoryStore final : public CellStore {
 public:
  [[nodiscard]] std::optional<std::string> fetch(const CellKey& key) override;
  void store(const CellKey& key, std::string_view bytes) override;
  [[nodiscard]] Stats stats() const override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> cells_;
  Stats stats_;
};

}  // namespace mcan::runner
