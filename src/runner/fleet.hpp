// Process-sharded fleet campaigns with checkpoint/resume (ARCHITECTURE.md
// §8.2).
//
// A fleet run simulates N vehicle instances (seeds 0..N) of a scenario list
// across K worker *processes*.  Each worker is a fork/exec of this binary's
// `fleet-worker` subcommand, runs run_campaign() over its contiguous seed
// sub-range, and persists every cell into one shared content-addressed
// CellStore (the serve daemon's DiskStore format, so a fleet and a daemon
// warm the same cache).  The parent never aggregates shard numbers: after
// the workers exit it re-runs run_campaign() over the *full* plan against
// the shared store — every cell a worker finished is a cache hit, anything
// a crashed worker left behind is recomputed — so the merged report is the
// single-process report by construction:
//
//   * shard-count independence: the deterministic report section is
//     byte-identical for any K, because it is produced by the same
//     full-range aggregation pass either way (the shards only decide who
//     *computes* each cell, never how cells combine);
//   * crash tolerance: a SIGKILLed run resumes by just re-running — the
//     store is the source of truth, finished cells replay as hits;
//   * cache-key stability: a cell's derived seed is a pure function of
//     (base_seed, spec_index, absolute seed), independent of shard slicing,
//     so shard K's keys equal the keys of a direct run.
//
// The checkpoint manifest (michican.fleet-checkpoint.v1) is an
// observability artifact on top of that: the parent periodically scans the
// cache directory for the planned cell files and records which are done,
// so an operator (or the CI fleet-smoke job) can watch progress and verify
// that a resume started from a warm cache.  Its plan hash covers the work
// definition — scenarios, vehicles, base seed, spec fingerprints, engine
// version — but deliberately NOT the shard count: resuming with a
// different K is legal and produces the identical report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runner/campaign.hpp"

namespace mcan::runner {

struct FleetConfig {
  /// Scenario names, resolved through ScenarioRegistry::built_in() in
  /// order.  Unknown names throw from fleet_campaign() with near-miss
  /// suggestions (the registry's make() error).
  std::vector<std::string> scenarios;
  /// Vehicle instances: seeds [0, vehicles) of every scenario.
  std::uint64_t vehicles{32};
  /// Worker processes.  Clamped to at least 1 and at most `vehicles`.
  std::size_t shards{1};
  /// Threads per worker (run_campaign jobs); 0 = hardware concurrency.
  unsigned jobs{1};
  std::uint64_t base_seed{0x4D696368u};  // "Mich"
  /// Recording duration override in milliseconds; 0 keeps each scenario's
  /// own duration.
  double duration_ms{0};
  bool fast_path{true};
  /// Shared cell-cache directory (serve::DiskStore layout).  Workers and
  /// the merge pass all open stores on this path; the checkpoint poller
  /// scans it for "<cell id>.cell" files.
  std::string cache_dir;
  /// Checkpoint manifest path; empty disables checkpointing.
  std::string checkpoint_path;
  /// How often the parent polls worker exit + refreshes the checkpoint.
  double checkpoint_interval_ms{200};
  /// Path of this binary, exec'd as `self_exe fleet-worker ...`.  The CLI
  /// resolves it from /proc/self/exe.
  std::string self_exe;
  /// Opens a CellStore on a directory — the seam that keeps runner free of
  /// a serve dependency (the CLI passes a serve::DiskStore factory; tests
  /// can substitute MemoryStore-backed fakes).  Used by the merge pass and
  /// by run_fleet_shard callers.
  std::function<std::unique_ptr<CellStore>(const std::string& dir)> open_store;
  /// Optional serialized progress/log sink (stderr narration).
  std::function<void(const std::string&)> log;
};

/// Shard k's contiguous absolute-seed sub-range out of [0, vehicles),
/// balanced to within one seed: [vehicles*k/shards, vehicles*(k+1)/shards).
/// The union over k is exactly [0, vehicles) with no overlap.
[[nodiscard]] SeedRange shard_seed_range(std::uint64_t vehicles,
                                         std::size_t shards, std::size_t k);

/// The fleet's full-range campaign config: resolved scenario specs (with
/// duration/engine overrides applied), seeds [0, vehicles), base_seed and
/// jobs from `cfg`.  This is the plan the merge pass runs and the one
/// plan_campaign() lays cell keys out for.  Throws std::invalid_argument
/// for an unknown scenario or vehicles == 0.
[[nodiscard]] CampaignConfig fleet_campaign(const FleetConfig& cfg);

/// Run shard `k` of `shards` in-process against `store`: the full spec
/// list restricted to shard_seed_range().  This is the body of the
/// `fleet-worker` subcommand and the unit tests' way to exercise sharding
/// without fork/exec.
[[nodiscard]] CampaignReport run_fleet_shard(const FleetConfig& cfg,
                                             std::size_t k, CellStore* store);

/// Fingerprint of the fleet's work definition: schema + engine version +
/// base seed + vehicle count + scenario names + per-spec content hashes.
/// Shard count and jobs are excluded — they change who computes, not what.
[[nodiscard]] std::uint64_t fleet_plan_hash(const FleetConfig& cfg);

/// Checkpoint manifest: which planned cells' files exist in the cache
/// directory, plus the plan hash that makes a stale manifest detectable.
struct CheckpointManifest {
  std::uint64_t plan_hash{};
  std::uint64_t total{};
  std::vector<std::string> done;  // CellKey::id() strings, sorted

  [[nodiscard]] std::string to_json() const;
};

/// Parse a manifest document; nullopt when the text is not a
/// michican.fleet-checkpoint.v1 document.
[[nodiscard]] std::optional<CheckpointManifest> parse_checkpoint(
    std::string_view text);

/// Per-worker outcome, read back from the shard summary reports (runtime
/// observability; never feeds the deterministic section).
struct ShardOutcome {
  std::size_t shard{};
  SeedRange seeds;
  int exit_code{-1};     // -1: terminated by signal / unreadable status
  bool summary_ok{};     // summary report found and parsed
  std::uint64_t cache_hits{};
  std::uint64_t cache_misses{};
  double wall_ms{};
  std::uint64_t failed{};  // failed tasks reported by the shard
};

struct FleetReport {
  /// Deterministic section: identical for any shard count and for a resumed
  /// run — gated byte-for-byte by CI (shards=1 vs shards=4, kill + resume).
  std::uint64_t vehicles{};
  std::uint64_t base_seed{};
  std::vector<std::string> scenarios;
  std::uint64_t plan_hash{};
  CampaignReport merged;  // the full-range aggregation pass

  // Runtime facts (fleet_stats_json only).
  std::size_t shards_used{};
  unsigned jobs{};
  double wall_ms{};
  /// Planned cells already present in the cache when the run started —
  /// > 0 proves a resume picked up where the killed run left off.
  std::uint64_t cells_at_start{};
  std::vector<ShardOutcome> shard_outcomes;

  [[nodiscard]] std::size_t failed_tasks() const noexcept {
    return merged.failed_tasks();
  }
};

/// Deterministic fleet report document (michican.fleet.v1): fleet identity
/// plus the embedded campaign report WITHOUT its runtime block.  Two runs
/// of the same plan — any shard count, cold or resumed — produce identical
/// bytes.
[[nodiscard]] std::string to_json(const FleetReport& report);

/// Runtime companion document: shard table, cache outcome of the merge
/// pass, checkpoint facts.  Varies run to run; never compared byte-wise.
[[nodiscard]] std::string fleet_stats_json(const FleetReport& report);

/// Run the full fleet: plan, validate/initialize the checkpoint, fork/exec
/// `shards` workers over the shared cache directory, poll their exit while
/// refreshing the checkpoint manifest, then merge by re-running the full
/// plan against the store.  Throws std::invalid_argument on an unusable
/// config (unknown scenario, vehicles == 0, empty cache_dir/self_exe or a
/// missing open_store factory, or a checkpoint written by a different
/// plan); worker failures are NOT fatal — their cells are recomputed by
/// the merge pass and surfaced in ShardOutcome.
[[nodiscard]] FleetReport run_fleet(const FleetConfig& cfg);

}  // namespace mcan::runner
