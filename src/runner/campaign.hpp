// Parallel experiment campaigns: a set of ExperimentSpecs × a seed range,
// fanned out across a ThreadPool, aggregated into per-spec statistics.
//
// The paper's evaluation (Table II, Sec. V-B/V-C) is statistical — mean,
// stddev and max of the bus-off time over repeated 2-second recordings.
// Independent recordings are embarrassingly parallel; this runner turns a
// (specs × seeds) grid into one task per cell, each owning a private
// WiredAndBus and attacker set, and reduces the outcomes deterministically.
//
// Determinism guarantee: for a fixed (specs, seed range, base_seed) the
// aggregated report — including every floating-point digit — is
// bit-identical for any `jobs` value and any thread scheduling, because
//   * each task's RNG seed is sim::derive_seed(spec_root, seed), a pure
//     function of task identity (fork()-style splitting, not a shared
//     stateful generator), and
//   * each task writes into a result slot indexed by (spec, seed), and the
//     reduction walks slots in index order after the pool drains.
// Only the `runtime` block of the JSON report (jobs, wall-clock) varies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "obs/trace_context.hpp"
#include "runner/cell_store.hpp"
#include "sim/stats.hpp"

namespace mcan::runner {

/// Half-open range of user-visible seeds [begin, end).
struct SeedRange {
  std::uint64_t begin{0};
  std::uint64_t end{1};

  [[nodiscard]] std::size_t size() const noexcept {
    return end > begin ? static_cast<std::size_t>(end - begin) : 0u;
  }
};

struct CampaignConfig {
  std::vector<analysis::ExperimentSpec> specs;
  SeedRange seeds{0, 32};
  /// Root of the two-level seed split: spec_root = derive_seed(base_seed,
  /// spec_index), task seed = derive_seed(spec_root, seed).
  std::uint64_t base_seed{0x4D696368u};  // "Mich"
  /// Worker threads; 0 = hardware concurrency.
  unsigned jobs{1};
  /// Optional progress sink, called serialized (under a lock) after every
  /// finished task with (done, total).
  std::function<void(std::size_t, std::size_t)> progress;
  /// Result-cache seam (ARCHITECTURE.md §7).  Null = compute every cell
  /// (the passthrough default; existing call sites keep working).  With a
  /// store attached each planned cell is fetched by content address first
  /// and only computed — then persisted — on a miss, so a warm rerun of an
  /// unchanged grid is pure cache replay and byte-identical by
  /// construction, and a run killed part-way resumes from the cells it
  /// already stored.  Not owned; must outlive run_campaign().
  CellStore* cells{nullptr};
  /// Span sink (perfbench's traced run).  Null = no tracing.  When set, the
  /// runner records plan / per-cell cache-probe / per-cell compute /
  /// aggregate spans, parented under `spans_parent`.  Telemetry only —
  /// attaching a collector never changes the report (guarded by test).
  obs::SpanCollector* spans{nullptr};
  std::uint64_t spans_parent{0};
};

/// One planned grid cell: the task identity plus its content-addressed
/// cache key, laid out before any work starts.
struct CellPlan {
  std::size_t spec_index{};
  std::uint64_t seed{};          // user-visible seed
  std::size_t slot{};            // index into CampaignReport::tasks
  std::uint64_t derived_seed{};  // actual ExperimentSpec::seed used
  CellKey key;
};

/// Lay out the full cell set of a campaign up front: one entry per
/// (spec, seed) in deterministic slot order.  Pure function of the config —
/// the cache keys it assigns are what run_campaign() fetches and stores by.
/// Throws std::invalid_argument on an unusable config (no specs or an
/// empty seed range).
[[nodiscard]] std::vector<CellPlan> plan_campaign(const CampaignConfig& cfg);

/// Outcome of one (spec, seed) grid cell.
struct TaskResult {
  std::size_t spec_index{};
  std::uint64_t seed{};          // user-visible seed from the range
  std::uint64_t derived_seed{};  // actual ExperimentSpec::seed used
  bool ok{false};
  std::string error;  // exception message when !ok (crash isolation)
  analysis::ExperimentResult result;  // valid iff ok
  double wall_ms{};  // per-task wall clock; runtime info, not deterministic
  /// Result replayed from the cell store instead of computed.  Runtime
  /// fact: the deterministic report section is identical either way.
  bool cached{false};
  /// A fetched entry decoded as garbage and the cell was recomputed.  The
  /// store already verified the payload hash, so this flags codec/version
  /// skew rather than disk rot.  Runtime fact, like `cached`.
  bool cache_corrupt{false};
};

struct PercentileSet {
  double p50{};
  double p90{};
  double p99{};
};

/// Per-attacker-slot statistics pooled over every seed of one spec.
struct AttackerAggregate {
  can::CanId primary_id{};
  std::size_t cycles{};  // completed bus-off cycles across all seeds
  sim::Summary busoff_ms;
  PercentileSet busoff_ms_pct;
};

/// Statistics for one spec over the whole seed range.
struct SpecAggregate {
  int number{};
  std::string label;
  std::size_t tasks{};
  std::size_t failed{};

  // Pooled over every completed bus-off cycle of every attacker and seed —
  // the Table II row, with percentiles on top.
  sim::Summary busoff_ms;
  PercentileSet busoff_ms_pct;
  std::vector<AttackerAggregate> attackers;

  /// Over the seeds whose first joint cycle completed (Sec. V-C totals).
  sim::Summary first_cycle_total_bits;
  /// Over the seeds that detected at least one attack.
  sim::Summary mean_detection_bit;
  sim::Summary busy_fraction;  // over all successful seeds

  std::uint64_t counterattacks{};
  std::uint64_t attacks_detected{};
  std::size_t defender_bus_off_runs{};
  int max_defender_tec{};
  int max_defender_rec{};
  std::uint64_t defender_frames_sent{};

  // Fault-sweep forensics (all zero on a clean bus; the `detection` and
  // `faults` JSON objects are emitted unconditionally so the schema is
  // stable across BER values).
  can::FaultInjector::Stats faults;
  std::uint64_t false_detections{};
  std::uint64_t attacker_frames{};
  std::uint64_t error_frame_stomps{};
  std::uint64_t restbus_frames_delivered{};
  std::uint64_t restbus_drops{};
  std::size_t restbus_bus_off_runs{};

  /// Per-task metrics shards merged in seed order — deterministic like every
  /// other field here (counters sum, gauges max, histogram buckets sum).
  obs::Registry metrics;
};

struct CampaignReport {
  std::uint64_t base_seed{};
  SeedRange seeds;
  std::vector<SpecAggregate> specs;
  /// Task grid in deterministic order: index = spec_index * seeds.size() +
  /// (seed - seeds.begin).
  std::vector<TaskResult> tasks;

  // Runtime facts (excluded from the deterministic JSON section).
  unsigned jobs_used{};
  double wall_ms{};
  /// Cell-store outcome of this run (all zero without a store attached):
  /// hits = cells replayed from the cache, misses = cells computed.
  bool cache_enabled{};
  std::uint64_t cache_hits{};
  std::uint64_t cache_misses{};
  /// Cells recomputed because their stored entry was corrupt (a subset of
  /// cache_misses): entries the store rejected during this run, as the
  /// growth of its stats().corrupt, plus fetched bytes that failed to
  /// decode.
  std::uint64_t cache_corrupt{};
  /// Self-profile: per-task phase timings summed over the grid plus the
  /// campaign-level aggregate pass.  Wall clocks — runtime info only.
  obs::Profiler profile;

  [[nodiscard]] std::size_t failed_tasks() const noexcept;

  /// Total bits simulated across every successful task (from the merged
  /// `bus.bits_simulated` counters) — the numerator of the campaign's
  /// bits-per-second throughput figure.
  [[nodiscard]] std::uint64_t bits_simulated() const;

  /// Bits covered by windows whose resolved word is all recessive (idle-bus
  /// skips) across every successful task.  Runtime perf info (zero with the
  /// fast path off) — lives next to wall clocks, never in the deterministic
  /// section.
  [[nodiscard]] std::uint64_t bits_skipped() const;

  /// Bits resolved by every other window across every successful task
  /// (zero with the fast path off).  Same runtime-only status.
  [[nodiscard]] std::uint64_t bits_batched() const;
};

/// Run the grid.  Specs that fail validation or throw mid-run are recorded
/// as failed tasks (crash isolation) — the campaign itself only throws if
/// the config is unusable (no specs or an empty seed range).
[[nodiscard]] CampaignReport run_campaign(const CampaignConfig& cfg);

/// Re-run one (spec_index, seed) grid cell with timeline capture on,
/// reproducing exactly the recording the campaign task saw (same two-level
/// derived seed).  Backs `--trace-out`: the campaign itself never pays the
/// per-event export cost.  Throws std::out_of_range for a bad spec_index or
/// a seed outside the range.
[[nodiscard]] analysis::ExperimentResult rerun_cell(const CampaignConfig& cfg,
                                                    std::size_t spec_index,
                                                    std::uint64_t seed);

}  // namespace mcan::runner
