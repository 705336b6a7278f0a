// Robustness campaign: sweep bit-error rate × attacker scenario and report
// how the MichiCAN defense degrades on a noisy bus.
//
// The sweep expands every base spec into one campaign spec per BER (via
// analysis::fault_variant — BER 0 leaves the spec untouched) and runs the
// whole grid through run_campaign(), inheriting its determinism guarantee:
// for a fixed config the report is byte-identical for any `jobs` value, and
// a sweep over {0} alone is byte-identical to the clean-bus campaign.
//
// Per (scenario, BER) cell the rows distil the paper-facing questions:
//   * does the arbitration monitor still see every attack frame (FN rate),
//     and does line noise trick it into flagging benign traffic (FP rate)?
//   * does the defender stay fault-confinement-clean (max TEC/REC, bus-off
//     runs) while the bus degrades around it?
//   * how much slower does the counterattack drive attackers to bus-off
//     than on a clean bus (mean bus-off time delta vs the BER=0 cell)?
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/report.hpp"

namespace mcan::runner {

struct FaultSweepConfig {
  /// Attacker scenarios; each is swept across every BER.
  std::vector<analysis::ExperimentSpec> base_specs;
  /// Bit-error rates; include 0 to anchor the clean-bus baseline (the
  /// degradation deltas are computed against it).
  std::vector<double> bers{0.0, 1e-5, 1e-4, 1e-3};
  SeedRange seeds{0, 8};
  std::uint64_t base_seed{0x4D696368u};  // "Mich"
  unsigned jobs{1};
  std::function<void(std::size_t, std::size_t)> progress;
};

/// One (scenario, BER) cell, distilled from the campaign aggregate.
struct FaultSweepRow {
  std::size_t scenario{};  // index into base_specs
  double ber{};
  std::string label;  // variant label ("... [BER=1e-04]")

  /// attacks_detected minus false positives, over attack frames started.
  double detection_rate{};
  /// 1 - detection_rate when the scenario has attack frames, else 0.
  double fn_rate{};
  /// Share of the monitor's verdicts that flagged non-attacker IDs.
  double fp_rate{};

  sim::Summary busoff_ms;  // pooled attacker bus-off cycles
  /// Mean bus-off time minus the same scenario's BER=0 mean (0 when the
  /// sweep has no clean baseline or either cell saw no cycles).
  double busoff_mean_delta_ms{};

  std::size_t defender_bus_off_runs{};
  int max_defender_tec{};
  int max_defender_rec{};

  can::FaultInjector::Stats faults;
  std::uint64_t error_frame_stomps{};
};

struct FaultSweepReport {
  std::vector<double> bers;
  std::vector<std::string> scenarios;  // base spec labels
  /// Rows in deterministic scenario-major, BER-minor order.
  std::vector<FaultSweepRow> rows;
  /// The underlying grid report; its spec order matches `rows`.  For a
  /// sweep over {0} this is byte-for-byte the clean-bus campaign report.
  CampaignReport campaign;
};

/// The campaign grid a sweep expands to (scenario-major, BER-minor spec
/// order).  Exposed so drivers can address individual grid cells — e.g.
/// rerun_cell() for `--trace-out` — with the same seeds the sweep used.
/// Performs the same config validation as run_fault_sweep().
[[nodiscard]] CampaignConfig fault_sweep_campaign(const FaultSweepConfig& cfg);

/// Expand the grid, run it, distil the rows.  Throws std::invalid_argument
/// on an unusable config (no specs, no BERs, a BER outside [0, 1)).
[[nodiscard]] FaultSweepReport run_fault_sweep(const FaultSweepConfig& cfg);

/// Deterministic JSON: schema "michican.fault_sweep.v1" wrapping the sweep
/// rows plus the embedded campaign report (same JsonOptions semantics).
[[nodiscard]] std::string to_json(const FaultSweepReport& report,
                                  JsonOptions opts = {});

/// Fixed-width text table (one row per (scenario, BER) cell) for the CLI.
[[nodiscard]] std::string format_table(const FaultSweepReport& report);

}  // namespace mcan::runner
