// Machine-readable campaign reports (the BENCH_*.json trajectory).
//
// Schema "michican.campaign.v1":
//   {
//     "schema": "michican.campaign.v1",
//     "base_seed": <u64>,
//     "seeds": {"begin": <u64>, "end": <u64>},      // half-open
//     "specs": [{
//       "number": <int>, "label": <str>,
//       "tasks": <n>, "failed": <n>,
//       "busoff_ms": {"count","mean","stddev","min","max","p50","p90","p99"},
//       "attackers": [{"id": "0x173", "cycles": <n>, "busoff_ms": {...}}],
//       "first_cycle_total_bits": {summary}, "mean_detection_bit": {summary},
//       "busy_fraction": {summary},
//       "counterattacks": <n>, "attacks_detected": <n>,
//       "detection": {"attacker_frames": <n>, "false_detections": <n>,
//                     "error_frame_stomps": <n>},
//       "faults": {"random_flips": <n>, "scheduled_flips": <n>,
//                  "stuck_bits": <n>, "sample_slips": <n>},
//       "defender": {"bus_off_runs": <n>, "max_tec": <n>, "max_rec": <n>},
//       "restbus": {"frames": <n>, "drops": <n>, "bus_off_runs": <n>},
//       "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
//     }],
//     "tasks": [{"spec": <i>, "seed": <u64>, "derived_seed": <u64>,
//                "ok": <bool>, "error": <str?>, "cycles": <n>,
//                "counterattacks": <n>}],
//     "runtime": {"jobs": <n>, "wall_ms": <f>,
//                 "cache": {"enabled": <bool>, "hits": <n>, "misses": <n>,
//                           "corrupt": <n>},
//                 "task_wall_ms": {summary},
//                 "perf": {"phases": {"<phase>": {"calls","ms"}, ...},
//                          "serialize_ms": <f>, "bits_simulated": <u64>,
//                          "bits_per_second": <f>}}
//   }
//
// Per-spec "metrics" are the merged per-task registry shards (counters sum,
// gauges max, histogram buckets sum; merged in seed order) — deterministic
// like the rest of the section.  "perf" holds wall clocks and lives inside
// the runtime object, which stays excluded by default.
//
// Everything except the "runtime" object is a pure function of
// (specs, seed range, base_seed): rendering the same campaign with any
// `jobs` value produces byte-identical text when runtime is excluded
// (JsonOptions::include_runtime = false, the default).  Doubles are printed
// shortest-round-trip via std::to_chars, so equal doubles render equally.
#pragma once

#include <string>

#include "runner/campaign.hpp"

namespace mcan::runner {

struct JsonOptions {
  /// Include the "runtime" object (jobs, wall clocks).  Off by default so
  /// reports are comparable across worker counts.
  bool include_runtime{false};
  /// Include the per-task "tasks" array (one row per grid cell).
  bool include_tasks{true};
  /// When > 0 (and include_runtime), emit the serial reference wall clock
  /// as "baseline_wall_ms" plus the derived "speedup" factor — how the
  /// bench drivers record their jobs=N vs jobs=1 comparison.
  double baseline_wall_ms{0};
};

[[nodiscard]] std::string to_json(const CampaignReport& report,
                                  JsonOptions opts = {});

/// Write to_json(report, opts) to `path`; returns false on I/O failure.
bool write_json_file(const std::string& path, const CampaignReport& report,
                     JsonOptions opts = {});

}  // namespace mcan::runner
