// Scenario-level CPU-utilization estimation (paper Sec. V-D).
//
// Combines the detection FSM built for a deployment with an MCU profile and
// a bus speed into the idle/active/combined CPU loads the paper reports.
#pragma once

#include "core/detection.hpp"
#include "core/fsm.hpp"
#include "core/monitor.hpp"
#include "mcu/profile.hpp"

namespace mcan::core {

/// Mean FSM decision depth over a traffic mix.  Benign traffic dominates a
/// live bus, so the default weighting averages the decision depth over the
/// legitimate IDs in 𝔼 (each observed frame runs the FSM until it decides).
[[nodiscard]] double mean_decision_depth(const DetectionFsm& fsm,
                                         const std::vector<can::CanId>& ids);

struct CpuEstimate {
  mcu::CpuLoadBreakdown load;
  std::size_t fsm_nodes{};
  double mean_fsm_bits{};
};

/// Estimate MichiCAN's CPU overhead for the ECU owning `own_id` on the
/// given IVN, scenario, MCU and bus speed.  `busy_fraction` is the bus
/// load (paper: ~0.4 observed in production vehicles); `frame_bits` the
/// average wire length of a frame (paper: 125 including stuff bits).
[[nodiscard]] CpuEstimate estimate_cpu(const IvnConfig& ivn,
                                       can::CanId own_id, Scenario scenario,
                                       const mcu::McuProfile& mcu,
                                       double bus_bits_per_s,
                                       double busy_fraction = 0.4,
                                       double frame_bits = 125.0);

/// CPU load computed from a *measured* per-path workload (the monitor's
/// Algorithm-1 path counters collected during a simulation) instead of the
/// analytic frame shape — the simulator's equivalent of the paper's
/// ESP8266 cycle-counter measurement.
[[nodiscard]] mcu::CpuLoadBreakdown measured_cpu(const MonitorStats& stats,
                                                 std::size_t fsm_nodes,
                                                 const mcu::McuProfile& mcu,
                                                 double bus_bits_per_s);

}  // namespace mcan::core
