#include "core/cpu_model.hpp"

namespace mcan::core {

double mean_decision_depth(const DetectionFsm& fsm,
                           const std::vector<can::CanId>& ids) {
  if (ids.empty()) return 0.0;
  double sum = 0;
  for (const auto id : ids) {
    sum += fsm.decide(id).bit_position;
  }
  return sum / static_cast<double>(ids.size());
}

mcu::CpuLoadBreakdown measured_cpu(const MonitorStats& stats,
                                   std::size_t fsm_nodes,
                                   const mcu::McuProfile& mcu,
                                   double bus_bits_per_s) {
  const mcu::HandlerPathOps ops;
  mcu::CpuLoadBreakdown out;
  const double bit_us = 1e6 / bus_bits_per_s;
  const int nodes = static_cast<int>(fsm_nodes);

  const double us_idle = mcu::handler_time_us(mcu, ops.idle, nodes, false);
  const double us_fsm =
      mcu::handler_time_us(mcu, ops.track + ops.fsm_extra, nodes, true);
  const double us_track = mcu::handler_time_us(mcu, ops.track, nodes, true);

  out.idle_load = us_idle / bit_us;
  const double active_bits =
      static_cast<double>(stats.fsm_bits + stats.track_bits);
  if (active_bits > 0) {
    out.handler_avg_us =
        (static_cast<double>(stats.fsm_bits) * us_fsm +
         static_cast<double>(stats.track_bits) * us_track) /
        active_bits;
    out.active_load = out.handler_avg_us / bit_us;
  }
  const double total_bits =
      active_bits + static_cast<double>(stats.idle_bits);
  if (total_bits > 0) {
    out.combined_load =
        (active_bits * out.active_load +
         static_cast<double>(stats.idle_bits) * out.idle_load) /
        total_bits;
  }
  return out;
}

CpuEstimate estimate_cpu(const IvnConfig& ivn, can::CanId own_id,
                         Scenario scenario, const mcu::McuProfile& mcu,
                         double bus_bits_per_s, double busy_fraction,
                         double frame_bits) {
  const auto fsm = DetectionFsm::build(
      ivn.detection_ranges(own_id, scenario));
  CpuEstimate est;
  est.fsm_nodes = fsm.node_count();
  // +1: the SOF bit is also handled before the first ID bit is available.
  est.mean_fsm_bits = 1.0 + mean_decision_depth(fsm, ivn.ecus());
  est.load = mcu::cpu_load(mcu, mcu::HandlerPathOps{},
                           static_cast<int>(est.fsm_nodes),
                           est.mean_fsm_bits, frame_bits, busy_fraction,
                           bus_bits_per_s);
  return est;
}

}  // namespace mcan::core
