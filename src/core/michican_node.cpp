#include "core/michican_node.hpp"

#include <algorithm>

namespace mcan::core {

MichiCanNode::MichiCanNode(std::string name, const IvnConfig& ivn,
                           MichiCanNodeConfig cfg)
    : name_(std::move(name)),
      cfg_(cfg),
      fsm_(DetectionFsm::build(
          ivn.detection_ranges(cfg.own_id, cfg.scenario))),
      ext_fsm_(DetectionFsm::build(
          cfg.guard_extended && cfg.scenario == Scenario::Full
              ? ivn.ext_detection_ranges(cfg.own_id)
              : IdRangeSet{},
          can::kExtIdBits)),
      ctrl_(name_ + "/ctrl", cfg.controller),
      monitor_(fsm_, pio_, cfg.monitor) {
  monitor_.set_self_transmitting([this] { return ctrl_.is_transmitting(); });
  if (cfg.guard_extended && cfg.scenario == Scenario::Full) {
    monitor_.set_extended_fsm(&ext_fsm_);
  }
}

void MichiCanNode::attach_to(can::WiredAndBus& bus) {
  bus.attach(*this);
  // The controller logs under "<name>/ctrl", the monitor under "<name>".
  monitor_.set_event_log(&bus.log(), name_);
  // Register the inner controller's event sink without double-attaching.
  ctrl_.set_event_sink(&bus.log());
  ctrl_.set_bus(&bus);
}

void MichiCanNode::tick(sim::BitTime now) {
  now_ = now;
  ctrl_.tick(now);
}

sim::BitLevel MichiCanNode::tx_level() {
  return sim::wired_and(ctrl_.tx_level(), pio_.tx_contribution());
}

void MichiCanNode::on_bus_bit(sim::BitLevel bus) {
  pio_.latch_rx(bus);
  ctrl_.on_bus_bit(bus);
  if (cfg_.defense_enabled) {
    monitor_.on_bit(now_, pio_.read_rx());
  }
}

can::CanNode::DrivePattern MichiCanNode::drive_pattern(sim::BitTime now) {
  DrivePattern p = ctrl_.drive_pattern(now);
  if (!cfg_.defense_enabled || p.horizon == 0) return p;
  // The armed monitor reacts on exact bits only (the verdict and the last
  // counterattack bit); transparent_bits() stops the window before them.
  // A running counterattack's release bit bounds the window up front, and
  // the PIO pulls CAN_TX dominant through all of it.
  p.horizon = std::min(p.horizon, monitor_.prefix_bound());
  if (pio_.tx_mux_enabled()) p.bits = 0;
  return p;
}

sim::BitTime MichiCanNode::transparent_bits(sim::BitTime now,
                                            std::uint64_t word,
                                            sim::BitTime count) {
  const sim::BitTime n = ctrl_.transparent_bits(now, word, count);
  if (!cfg_.defense_enabled || n == 0) return n;
  return monitor_.transparent_bits(now, word, n);
}

void MichiCanNode::on_bus_word(sim::BitTime now, std::uint64_t word,
                               sim::BitTime count) {
  // Per-bit stepping would latch every window level into the PIO read
  // register; only the last one survives (recessive in a long idle window).
  pio_.latch_rx(count > 64 || ((word >> (count - 1)) & 1u) != 0
                    ? sim::BitLevel::Recessive
                    : sim::BitLevel::Dominant);
  ctrl_.on_bus_word(now, word, count);
  if (cfg_.defense_enabled) monitor_.on_bus_word(now, word, count);
  now_ = now + count - 1;
}

}  // namespace mcan::core
