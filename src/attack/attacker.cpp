#include "attack/attacker.hpp"

#include <cmath>

namespace mcan::attack {

can::BitController::Config attacker_controller_config(
    const AttackerConfig& cfg) {
  can::BitController::Config c;
  // A persistent attacker keeps its pending frame across bus-off and
  // recovers automatically (the paper's persistent bus-off attack model).
  c.auto_recover = cfg.persistent;
  c.clear_queue_on_bus_off = cfg.clear_queue_on_bus_off || !cfg.persistent;
  // The attacker needs only a shallow queue: it floods one frame at a time
  // (Exp. 6 toggles two IDs, so keep room for both).
  c.tx_queue_capacity = 4;
  return c;
}

Attacker::Attacker(std::string name, AttackerConfig cfg)
    : cfg_(std::move(cfg)),
      ctrl_(std::move(name), attacker_controller_config(cfg_)),
      rng_(cfg_.seed) {
  ctrl_.add_app(
      [this](sim::BitTime now, can::BitController&) { pump(now); },
      [this](sim::BitTime now) { return pump_next(now); });
}

sim::BitTime Attacker::pump_next(sim::BitTime now) const {
  if (ctrl_.is_bus_off() && !cfg_.persistent) return can::kNever;
  if (cfg_.period_bits > 0.0) {
    if (static_cast<double>(now) >= next_due_) return can::kAlways;
    return static_cast<sim::BitTime>(std::ceil(next_due_));
  }
  // Continuous flood: pump() only does work when the queue has run dry.
  // Waiting for that is waiting on the controller, so the answer is kNever:
  // the hook parks until a frame leaves the queue (sent, or cleared at
  // bus-off) or bus-off ends.
  return ctrl_.queue_depth() == 0 ? can::kAlways : can::kNever;
}

void Attacker::pump(sim::BitTime now) {
  if (ctrl_.is_bus_off() && !cfg_.persistent) return;

  if (cfg_.period_bits > 0.0) {
    if (static_cast<double>(now) < next_due_) return;
    next_due_ += cfg_.period_bits;
  } else if (ctrl_.queue_depth() != 0) {
    return;  // continuous flood: top up only when the queue runs dry
  }

  can::CanFrame f;
  f.id = cfg_.ids[next_id_];
  f.extended = cfg_.extended;
  next_id_ = (next_id_ + 1) % cfg_.ids.size();
  f.dlc = cfg_.dlc;
  if (cfg_.random_payload) {
    for (int i = 0; i < f.dlc; ++i) {
      f.data[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(rng_.uniform(0, 255));
    }
  }
  if (ctrl_.enqueue(f)) ++injected_;
}

std::vector<can::CanId> Attacker::injected_ids() const {
  std::vector<can::CanId> out = cfg_.ids;
  if (cfg_.extended) {
    const auto n = out.size();
    out.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(can::ext_base(out[i]));
  }
  return out;
}

AttackerConfig Attacker::spoof(can::CanId victim_id) {
  AttackerConfig c;
  c.ids = {victim_id};
  return c;
}

AttackerConfig Attacker::traditional_dos() {
  AttackerConfig c;
  c.ids = {0x000};
  return c;
}

AttackerConfig Attacker::targeted_dos(can::CanId id) {
  AttackerConfig c;
  c.ids = {id};
  return c;
}

AttackerConfig Attacker::miscellaneous(can::CanId id) {
  AttackerConfig c;
  c.ids = {id};
  return c;
}

AttackerConfig Attacker::alternating(can::CanId a, can::CanId b) {
  AttackerConfig c;
  c.ids = {a, b};
  c.clear_queue_on_bus_off = true;
  return c;
}

}  // namespace mcan::attack
