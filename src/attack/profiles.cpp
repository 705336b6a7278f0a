#include "attack/profiles.hpp"

#include <cmath>
#include <utility>

#include "restbus/candump.hpp"

namespace mcan::attack {

namespace {

// `--rate` frames/second -> injection period in bit times on this bus.
AttackerConfig with_resolved_rate(AttackerConfig cfg, sim::BusSpeed speed) {
  if (cfg.rate_fps > 0.0) {
    cfg.period_bits =
        static_cast<double>(speed.bits_per_second) / cfg.rate_fps;
  }
  return cfg;
}

}  // namespace

FloodAttacker::FloodAttacker(std::string name, AttackerConfig cfg,
                             sim::BusSpeed speed)
    : Attacker(std::move(name), with_resolved_rate(std::move(cfg), speed)) {}

FuzzAttacker::FuzzAttacker(std::string name, AttackerConfig cfg,
                           sim::BusSpeed speed)
    : cfg_(with_resolved_rate(std::move(cfg), speed)),
      ctrl_(std::move(name), attacker_controller_config(cfg_)),
      rng_(cfg_.seed) {
  ctrl_.add_app(
      [this](sim::BitTime now, can::BitController&) { pump(now); },
      [this](sim::BitTime now) { return pump_next(now); });
}

// Same answers as Attacker::pump_next: kNever parks the hook while it waits
// on the controller.
sim::BitTime FuzzAttacker::pump_next(sim::BitTime now) const {
  if (ctrl_.is_bus_off() && !cfg_.persistent) return can::kNever;
  if (cfg_.period_bits > 0.0) {
    if (static_cast<double>(now) >= next_due_) return can::kAlways;
    return static_cast<sim::BitTime>(std::ceil(next_due_));
  }
  return ctrl_.queue_depth() == 0 ? can::kAlways : can::kNever;
}

void FuzzAttacker::pump(sim::BitTime now) {
  if (ctrl_.is_bus_off() && !cfg_.persistent) return;

  if (cfg_.period_bits > 0.0) {
    if (static_cast<double>(now) < next_due_) return;
    next_due_ += cfg_.period_bits;
  } else if (ctrl_.queue_depth() != 0) {
    return;  // continuous fuzz: top up only when the queue runs dry
  }

  can::CanFrame f;
  f.extended = cfg_.extended;
  f.id = static_cast<can::CanId>(
      rng_.uniform(cfg_.fuzz_id_min, cfg_.fuzz_id_max));
  f.dlc = static_cast<std::uint8_t>(
      rng_.uniform(cfg_.fuzz_dlc_min, cfg_.fuzz_dlc_max));
  for (int i = 0; i < f.dlc; ++i) {
    f.data[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(rng_.uniform(0, 255));
  }
  if (ctrl_.enqueue(f)) {
    ++injected_;
    ids_.insert(f.id);
    if (f.extended) ids_.insert(can::ext_base(f.id));
  }
}

std::vector<can::CanId> FuzzAttacker::injected_ids() const {
  return {ids_.begin(), ids_.end()};
}

ReplayAttacker::ReplayAttacker(std::string name, AttackerConfig cfg,
                               sim::BusSpeed speed)
    : cfg_(std::move(cfg)),
      ctrl_(std::move(name), attacker_controller_config(cfg_)) {
  restbus::attach_candump_replay(
      ctrl_, restbus::parse_trace(cfg_.replay_trace, cfg_.replay_format),
      speed, cfg_.replay_time_scale, [this](const can::CanFrame& f) {
        ++injected_;
        ids_.insert(f.id);
        if (f.extended) ids_.insert(can::ext_base(f.id));
      });
}

std::vector<can::CanId> ReplayAttacker::injected_ids() const {
  return {ids_.begin(), ids_.end()};
}

std::unique_ptr<AttackerNode> make_attacker(std::string name,
                                            AttackerConfig cfg,
                                            sim::BusSpeed speed) {
  switch (cfg.profile) {
    case AttackProfile::Flood:
      return std::make_unique<FloodAttacker>(std::move(name), std::move(cfg),
                                             speed);
    case AttackProfile::Fuzz:
      return std::make_unique<FuzzAttacker>(std::move(name), std::move(cfg),
                                            speed);
    case AttackProfile::Replay:
      return std::make_unique<ReplayAttacker>(std::move(name), std::move(cfg),
                                              speed);
    case AttackProfile::Scripted:
      break;
  }
  return std::make_unique<Attacker>(std::move(name), std::move(cfg));
}

can::CanId primary_attack_id(const AttackerConfig& cfg) {
  switch (cfg.profile) {
    case AttackProfile::Fuzz:
      return cfg.fuzz_id_min;
    case AttackProfile::Replay:
      try {
        const auto trace =
            restbus::parse_trace(cfg.replay_trace, cfg.replay_format);
        return trace.empty() ? 0 : trace.front().frame.id;
      } catch (const std::exception&) {
        return 0;
      }
    case AttackProfile::Scripted:
    case AttackProfile::Flood:
      break;
  }
  return cfg.ids.empty() ? 0 : cfg.ids.front();
}

}  // namespace mcan::attack
