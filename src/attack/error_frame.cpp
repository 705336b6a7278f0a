#include "attack/error_frame.hpp"

#include <algorithm>

namespace mcan::attack {

sim::BitLevel ErrorFrameAttacker::tx_level() {
  return stomp_left_ > 0 ? sim::BitLevel::Dominant : sim::BitLevel::Recessive;
}

can::CanNode::DrivePattern ErrorFrameAttacker::drive_pattern(
    sim::BitTime /*now*/) {
  // Purely reactive: while idle it only watches for a SOF edge someone else
  // must create; mid-frame (or mid-stomp) it needs every bit.
  if (in_frame_ || stomp_left_ > 0) return {};
  return {can::kNever, ~0ull};
}

sim::BitTime ErrorFrameAttacker::transparent_bits(sim::BitTime /*now*/,
                                                  std::uint64_t word,
                                                  sim::BitTime count) {
  // A dominant bit either opens a frame or resets the recessive run.
  return can::recessive_prefix(word, count);
}

void ErrorFrameAttacker::on_bus_word(sim::BitTime now, std::uint64_t /*word*/,
                                     sim::BitTime count) {
  // Idle recessive bits only grow the run; saturate above the >= 11
  // SOF-eligibility threshold.
  constexpr int kRunCap = 1 << 20;
  recessive_run_ = static_cast<int>(std::min<sim::BitTime>(
      static_cast<sim::BitTime>(recessive_run_) + count, kRunCap));
  now_ = now + count - 1;
}

void ErrorFrameAttacker::on_bus_bit(sim::BitLevel bus) {
  const bool exhausted =
      cfg_.max_stomps != 0 && stomps_ >= cfg_.max_stomps;

  if (!in_frame_) {
    if (sim::is_dominant(bus) && recessive_run_ >= 11 && now_ >= cfg_.start &&
        !exhausted) {
      in_frame_ = true;
      pos_ = 0;
      destuff_.reset();
      (void)destuff_.feed(bus);  // SOF opens the stuffed region
      id_bits_ = 0;
      id_len_ = 0;
      match_ = false;
    }
    recessive_run_ = sim::is_recessive(bus) ? recessive_run_ + 1 : 0;
    return;
  }

  ++pos_;
  if (stomp_left_ > 0) --stomp_left_;

  // Decode the (destuffed) base ID; both frame formats start with the same
  // 11 arbitration bits after SOF.
  if (id_len_ < can::kIdBits) {
    switch (destuff_.feed(bus)) {
      case can::Destuffer::Result::DataBit:
        id_bits_ =
            (id_bits_ << 1) | static_cast<std::uint32_t>(sim::to_bit(bus));
        ++id_len_;
        if (id_len_ == can::kIdBits && id_bits_ == cfg_.victim_id) {
          match_ = true;
        }
        break;
      case can::Destuffer::Result::StuffBit:
        break;
      case can::Destuffer::Result::StuffError:
        // Someone's error flag is already on the wire; nothing to stomp.
        id_len_ = can::kIdBits + 1;
        match_ = false;
        break;
    }
  }

  // Arm one bit early: a level decided at the sample point of bit t drives
  // the bus at t+1 (CanNode contract), so the burst covers raw positions
  // [stomp_pos, stomp_pos + stomp_bits).
  if (match_ && pos_ == cfg_.stomp_pos - 1 && !exhausted) {
    match_ = false;
    stomp_left_ = cfg_.stomp_bits;
    ++stomps_;
  }

  // Stay passive until the error frame and intermission have passed.
  if (sim::is_recessive(bus)) {
    if (++recessive_run_ >= 11) in_frame_ = false;
  } else {
    recessive_run_ = 0;
  }
}

}  // namespace mcan::attack
