#include "attack/cannon.hpp"

#include <algorithm>

namespace mcan::attack {

using sim::BitLevel;

CannonAttacker::CannonAttacker(std::string name, CannonConfig cfg)
    : name_(std::move(name)), cfg_(cfg) {}

sim::BitLevel CannonAttacker::tx_level() {
  return firing_ ? BitLevel::Dominant : BitLevel::Recessive;
}

void CannonAttacker::end_frame() {
  in_frame_ = false;
  firing_ = false;
  cnt_sof_ = 0;
}

can::CanNode::DrivePattern CannonAttacker::drive_pattern(
    sim::BitTime /*now*/) {
  // Purely reactive SOF-watcher while idle; mid-frame every bit matters.
  if (in_frame_) return {};
  return {can::kNever, ~0ull};
}

sim::BitTime CannonAttacker::transparent_bits(sim::BitTime /*now*/,
                                              std::uint64_t word,
                                              sim::BitTime count) {
  // A dominant bit either opens a frame or resets the SOF counter.
  return can::recessive_prefix(word, count);
}

void CannonAttacker::on_bus_word(sim::BitTime now, std::uint64_t /*word*/,
                                 sim::BitTime count) {
  // Idle recessive bits only grow the SOF counter; saturate above the
  // >= 11 eligibility threshold.
  constexpr int kSofCap = 1 << 20;
  cnt_sof_ = static_cast<int>(std::min<sim::BitTime>(
      static_cast<sim::BitTime>(cnt_sof_) + count, kSofCap));
  now_ = now + count - 1;
}

void CannonAttacker::on_bus_bit(BitLevel bus) {
  if (!in_frame_) {
    if (sim::is_recessive(bus)) {
      ++cnt_sof_;
      return;
    }
    if (cnt_sof_ < 11) {
      cnt_sof_ = 0;
      return;
    }
    cnt_sof_ = 0;
    in_frame_ = true;
    pos_ = 0;
    destuff_.reset();
    (void)destuff_.feed(bus);
    observed_id_ = 0;
    id_matched_ = true;
    dlc_ = -1;
    dlc_acc_ = 0;
    return;
  }

  if (firing_) {
    if (--fire_bits_left_ <= 0) {
      ++hits_;
      end_frame();  // wait for the error sequence to clear
    }
    return;
  }

  switch (destuff_.feed(bus)) {
    case can::Destuffer::Result::StuffError:
      end_frame();
      return;
    case can::Destuffer::Result::StuffBit:
      return;
    case can::Destuffer::Result::DataBit:
      break;
  }
  ++pos_;

  if (pos_ >= can::kPosIdFirst && pos_ <= can::kPosIdLast) {
    observed_id_ = (observed_id_ << 1) |
                   static_cast<std::uint32_t>(sim::to_bit(bus));
    if (pos_ == can::kPosIdLast && observed_id_ != cfg_.victim_id) {
      id_matched_ = false;
      end_frame();  // not our victim; resync at the next idle period
    }
    return;
  }
  if (pos_ >= can::kPosDlcFirst && pos_ <= can::kPosDlcLast) {
    dlc_acc_ = (dlc_acc_ << 1) | static_cast<std::uint32_t>(sim::to_bit(bus));
    if (pos_ == can::kPosDlcLast) {
      dlc_ = dlc_acc_ > 8 ? 8 : static_cast<int>(dlc_acc_);
    }
  }
  if (!id_matched_ || (cfg_.max_hits != 0 && hits_ >= cfg_.max_hits)) return;

  int target = cfg_.inject_pos;
  if (target < 0) {
    if (dlc_ < 0) return;  // CRC delimiter position needs the DLC
    target = can::stuffed_region_length(dlc_, false, false);  // CRC delim
  }
  if (pos_ == target - 1) {
    // Fire on the next bit(s).
    firing_ = true;
    fire_bits_left_ = cfg_.inject_bits;
  }
}

}  // namespace mcan::attack
