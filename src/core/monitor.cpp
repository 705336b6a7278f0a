#include "core/monitor.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "can/bitstream.hpp"
#include "can/node.hpp"
#include "obs/metrics.hpp"

namespace mcan::core {

void BitMonitor::export_metrics(obs::Registry& reg,
                                std::string_view prefix) const {
  const std::string p{prefix};
  const MonitorStats& stats = st_.stats;
  reg.counter(p + ".frames_observed") += stats.frames_observed;
  reg.counter(p + ".attacks_detected") += stats.attacks_detected;
  reg.counter(p + ".counterattacks") += stats.counterattacks;
  reg.counter(p + ".suppressed_self") += stats.suppressed_self;
  reg.counter(p + ".idle_bits") += stats.idle_bits;
  reg.counter(p + ".fsm_bits") += stats.fsm_bits;
  reg.counter(p + ".track_bits") += stats.track_bits;
}

using sim::BitLevel;
using sim::BitTime;
using sim::EventKind;

namespace {

/// Recessive bits that qualify the next dominant edge as a SOF.  cnt_sof
/// only ever feeds a >= kSofIdle comparison, so it saturates here.
constexpr int kSofIdle = 11;

void start_frame(MonitorState& s) {
  // Hard sync: this falling edge is a SOF.
  s.cnt_sof = 0;
  s.in_frame = true;
  s.pos = 0;
  s.destuff.reset();
  (void)s.destuff.feed(BitLevel::Dominant);  // SOF, a dominant data bit
  s.runner.reset();
  if (s.ext_runner) s.ext_runner->reset();
  s.ext_mode = false;
  s.flagged = false;
  s.observed_id = 0;
  ++s.stats.frames_observed;
}

void end_frame(MonitorState& s) {
  s.in_frame = false;
  s.attacking = false;
  s.flagged = false;
  s.ext_mode = false;
  s.cnt_sof = 0;
}

/// `n` recessive SOF-watching bits.
void watch_idle(MonitorState& s, BitTime n) {
  s.stats.idle_bits += n;
  s.cnt_sof = static_cast<int>(
      std::min<BitTime>(static_cast<BitTime>(s.cnt_sof) + n, kSofIdle));
}

/// One SOF-watching bit.
void watch_sof(MonitorState& s, BitLevel value) {
  ++s.stats.idle_bits;
  if (sim::is_recessive(value)) {
    if (s.cnt_sof < kSofIdle) ++s.cnt_sof;
    return;
  }
  if (s.cnt_sof < kSofIdle) {
    // Dominant without a preceding idle period: we are mid-frame or
    // mid-error-sequence; keep waiting for the bus to go idle.
    s.cnt_sof = 0;
    return;
  }
  start_frame(s);
}

/// `n` (1..64) SOF-watching bits of `w` in closed form: the SOF is the
/// first dominant bit preceded by kSofIdle recessive ones, the carried
/// cnt_sof counting toward the run before the first dominant bit.  Stops
/// right after the SOF; returns the number of bits consumed.
BitTime watch_sof_word(MonitorState& s, std::uint64_t w, BitTime n) {
  const std::uint64_t live = n < 64 ? (std::uint64_t{1} << n) - 1 : ~0ull;
  const std::uint64_t dom = ~w & live;
  if (dom == 0) {
    watch_idle(s, n);
    return n;
  }
  const int lead = std::countr_zero(dom);
  BitTime sof = n;
  if (s.cnt_sof + lead >= kSofIdle) {
    sof = static_cast<BitTime>(lead);
  } else {
    // Past the first dominant bit the run must lie inside the word: bit j
    // of run11 is set when bits j-10..j are all recessive (zeros shifted in
    // from below read as dominant, so no run leaks in from outside).
    const std::uint64_t r2 = w & (w << 1);
    const std::uint64_t r4 = r2 & (r2 << 2);
    const std::uint64_t r8 = r4 & (r4 << 4);
    const std::uint64_t run11 = r8 & (r2 << 8) & (w << 10);
    if (const std::uint64_t sofs = dom & (run11 << 1); sofs != 0) {
      sof = static_cast<BitTime>(std::countr_zero(sofs));
    }
  }
  if (sof == n) {
    s.stats.idle_bits += n;
    const int trailing = std::countl_zero(dom << (64 - n));
    s.cnt_sof = std::min(trailing, kSofIdle);
    return n;
  }
  s.stats.idle_bits += sof + 1;
  start_frame(s);
  return sof + 1;
}

}  // namespace

BitMonitor::BitMonitor(const DetectionFsm& fsm, mcu::PioController& pio,
                       MonitorConfig cfg)
    : fsm_(&fsm), pio_(&pio), cfg_(cfg), st_(fsm) {
  pio_->enable_rx_tap();
}

void BitMonitor::set_extended_fsm(const DetectionFsm* ext_fsm) {
  ext_fsm_ = ext_fsm;
  if (ext_fsm_ != nullptr) {
    st_.ext_runner.emplace(*ext_fsm_);
  } else {
    st_.ext_runner.reset();
  }
}

int BitMonitor::arm_pos(const MonitorState& s) const noexcept {
  // Algorithm 1 arms at the RTR bit (pos 12).  When extended frames are
  // guarded, a standard-FSM flag must wait one more bit for the IDE sample
  // to confirm the format (otherwise the counterattack would hit the IDE
  // bit of what turns out to be an extended frame); extended frames arm at
  // their RTR bit (pos 32).
  return s.ext_mode ? can::kPosRtrExt
                    : (ext_fsm_ != nullptr ? can::kPosIde
                                           : cfg_.attack_arm_pos);
}

void BitMonitor::on_bit(BitTime now, BitLevel value) {
  (void)advance<true>(st_, value, now);
}

template <bool kReact>
bool BitMonitor::advance(MonitorState& s, BitLevel value, BitTime now) const {
  if (!s.in_frame) {
    watch_sof(s, value);
    return true;
  }

  // --- counterattack window: count raw bits, stuffing is moot -------------
  if (s.attacking) {
    if (!kReact && s.attack_bits_left <= 1) return false;  // release bit
    ++s.stats.track_bits;
    if (--s.attack_bits_left <= 0) {
      pio_->disable_tx_mux();
      if (log_ != nullptr) {
        log_->push({now, node_name_, EventKind::CounterattackEnd,
                    s.observed_id, s.pos, 0, {}});
      }
      // Algorithm 1 lines 16-19: done with this frame; wait for idle.
      end_frame(s);
    }
    return true;
  }

  // --- normal in-frame processing ------------------------------------------
  can::Destuffer destuff = s.destuff;
  const auto kind = destuff.feed(value);
  if (!kReact && kind == can::Destuffer::Result::DataBit && s.flagged &&
      s.pos + 1 == arm_pos(s)) {
    // The verdict bit.  (Refusing it is safe even where it turns out not to
    // react, as an IDE switch to the extended format: on_bit() steps it.)
    return false;
  }
  s.destuff = destuff;
  switch (kind) {
    case can::Destuffer::Result::StuffError:
      // Someone's error frame is in progress (possibly triggered by another
      // defender).  Abort and resynchronize at the next idle period.
      end_frame(s);
      return true;
    case can::Destuffer::Result::StuffBit:
      ++s.stats.track_bits;
      return true;
    case can::Destuffer::Result::DataBit:
      break;
  }

  const int pos = ++s.pos;  // unstuffed position of this bit (SOF was 0)
  const int bit = sim::to_bit(value);

  if (pos >= can::kPosIdFirst && pos <= can::kPosIdLast) {
    s.observed_id = (s.observed_id << 1) | static_cast<std::uint32_t>(bit);
    if (s.ext_runner) (void)s.ext_runner->step(bit);
    if (!s.runner.decided()) {
      ++s.stats.fsm_bits;
      if (auto d = s.runner.step(bit); d && d->malicious) {
        // Flag only: whether the frame is our own transmission can only be
        // judged once arbitration is over (we might still lose it to the
        // attacker), so the suppression check happens at the arm position.
        s.flagged = true;
      }
    } else {
      ++s.stats.track_bits;
    }
    return true;
  }

  if (pos == can::kPosIde && sim::is_recessive(value)) {
    // Extended frame: the standard-FSM verdict over the base bits does not
    // apply (a legitimate 11-bit ID used as the *base* of a 29-bit frame is
    // still a different message).  Switch to the 29-bit FSM if configured;
    // otherwise stay passive for this frame.
    s.ext_mode = true;
    s.flagged = false;
    ++s.stats.track_bits;
    if (!s.ext_runner) end_frame(s);
    return true;
  }

  if (s.ext_mode && pos >= can::kPosExtIdFirst && pos <= can::kPosExtIdLast) {
    s.observed_id = (s.observed_id << 1) | static_cast<std::uint32_t>(bit);
    if (s.ext_runner && !s.ext_runner->decided()) {
      ++s.stats.fsm_bits;
      if (auto d = s.ext_runner->step(bit); d && d->malicious) {
        s.flagged = true;
      }
    } else {
      ++s.stats.track_bits;
    }
    // A 29-bit verdict may also arrive before the extension bits do.
    if (s.ext_runner && s.ext_runner->decided() &&
        s.ext_runner->decision().malicious) {
      s.flagged = true;
    }
    return true;
  }

  ++s.stats.track_bits;
  if (pos == arm_pos(s) && s.flagged) {
    // Only the reacting instantiation gets here: absorb() refused the bit.
    s.flagged = false;  // Algorithm 1 line 21: start_counterattack <- false
    if (self_transmitting_ && self_transmitting_()) {
      // Arbitration is over and we are the transmitter: the frame on the
      // bus is our own legitimate message.
      ++s.stats.suppressed_self;
    } else {
      const auto decided_at = s.ext_mode
                                  ? s.ext_runner->decision().bit_position
                                  : s.runner.decision().bit_position;
      ++s.stats.attacks_detected;
      s.stats.detection_bit_sum += static_cast<std::uint64_t>(decided_at);
      if (log_ != nullptr) {
        log_->push({now, node_name_, EventKind::AttackDetected,
                    s.observed_id, decided_at, 0, {}});
      }
      if (cfg_.prevention_enabled) {
        // RTR sampled; pull CAN_TX low from the next bit on.
        s.attacking = true;
        s.attack_bits_left = cfg_.attack_bits;
        ++s.stats.counterattacks;
        pio_->enable_tx_mux();
        pio_->write_tx(BitLevel::Dominant);
        if (log_ != nullptr) {
          log_->push({now, node_name_, EventKind::CounterattackStart,
                      s.observed_id, decided_at, 0, {}});
        }
        return true;
      }
    }
  }
  if (!s.attacking && pos >= (s.ext_mode ? 39 : 19)) {
    // Algorithm 1 disables tracking at frame position 20 (1-based) and
    // returns to SOF watching; stuffing guarantees no 11-recessive run
    // inside the rest of the frame, so the next SOF is found reliably.
    // Extended frames are tracked through their DLC field (position 39).
    end_frame(s);
  }
  return true;
}

BitTime BitMonitor::absorb_word(MonitorState& s, std::uint64_t word,
                                BitTime count) const {
  BitTime i = 0;
  while (i < count) {
    if (!s.in_frame) {
      i += watch_sof_word(s, word >> i, count - i);
      continue;
    }
    const auto level = ((word >> i) & 1u) != 0 ? BitLevel::Recessive
                                               : BitLevel::Dominant;
    if (!absorb(s, level)) break;
    ++i;
  }
  return i;
}

BitTime BitMonitor::prefix_bound() const noexcept {
  if (st_.attacking) {
    return static_cast<BitTime>(std::max(st_.attack_bits_left - 1, 0));
  }
  return st_.in_frame ? 64 : can::kNever;
}

BitTime BitMonitor::transparent_bits(BitTime now, std::uint64_t word,
                                     BitTime count) {
  // An idle stretch while SOF-watching is pure counting (watch_idle), so
  // on_bus_word() applies it directly, whatever its length.
  if (!st_.in_frame && word == ~0ull) return count;
  assert(count <= 64);
  if (scan_ == nullptr) {
    scan_ = std::make_unique<MonitorState>(st_);
  } else {
    *scan_ = st_;
  }
  scan_at_ = now;
  scan_word_ = word;
  scan_len_ = absorb_word(*scan_, word, count);
  return scan_len_;
}

void BitMonitor::on_bus_word(BitTime now, std::uint64_t word, BitTime count) {
  if (!st_.in_frame && word == ~0ull) {
    watch_idle(st_, count);
    return;
  }
  if (scan_ != nullptr && now == scan_at_ && word == scan_word_ &&
      count == scan_len_) {
    st_ = *scan_;
    return;
  }
  [[maybe_unused]] const BitTime absorbed = absorb_word(st_, word, count);
  assert(absorbed == count && "on_bus_word over a reaction bit");
}

}  // namespace mcan::core
