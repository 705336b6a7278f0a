#include "can/controller.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#include "can/crc15.hpp"
#include "obs/metrics.hpp"

namespace mcan::can {

using sim::BitLevel;
using sim::BitTime;
using sim::EventKind;

BitController::BitController(std::string name)
    : BitController(std::move(name), Config{}) {}

BitController::BitController(std::string name, Config cfg)
    : name_(std::move(name)), cfg_(cfg) {}

void BitController::attach_to(WiredAndBus& bus) {
  bus.attach(*this);
  log_ = &bus.log();
  bus_ = &bus;
}

bool BitController::enqueue(const CanFrame& frame) {
  assert(frame.valid());
  if (txq_.size() >= cfg_.tx_queue_capacity) {
    ++stats_.dropped_frames;
    return false;
  }
  if (txq_.empty()) txbits_ready_ = false;  // new head frame
  txq_.push_back(frame);
  return true;
}

void BitController::add_app(
    std::function<void(sim::BitTime, BitController&)> app) {
  apps_.push_back({std::move(app), nullptr});
  apps_due_ = 0;
}

void BitController::add_app(
    std::function<void(sim::BitTime, BitController&)> app,
    std::function<sim::BitTime(sim::BitTime)> next) {
  apps_.push_back({std::move(app), std::move(next)});
  apps_due_ = 0;
}

void BitController::set_rx_callback(
    std::function<void(const CanFrame&, sim::BitTime)> cb) {
  rx_cb_ = std::move(cb);
}

void BitController::set_tx_callback(
    std::function<void(const CanFrame&, sim::BitTime)> cb) {
  tx_cb_ = std::move(cb);
}

std::optional<CanId> BitController::active_tx_id() const noexcept {
  if (phase_ != Phase::Transmit || txq_.empty()) return std::nullopt;
  return txq_.front().id;
}

void BitController::tick(BitTime now) {
  now_ = now;
  // A hook is a no-op before its cached due bit (see add_app), so the
  // std::function dispatch itself is skipped; a parked one waits for
  // wake_parked_apps().  The cache is only armed when the bus runs a
  // contract-based engine: the naive per-bit tier stays a contract-free
  // oracle that dispatches every hook every bit, so the differential
  // harness would catch a companion whose answer lies.
  const bool trust = bus_ != nullptr && bus_->fast_path();
  if (trust && now < apps_due_) return;
  BitTime min_due = kNever;
  for (auto& app : apps_) {
    if (!trust || now >= app.due) {
      app.fn(now, *this);
      if (trust && app.next) {
        const BitTime t = app.next(now);
        app.due = t > now ? t : 0;
        if (t == kNever) ++parked_;
      }
    }
    min_due = std::min(min_due, app.due);
  }
  apps_due_ = min_due;
}

void BitController::wake_parked_apps() {
  if (parked_ == 0) return;
  for (auto& app : apps_) {
    if (app.due == kNever) app.due = 0;
  }
  parked_ = 0;
  apps_due_ = 0;
}

// ---------------------------------------------------------------------------
// Batch-window contract
//
// The batchable phases are the long constant stretches of the protocol:
//   Idle/Integrating  — driving recessive, reacting only to a SOF edge;
//   BusOff            — driving recessive, counting recovery sequences;
//   Transmit          — shifting out precomputed wire bits (stuff bits
//                       included) up to the ACK slot;
//   Receive           — driving recessive through the stuffed region, with
//                       the only possible reaction being a stuff error.
// The recessive-only phases (Idle, Integrating, BusOff) promise horizons of
// any length, so an idle bus is skipped as one all-recessive window; the
// frame phases promise at most 64 bits.  Everything else (error/overload
// flags, delimiters, intermission, suspend) is a handful of bits with
// per-bit decisions — those opt out and stay on the stepped path, exactly
// the "contested regions" fallback of the design.

BitController::DrivePattern BitController::drive_pattern(BitTime now) {
  // Application hooks cap every promise at their next due bit: a hook
  // without a scheduling companion, or one due now, opts out — the stepped
  // path runs it inside tick().  tick() keeps apps_due_ = min cached due.
  if (apps_due_ <= now) return {};
  const BitTime app_cap = apps_due_ - now;
  constexpr std::uint64_t kAllRecessive = ~0ull;

  switch (phase_) {
    case Phase::Idle:
    case Phase::Integrating:
      // A queued frame starts transmitting as soon as the phase allows —
      // give no promise rather than model exactly when.
      if (!txq_.empty()) return {};
      return {app_cap, kAllRecessive};

    case Phase::BusOff: {
      if (!cfg_.auto_recover) return {app_cap, kAllRecessive};
      // Keep the recovery-completing bit on the stepped path so its events
      // carry exact timestamps.  Dominant bus bits only delay recovery, so
      // the cap is conservative either way.
      const BitTime remaining =
          static_cast<BitTime>(128 - busoff_idle_seqs_) * 11 -
          static_cast<BitTime>(busoff_recessive_run_);
      if (remaining <= 1) return {};
      return {std::min(app_cap, remaining - 1), kAllRecessive};
    }

    case Phase::Transmit: {
      // Promise the precomputed wire bits (stuff bits included) up to, but
      // not including, the ACK slot — the one mid-frame bit where the
      // transmitter *expects* the bus to differ from its own drive.  The
      // image's levels are packed in txlevels_, so the promise is two
      // shifts instead of a per-bit walk.
      const std::size_t limit =
          txpos_ <= tx_ack_pos_ ? tx_ack_pos_ : txbits_.size();
      const BitTime n = std::min(
          {app_cap, BitTime{64}, static_cast<BitTime>(limit - txpos_)});
      if (n == 0) return {};
      const std::size_t w = txpos_ / 64;
      const unsigned off = static_cast<unsigned>(txpos_ % 64);
      std::uint64_t bits = txlevels_[w] >> off;
      if (off != 0 && w + 1 < txlevels_.size()) {
        bits |= txlevels_[w + 1] << (64 - off);
      }
      if (n < 64) bits |= ~0ull << n;  // pad: unknown tail stays recessive
      batch_pattern_ = bits;
      batch_pattern_at_ = now;
      batch_pattern_len_ = n;
      return {n, bits};
    }

    case Phase::Receive: {
      // Stay strictly inside the stuffed region: the trailer (CRC delimiter,
      // ACK, EOF) makes per-bit decisions.  The horizon is counted in
      // *unstuffed* remaining bits, a lower bound on the wire bits left —
      // stuff bits only stretch the region, never shrink it.  Until the DLC
      // is parsed the shortest possible region bounds the promise.
      const int region = rx_.dlc >= 0
                             ? rx_.stuffed_len()
                             : stuffed_region_length(0, /*rtr=*/true, rx_.ext);
      const int remaining = region - static_cast<int>(rx_.bits.size());
      if (remaining <= 0) return {};
      return {std::min({app_cap, BitTime{64},
                        static_cast<BitTime>(remaining)}),
              kAllRecessive};
    }

    case Phase::ActiveFlag:
    case Phase::PassiveFlag:
    case Phase::OverloadFlag:
    case Phase::ErrorDelim:
    case Phase::Intermission:
    case Phase::Suspend:
      return {};
  }
  return {};
}

BitTime BitController::transparent_bits(BitTime now, std::uint64_t word,
                                        BitTime count) {
  switch (phase_) {
    case Phase::Idle:
    case Phase::Integrating:
      // The first dominant bit is (or may become, via Integrating -> Idle)
      // a SOF reaction; everything before it is pure recessive bookkeeping.
      return recessive_prefix(word, count);

    case Phase::BusOff:
      // Recovery counting is state-only: no drive change, no events, and
      // on_bus_word() replays it exactly — the whole window is transparent.
      return count;

    case Phase::Transmit: {
      // A bus level differing from the driven one is an arbitration loss,
      // bit error or stuff error — all reactions at that very bit.  The
      // drive_pattern() call that opened this probe cached the promised
      // word, so the scan is one XOR; the walk remains as a fallback for
      // direct callers that skipped the pattern exchange.
      if (now == batch_pattern_at_ && count <= batch_pattern_len_) {
        const std::uint64_t mask =
            count < 64 ? (std::uint64_t{1} << count) - 1 : ~0ull;
        const std::uint64_t diff = (word ^ batch_pattern_) & mask;
        return diff == 0 ? count
                         : static_cast<BitTime>(std::countr_zero(diff));
      }
      for (BitTime i = 0; i < count; ++i) {
        const TxBit& b = txbits_[static_cast<std::size_t>(txpos_ + i)];
        if (static_cast<int>((word >> i) & 1u) != sim::to_bit(b.level)) {
          return i;
        }
      }
      return count;
    }

    case Phase::Receive: {
      // The only in-region reaction is a stuff error: six consecutive
      // equal wire levels.  A six-run fully inside the word is found in
      // O(1) by ANDing five shifted copies (bit j set <=> bits j..j+5 all
      // equal, completing at j+5); a run straddling the window boundary is
      // caught by matching the word's leading bits against the live
      // destuffer run.  Bits past `count` are recessive padding, so a
      // false ones-run can only complete at or past `count`, where the
      // clamp discards it; zero-runs cannot cross the padding at all.
      const auto six = [](std::uint64_t v) {
        return v & (v >> 1) & (v >> 2) & (v >> 3) & (v >> 4) & (v >> 5);
      };
      BitTime stop = count;
      if (const std::uint64_t ones = six(word); ones != 0) {
        stop = std::min(stop,
                        static_cast<BitTime>(std::countr_zero(ones)) + 5);
      }
      if (const std::uint64_t zeros = six(~word); zeros != 0) {
        stop = std::min(stop,
                        static_cast<BitTime>(std::countr_zero(zeros)) + 5);
      }
      if (rx_.destuff.primed()) {
        const int run = rx_.destuff.run_length();
        const int lead = sim::is_recessive(rx_.destuff.last())
                             ? std::countr_one(word)
                             : std::countr_zero(word);
        if (lead >= 6 - run) {
          stop = std::min(stop, static_cast<BitTime>(5 - run));
        }
      }
      return std::min(stop, count);
    }

    case Phase::ActiveFlag:
    case Phase::PassiveFlag:
    case Phase::OverloadFlag:
    case Phase::ErrorDelim:
    case Phase::Intermission:
    case Phase::Suspend:
      return 0;
  }
  return 0;
}

void BitController::on_bus_word(BitTime now, std::uint64_t word,
                                BitTime count) {
  switch (phase_) {
    case Phase::Idle:
      break;  // an all-recessive window on an idle bus changes nothing

    case Phase::Integrating: {
      // Transparency stopped the window before any dominant bit: `count`
      // recessive bits toward the 11 that complete integration.
      const BitTime need = static_cast<BitTime>(11 - integrate_count_);
      if (count >= need) {
        integrate_count_ = 0;
        phase_ = Phase::Idle;
      } else {
        integrate_count_ += static_cast<int>(count);
      }
      break;
    }

    case Phase::BusOff:
      if (!cfg_.auto_recover) break;
      if (word == ~0ull) {
        // Closed form for an all-recessive window (of any length).
        const BitTime total =
            static_cast<BitTime>(busoff_recessive_run_) + count;
        busoff_idle_seqs_ += static_cast<int>(total / 11);
        busoff_recessive_run_ = static_cast<int>(total % 11);
      } else {
        for (BitTime i = 0; i < count; ++i) {
          if (((word >> i) & 1u) != 0) {
            if (++busoff_recessive_run_ == 11) {
              busoff_recessive_run_ = 0;
              ++busoff_idle_seqs_;
            }
          } else {
            busoff_recessive_run_ = 0;
          }
        }
      }
      // drive_pattern() capped the window below the recovery bit.
      assert(busoff_idle_seqs_ < 128);
      break;

    case Phase::Transmit:
      // Every bit matched what we drove (transparency), so `count` rounds of
      // handle_transmit_bit() reduce to advancing the shift register.  The
      // window stops before the ACK slot, so the frame cannot complete here.
      txpos_ += static_cast<std::size_t>(count);
      assert(txpos_ < txbits_.size());
      drive_ = txbits_[txpos_].level;
      break;

    case Phase::Receive: {
      // Replay the receive engine over the exact levels.  No reaction can
      // fire: the window is inside the stuffed region (no trailer logic) and
      // transparency excluded any six-bit run (no stuff error).  Past the
      // DLC there are no field boundaries left to parse either, so the
      // replay collapses to word-level destuffing: a wire bit is a stuff
      // bit exactly when it starts a new run and the five preceding wire
      // bits were equal (transparency caps every run at five, so "at least
      // five" is "exactly five").  The run-start mask finds all of them at
      // once, a squeeze pass drops them, and the survivors bulk-expand into
      // the unstuffed-bit vector — no per-bit loop, one destuffer re-sync
      // per window.  Header windows (DLC not yet parsed) stay on feed_rx().
      const int pos0 = static_cast<int>(rx_.bits.size());
      if (rx_.dlc >= 0 && pos0 > (rx_.ext ? kPosDlcLastExt : kPosDlcLast)) {
        const int run = rx_.destuff.run_length();
        const int lastb = sim::to_bit(rx_.destuff.last());
        const std::uint64_t live =
            count < 64 ? (std::uint64_t{1} << count) - 1 : ~0ull;

        // d[j] = 1 iff wire bit j starts a new run (differs from bit j-1,
        // the carried level standing in at j = 0).
        const std::uint64_t d =
            word ^ ((word << 1) | static_cast<std::uint64_t>(lastb));
        const std::uint64_t nd = ~d;
        // (c4 << 4)[j] = 1 iff no run starts at j-4..j-1, i.e. wire bits
        // j-5..j-1 are equal; for j = 4 the nd[0] term additionally anchors
        // the window to the carried run.  Positions 0..3 can only be stuff
        // bits through the carried run length, handled separately below.
        const std::uint64_t c4 = nd & (nd >> 1) & (nd >> 2) & (nd >> 3);
        std::uint64_t stuff = d & (c4 << 4) & ~std::uint64_t{0xF} & live;
        const BitTime lead = std::min<BitTime>(
            static_cast<BitTime>(lastb != 0 ? std::countr_one(word)
                                            : std::countr_zero(word)),
            count);
        if (lead < 4 && lead < count && run + static_cast<int>(lead) == 5) {
          stuff |= std::uint64_t{1} << static_cast<unsigned>(lead);
        }

        // Squeeze the stuff bits out, lowest first; the mask shifts down
        // with the data so later positions stay aligned.
        const int ndata = static_cast<int>(count) - std::popcount(stuff);
        std::uint64_t data = word;
        while (stuff != 0) {
          const int j = std::countr_zero(stuff);
          const std::uint64_t low = (std::uint64_t{1} << j) - 1;
          data = (data & low) | ((data >> 1) & ~low);
          stuff = (stuff >> 1) & ~low;
        }

        // Expand eight data bits per table row into 0/1 bytes.  Each
        // memcpy writes a full row; the transient over-resize absorbs the
        // tail bytes, then the final resize truncates to the real length.
        static constexpr auto kExpand = [] {
          std::array<std::array<std::uint8_t, 8>, 256> t{};
          for (std::size_t x = 0; x < 256; ++x) {
            for (std::size_t j = 0; j < 8; ++j) {
              t[x][j] = static_cast<std::uint8_t>((x >> j) & 1);
            }
          }
          return t;
        }();
        auto& v = rx_.bits;
        v.resize(static_cast<std::size_t>(pos0 + ndata) + 8);
        std::uint8_t* out = v.data() + pos0;
        for (int i = 0; i < ndata; i += 8) {
          std::memcpy(out + i, kExpand[(data >> i) & 0xFF].data(), 8);
        }
        v.resize(static_cast<std::size_t>(pos0 + ndata));

        // Re-sync the destuffer with the window's trailing wire run
        // (extended by the carried run when the whole window is one run).
        const int lastlevel = static_cast<int>((word >> (count - 1)) & 1u);
        const std::uint64_t tv = lastlevel != 0 ? word : ~word;
        int trail = std::countl_one(tv << (64 - count));
        if (trail == static_cast<int>(count) && lastlevel == lastb) {
          trail += run;
        }
        rx_.destuff.prime(
            lastlevel != 0 ? BitLevel::Recessive : BitLevel::Dominant, trail);
        assert(static_cast<int>(v.size()) <= rx_.stuffed_len());
        if (static_cast<int>(v.size()) == rx_.stuffed_len()) {
          rx_.check_crc();
        }
      } else {
        for (BitTime i = 0; i < count; ++i) {
          feed_rx(((word >> i) & 1u) != 0 ? BitLevel::Recessive
                                          : BitLevel::Dominant);
        }
      }
      assert(phase_ == Phase::Receive);
      break;
    }

    case Phase::ActiveFlag:
    case Phase::PassiveFlag:
    case Phase::OverloadFlag:
    case Phase::ErrorDelim:
    case Phase::Intermission:
    case Phase::Suspend:
      assert(false && "on_bus_word in a non-batchable phase");
      break;
  }
  // Same clock convention as per-bit stepping: the last tick() of the
  // window would have been at its final bit.
  now_ = now + count - 1;
}

void BitController::log_event(EventKind kind, std::uint32_t id, std::int64_t a,
                              std::int64_t b, std::string detail) {
  if (log_ == nullptr) return;
  log_->push({now_, name_, kind, id, a, b, std::move(detail)});
}

// ---------------------------------------------------------------------------
// RxEngine

void BitController::RxEngine::reset() {
  bits.clear();
  destuff.reset();
  dlc = -1;
  slen = kUnknownLen;
  rtr = false;
  ext = false;
  crc_ok = false;
}

void BitController::RxEngine::check_crc() {
  // Full stuffed region received: verify the CRC.
  const int data_end = stuffed_len() - kCrcBits;
  const std::uint16_t computed =
      crc15({bits.data(), static_cast<std::size_t>(data_end)});
  std::uint16_t received = 0;
  for (int i = data_end; i < stuffed_len(); ++i) {
    received = static_cast<std::uint16_t>(
        (received << 1) | bits[static_cast<std::size_t>(i)]);
  }
  crc_ok = computed == received;
}

CanFrame BitController::RxEngine::to_frame() const {
  CanFrame f;
  for (int i = kPosIdFirst; i <= kPosIdLast; ++i) {
    f.id = static_cast<CanId>(
        (f.id << 1) | bits[static_cast<std::size_t>(i)]);
  }
  if (ext) {
    f.extended = true;
    for (int i = kPosExtIdFirst; i <= kPosExtIdLast; ++i) {
      f.id = static_cast<CanId>(
          (f.id << 1) | bits[static_cast<std::size_t>(i)]);
    }
  }
  f.rtr = rtr;
  f.dlc = static_cast<std::uint8_t>(dlc);
  const int data_first = ext ? kPosDataFirstExt : kPosDataFirst;
  if (!rtr) {
    for (int byte = 0; byte < dlc; ++byte) {
      std::uint8_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v = static_cast<std::uint8_t>(
            (v << 1) |
            bits[static_cast<std::size_t>(data_first + 8 * byte + i)]);
      }
      f.data[static_cast<std::size_t>(byte)] = v;
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// Main sampling entry point

void BitController::on_bus_bit(BitLevel bus) {
  switch (phase_) {
    case Phase::Integrating:
      drive_ = BitLevel::Recessive;
      if (sim::is_recessive(bus)) {
        if (++integrate_count_ >= 11) {
          integrate_count_ = 0;
          phase_ = Phase::Idle;
        }
      } else {
        integrate_count_ = 0;
      }
      break;

    case Phase::BusOff:
      drive_ = BitLevel::Recessive;
      if (!cfg_.auto_recover) break;
      if (sim::is_recessive(bus)) {
        if (++busoff_recessive_run_ == 11) {
          busoff_recessive_run_ = 0;
          if (++busoff_idle_seqs_ >= 128) {
            busoff_idle_seqs_ = 0;
            fault_.reset();
            ++stats_.recoveries;
            log_event(EventKind::BusOffRecovered);
            log_event(EventKind::ErrorStateChange, 0,
                      static_cast<std::int64_t>(ErrorState::ErrorActive));
            phase_ = Phase::Integrating;
            integrate_count_ = 0;
            wake_parked_apps();
          }
        }
      } else {
        busoff_recessive_run_ = 0;
      }
      break;

    case Phase::Idle:
      drive_ = BitLevel::Recessive;
      if (sim::is_dominant(bus)) {
        start_receive_with_sof();
        feed_rx(bus);
      } else if (!txq_.empty()) {
        start_transmit_next_bit();
      }
      break;

    case Phase::Transmit:
      handle_transmit_bit(bus);
      break;

    case Phase::Receive:
      drive_ = BitLevel::Recessive;  // feed_rx overrides for the ACK slot
      feed_rx(bus);
      break;

    case Phase::ActiveFlag:
      // We are driving dominant; the bus is necessarily dominant too.
      if (--flag_bits_left_ <= 0) {
        enter_error_delim();
      } else {
        drive_ = BitLevel::Dominant;
      }
      break;

    case Phase::PassiveFlag: {
      drive_ = BitLevel::Recessive;
      if (sim::is_dominant(bus)) passive_saw_dominant_ = true;
      if (passive_run_ > 0 && bus == passive_run_level_) {
        ++passive_run_;
      } else {
        passive_run_level_ = bus;
        passive_run_ = 1;
      }
      if (passive_run_ >= 6) {
        // Deferred ACK-error rule: an error-passive transmitter that saw no
        // dominant bit while sending its passive flag does not bump TEC.
        if (pending_ack_exception_) {
          if (passive_saw_dominant_) {
            const ErrorState before = fault_.state();
            fault_.on_transmitter_error();
            check_state_transition(before);
            if (fault_.state() == ErrorState::BusOff) {
              enter_bus_off();
              break;
            }
          }
          pending_ack_exception_ = false;
        }
        enter_error_delim();
      }
      break;
    }

    case Phase::ErrorDelim:
      drive_ = BitLevel::Recessive;
      if (!delim_seen_recessive_) {
        if (sim::is_dominant(bus)) {
          ++delim_dominant_run_;
          // First dominant bit right after a receiver's error flag: REC += 8
          // (error flags only; overload flags are exempt per ISO 11898-1).
          if (delim_dominant_run_ == 1 && !was_transmitter_ &&
              !delim_after_overload_) {
            const ErrorState before = fault_.state();
            fault_.on_dominant_after_error_flag_rx();
            check_state_transition(before);
          }
          // Every further run of 8 consecutive dominant bits: +8.
          if (delim_dominant_run_ % 8 == 0) {
            const ErrorState before = fault_.state();
            if (was_transmitter_) {
              fault_.on_dominant_after_error_flag_tx();
            } else {
              fault_.on_dominant_after_error_flag_rx();
            }
            check_state_transition(before);
            if (fault_.state() == ErrorState::BusOff) {
              enter_bus_off();
              break;
            }
          }
        } else {
          delim_seen_recessive_ = true;
          delim_recessive_left_ = 7;
        }
      } else {
        if (sim::is_dominant(bus)) {
          // Dominant inside the error delimiter: form error.
          begin_error(was_transmitter_, ErrorType::Form,
                      /*tec_exception=*/false);
        } else if (--delim_recessive_left_ <= 0) {
          if (!delim_after_overload_) {
            suspend_pending_ =
                was_transmitter_ && fault_.state() == ErrorState::ErrorPassive;
          }
          enter_intermission();
        }
      }
      break;

    case Phase::Intermission:
      drive_ = BitLevel::Recessive;
      if (sim::is_dominant(bus)) {
        if (intermission_left_ >= 2) {
          // Dominant during the first two intermission bits: overload
          // condition (ISO 11898-1).  At most two consecutive overload
          // frames may be generated; afterwards it is a form error.
          if (consecutive_overloads_ < 2) {
            begin_overload();
          } else {
            begin_error(false, ErrorType::Form, false);
          }
        } else {
          // Third intermission bit: interpreted as SOF.
          consecutive_overloads_ = 0;
          start_receive_with_sof();
          feed_rx(bus);
        }
      } else if (--intermission_left_ <= 0) {
        consecutive_overloads_ = 0;
        after_intermission();
      }
      break;

    case Phase::OverloadFlag:
      if (--flag_bits_left_ <= 0) {
        delim_after_overload_ = true;
        enter_error_delim();
      } else {
        drive_ = BitLevel::Dominant;
      }
      break;

    case Phase::Suspend:
      drive_ = BitLevel::Recessive;
      if (sim::is_dominant(bus)) {
        // Another node started during our suspend window; the window is
        // considered served and we join that frame as a receiver.
        start_receive_with_sof();
        feed_rx(bus);
      } else if (--suspend_left_ <= 0) {
        if (!txq_.empty()) {
          start_transmit_next_bit();
        } else {
          phase_ = Phase::Idle;
        }
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// Transmit path

void BitController::start_transmit_next_bit() {
  assert(!txq_.empty());
  // Rebuild the wire image only when the head frame changed: a retry after
  // an arbitration loss or error retransmits the identical frame, so the
  // cached TxBit vector (and its stuff layout) is still exact.
  if (!txbits_ready_) {
    txbits_ = wire_bits(txq_.front());
    txbits_ready_ = true;
    txbits_stuff_ = 0;
    txlevels_.assign((txbits_.size() + 63) / 64, 0);
    tx_ack_pos_ = txbits_.size();
    for (std::size_t i = 0; i < txbits_.size(); ++i) {
      const TxBit& b = txbits_[i];
      if (b.is_stuff) ++txbits_stuff_;
      if (b.field == Field::AckSlot && tx_ack_pos_ == txbits_.size()) {
        tx_ack_pos_ = i;
      }
      txlevels_[i / 64] |=
          static_cast<std::uint64_t>(sim::to_bit(b.level)) << (i % 64);
    }
  }
  stats_.stuff_bits_tx += txbits_stuff_;
  txpos_ = 0;
  phase_ = Phase::Transmit;
  drive_ = BitLevel::Dominant;  // SOF appears on the next bit
  tx_start_ = now_ + 1;
  log_event(EventKind::FrameTxStart, txq_.front().id);
}

void BitController::handle_transmit_bit(BitLevel bus) {
  assert(txpos_ < txbits_.size());
  const TxBit& sent = txbits_[txpos_];

  if (sent.field == Field::AckSlot) {
    if (sim::is_recessive(bus)) {
      // Nobody acknowledged.  Error flag starts at the next bit; an
      // error-passive transmitter only bumps TEC if it later sees a
      // dominant level during its passive flag (rule exception A).
      begin_error(/*as_transmitter=*/true, ErrorType::Ack,
                  /*tec_exception=*/false);
      return;
    }
  } else if (bus != sent.level) {
    if (sim::is_recessive(bus)) {
      // A dominant bit read back recessive: a healthy wired-AND bus cannot
      // do this, but a disturbed one can (bit flips, stuck-recessive
      // windows).  ISO 11898-1 makes it a bit error in every field; the
      // arbitration and stuff-bit exceptions below cover only the other
      // direction (sent recessive, read dominant).
      begin_error(true, ErrorType::Bit, /*tec_exception=*/false);
      return;
    }
    const bool ext = txq_.front().extended;
    if (in_arbitration(sent.unstuffed_pos, ext) && !sent.is_stuff) {
      lose_arbitration(bus);
      return;
    }
    if (sent.is_stuff && sent.unstuffed_pos < (ext ? kPosRtrExt : kPosRtr)) {
      // Recessive stuff bit inside the ID field monitored dominant: stuff
      // error, TEC unchanged (ISO 11898-1 exception B).
      begin_error(true, ErrorType::Stuff, /*tec_exception=*/true);
      return;
    }
    begin_error(true, ErrorType::Bit, /*tec_exception=*/false);
    return;
  }

  ++txpos_;
  if (txpos_ >= txbits_.size()) {
    complete_transmission();
  } else {
    drive_ = txbits_[txpos_].level;
  }
}

void BitController::complete_transmission() {
  const CanFrame frame = txq_.front();
  txq_.pop_front();
  txbits_ready_ = false;
  wake_parked_apps();
  ++stats_.frames_sent;
  fault_.on_tx_success();
  log_event(EventKind::FrameTxSuccess, frame.id);
  if (tx_cb_) tx_cb_(frame, now_);
  suspend_pending_ = fault_.state() == ErrorState::ErrorPassive;
  enter_intermission();
}

void BitController::lose_arbitration(BitLevel current_bus) {
  ++stats_.arbitration_losses;
  log_event(EventKind::ArbitrationLost, txq_.front().id,
            txbits_[txpos_].unstuffed_pos);
  if (!cfg_.auto_retransmit) {
    txq_.pop_front();
    txbits_ready_ = false;
    wake_parked_apps();
  }
  // Continue as a receiver.  All bus bits so far equal what we drove, so the
  // receive engine can be rebuilt from our own transmit history.
  const std::size_t sent_so_far = txpos_;
  phase_ = Phase::Receive;
  drive_ = BitLevel::Recessive;
  rx_.reset();
  for (std::size_t i = 0; i < sent_so_far; ++i) feed_rx(txbits_[i].level);
  feed_rx(current_bus);
}

// ---------------------------------------------------------------------------
// Receive path

void BitController::start_receive_with_sof() {
  phase_ = Phase::Receive;
  drive_ = BitLevel::Recessive;
  rx_.reset();
}

void BitController::feed_rx(BitLevel bus) {
  const int pos = static_cast<int>(rx_.bits.size());
  if (pos < rx_.stuffed_len()) {
    switch (rx_.destuff.feed(bus)) {
      case Destuffer::Result::StuffError:
        begin_error(/*as_transmitter=*/false, ErrorType::Stuff, false);
        return;
      case Destuffer::Result::StuffBit:
        return;  // discard
      case Destuffer::Result::DataBit:
        break;
    }
    rx_.bits.push_back(static_cast<std::uint8_t>(sim::to_bit(bus)));
    if (pos == kPosIde) {
      // The IDE bit decides the frame format: dominant = standard (the bit
      // at position 12 was RTR), recessive = extended (position 12 was SRR
      // and RTR follows the 18 extension bits).
      rx_.ext = rx_.bits.back() != 0;
      if (!rx_.ext) {
        rx_.rtr = rx_.bits[static_cast<std::size_t>(kPosRtr)] != 0;
      }
    } else if (rx_.ext && pos == kPosRtrExt) {
      rx_.rtr = rx_.bits.back() != 0;
    } else if (pos == (rx_.ext ? kPosDlcLastExt : kPosDlcLast) &&
               pos > kPosIde) {
      const int first = rx_.ext ? kPosDlcFirstExt : kPosDlcFirst;
      int dlc = 0;
      for (int i = first; i <= pos; ++i) {
        dlc = (dlc << 1) | rx_.bits[static_cast<std::size_t>(i)];
      }
      rx_.dlc = dlc > 8 ? 8 : dlc;  // DLC codes 9..15 mean 8 bytes
      rx_.slen = stuffed_region_length(rx_.dlc, rx_.rtr, rx_.ext);
    }
    if (static_cast<int>(rx_.bits.size()) == rx_.stuffed_len()) {
      rx_.check_crc();
    }
    return;
  }

  // A run of five equal levels ending at the final CRC bit still forces a
  // stuff bit (ISO 11898-1 §10.5 stuffs the whole CRC sequence), so the
  // first post-CRC wire bit may be one last stuff bit to discard — or a
  // sixth equal level, which is a stuff error, not a CRC-delimiter form
  // error.  Once consumed the destuffer run drops below five, so this
  // branch cannot trigger twice.
  if (pos == rx_.stuffed_len() && rx_.destuff.run_length() == 5) {
    switch (rx_.destuff.feed(bus)) {
      case Destuffer::Result::StuffError:
        begin_error(/*as_transmitter=*/false, ErrorType::Stuff, false);
        return;
      case Destuffer::Result::StuffBit:
        return;  // discard
      case Destuffer::Result::DataBit:
        break;  // unreachable: a fed bit either extends or breaks the run
    }
  }

  // Post-CRC fixed-format trailer (not subject to stuffing).
  rx_.bits.push_back(static_cast<std::uint8_t>(sim::to_bit(bus)));
  const int rel = pos - rx_.stuffed_len();
  switch (rel) {
    case 0:  // CRC delimiter
      if (sim::is_dominant(bus)) {
        begin_error(false, ErrorType::Form, false);
        return;
      }
      if (rx_.crc_ok && cfg_.ack_enabled) {
        drive_ = BitLevel::Dominant;  // assert ACK on the next bit
      }
      return;
    case 1:  // ACK slot — we may be the one driving it dominant
      drive_ = BitLevel::Recessive;
      return;
    case 2:  // ACK delimiter
      if (sim::is_dominant(bus)) {
        begin_error(false, ErrorType::Form, false);
      } else if (!rx_.crc_ok) {
        // CRC error: the error flag starts after the ACK delimiter.
        begin_error(false, ErrorType::Crc, false);
      }
      return;
    case 3:
    case 4:
    case 5:
    case 6:
    case 7:
      if (sim::is_dominant(bus)) begin_error(false, ErrorType::Form, false);
      return;
    case 8:  // 6th EOF bit: the frame is valid for receivers here
      if (sim::is_dominant(bus)) {
        begin_error(false, ErrorType::Form, false);
        return;
      }
      accept_rx_frame();
      return;
    case 9:  // last EOF bit; dominant is an overload condition — the frame
             // stays valid for receivers (it was accepted one bit earlier)
      if (sim::is_dominant(bus)) {
        begin_overload();
        return;
      }
      enter_intermission();
      return;
    default:
      assert(false && "receiver ran past end of frame");
  }
}

void BitController::accept_rx_frame() {
  ++stats_.frames_received;
  fault_.on_rx_success();
  const CanFrame frame = rx_.to_frame();
  log_event(EventKind::FrameRxSuccess, frame.id);
  if (rx_cb_) rx_cb_(frame, now_);
}

// ---------------------------------------------------------------------------
// Error signalling

void BitController::apply_error_counter_change(bool as_transmitter,
                                               ErrorType type,
                                               bool tec_exception) {
  if (as_transmitter) {
    if (type == ErrorType::Ack && fault_.state() == ErrorState::ErrorPassive) {
      // Deferred: only counts if a dominant level shows up during the
      // passive error flag (see Phase::PassiveFlag handling).
      pending_ack_exception_ = true;
      return;
    }
    if (!tec_exception) fault_.on_transmitter_error();
  } else {
    fault_.on_receiver_error();
  }
}

void BitController::begin_error(bool as_transmitter, ErrorType type,
                                bool tec_exception) {
  const ErrorState before = fault_.state();
  if (as_transmitter) {
    ++stats_.tx_errors;
    log_event(EventKind::TxError, txq_.empty() ? 0 : txq_.front().id,
              static_cast<std::int64_t>(type), fault_.tec());
  } else {
    ++stats_.rx_errors;
    log_event(EventKind::RxError, 0, static_cast<std::int64_t>(type),
              fault_.rec());
  }

  apply_error_counter_change(as_transmitter, type, tec_exception);
  was_transmitter_ = as_transmitter;
  delim_after_overload_ = false;
  consecutive_overloads_ = 0;
  check_state_transition(before);

  // One-shot mode: a transmitter that errs gives up on the frame.
  if (as_transmitter && !cfg_.auto_retransmit && !txq_.empty()) {
    txq_.pop_front();
    txbits_ready_ = false;
    wake_parked_apps();
  }

  if (fault_.state() == ErrorState::BusOff) {
    enter_bus_off();
    return;
  }

  passive_saw_dominant_ = false;
  if (before == ErrorState::ErrorActive) {
    phase_ = Phase::ActiveFlag;
    flag_bits_left_ = 6;
    drive_ = BitLevel::Dominant;
  } else {
    phase_ = Phase::PassiveFlag;
    passive_run_ = 0;
    drive_ = BitLevel::Recessive;
  }
}

void BitController::begin_overload() {
  ++stats_.overload_frames;
  ++consecutive_overloads_;
  log_event(EventKind::OverloadFrame);
  was_transmitter_ = false;
  phase_ = Phase::OverloadFlag;
  flag_bits_left_ = 6;
  drive_ = BitLevel::Dominant;
}

void BitController::check_state_transition(ErrorState before) {
  const ErrorState after = fault_.state();
  if (after != before) {
    log_event(EventKind::ErrorStateChange, 0,
              static_cast<std::int64_t>(after), fault_.tec());
  }
}

void BitController::enter_error_delim() {
  phase_ = Phase::ErrorDelim;
  drive_ = BitLevel::Recessive;
  delim_seen_recessive_ = false;
  delim_recessive_left_ = 0;
  delim_dominant_run_ = 0;
  // Note: begin_overload() sets delim_after_overload_ before transferring
  // here; error flags clear it again in begin_error().
}

void BitController::enter_intermission() {
  phase_ = Phase::Intermission;
  drive_ = BitLevel::Recessive;
  intermission_left_ = 3;
}

void BitController::after_intermission() {
  if (suspend_pending_) {
    suspend_pending_ = false;
    phase_ = Phase::Suspend;
    suspend_left_ = 8;
    log_event(EventKind::SuspendStart);
    return;
  }
  if (!txq_.empty()) {
    start_transmit_next_bit();
  } else {
    phase_ = Phase::Idle;
  }
}

void BitController::enter_bus_off() {
  phase_ = Phase::BusOff;
  drive_ = BitLevel::Recessive;
  pending_ack_exception_ = false;
  suspend_pending_ = false;
  busoff_recessive_run_ = 0;
  busoff_idle_seqs_ = 0;
  ++stats_.bus_off_entries;
  log_event(EventKind::BusOff, txq_.empty() ? 0 : txq_.front().id, 0,
            fault_.tec());
  if (cfg_.clear_queue_on_bus_off) {
    txq_.clear();
    txbits_ready_ = false;
  }
  wake_parked_apps();
}

void BitController::export_metrics(obs::Registry& reg,
                                   std::string_view prefix) const {
  const std::string p{prefix};
  reg.counter(p + ".frames_sent") += stats_.frames_sent;
  reg.counter(p + ".frames_received") += stats_.frames_received;
  reg.counter(p + ".tx_errors") += stats_.tx_errors;
  reg.counter(p + ".rx_errors") += stats_.rx_errors;
  reg.counter(p + ".arbitration_losses") += stats_.arbitration_losses;
  reg.counter(p + ".bus_off_entries") += stats_.bus_off_entries;
  reg.counter(p + ".recoveries") += stats_.recoveries;
  reg.counter(p + ".dropped_frames") += stats_.dropped_frames;
  reg.counter(p + ".overload_frames") += stats_.overload_frames;
  reg.counter(p + ".stuff_bits_tx") += stats_.stuff_bits_tx;
  auto& tec = reg.gauge(p + ".tec_final_max");
  tec = std::max(tec, static_cast<std::int64_t>(fault_.tec()));
  auto& rec = reg.gauge(p + ".rec_final_max");
  rec = std::max(rec, static_cast<std::int64_t>(fault_.rec()));
}

}  // namespace mcan::can
