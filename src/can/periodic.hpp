// Application-layer periodic transmission, the standard traffic pattern on
// automotive CAN: each message is broadcast on a fixed period (paper Sec. V-E
// computes bus load from exactly these periods).
#pragma once

#include <cstdint>
#include <functional>

#include "can/controller.hpp"
#include "can/frame.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace mcan::can {

/// Payload policies for periodic messages.
enum class PayloadMode : std::uint8_t {
  Fixed,    // same bytes every cycle
  Counter,  // last byte increments every cycle (alive counters are common)
  Random,   // fresh random bytes every cycle (maximizes stuff-bit variance)
};

/// Creates an application hook that enqueues `frame` every `period_bits`
/// bit times, starting at `phase_bits`.  Attach with
/// `controller.add_app(PeriodicSender{...})`.
class PeriodicSender {
 public:
  PeriodicSender(CanFrame frame, double period_bits, double phase_bits = 0.0,
                 PayloadMode mode = PayloadMode::Fixed,
                 sim::Rng rng = sim::Rng{1});

  void operator()(sim::BitTime now, BitController& ctrl);

  /// Scheduling companion for the batch-window engine: the first integer
  /// bit time at which operator() would fire (kAlways if due now).
  [[nodiscard]] sim::BitTime next_activity(sim::BitTime now) const;

  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

 private:
  CanFrame frame_;
  double period_bits_;
  double next_due_;
  PayloadMode mode_;
  sim::Rng rng_;
  std::uint64_t cycles_{0};
};

/// Convenience: build and attach a periodic sender in one call.
void attach_periodic(BitController& ctrl, const CanFrame& frame,
                     double period_bits, double phase_bits = 0.0,
                     PayloadMode mode = PayloadMode::Fixed,
                     sim::Rng rng = sim::Rng{1});

}  // namespace mcan::can
