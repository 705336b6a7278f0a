#include "can/periodic.hpp"

#include <cmath>
#include <memory>

namespace mcan::can {

PeriodicSender::PeriodicSender(CanFrame frame, double period_bits,
                               double phase_bits, PayloadMode mode,
                               sim::Rng rng)
    : frame_(frame),
      period_bits_(period_bits),
      next_due_(phase_bits),
      mode_(mode),
      rng_(rng) {}

void PeriodicSender::operator()(sim::BitTime now, BitController& ctrl) {
  if (static_cast<double>(now) < next_due_) return;
  next_due_ += period_bits_;
  ++cycles_;

  switch (mode_) {
    case PayloadMode::Fixed:
      break;
    case PayloadMode::Counter:
      if (frame_.dlc > 0) {
        ++frame_.data[static_cast<std::size_t>(frame_.dlc - 1)];
      }
      break;
    case PayloadMode::Random:
      for (int i = 0; i < frame_.dlc; ++i) {
        frame_.data[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(rng_.uniform(0, 255));
      }
      break;
  }
  ctrl.enqueue(frame_);
}

sim::BitTime PeriodicSender::next_activity(sim::BitTime now) const {
  if (static_cast<double>(now) >= next_due_) return kAlways;
  // operator() fires at the first integer bit with (double)t >= next_due_.
  return static_cast<sim::BitTime>(std::ceil(next_due_));
}

void attach_periodic(BitController& ctrl, const CanFrame& frame,
                     double period_bits, double phase_bits, PayloadMode mode,
                     sim::Rng rng) {
  // Shared between the tick hook and its scheduling companion so the
  // batch-window engine sees the sender's live next_due_.
  auto sender = std::make_shared<PeriodicSender>(frame, period_bits,
                                                 phase_bits, mode, rng);
  // next_due_ only moves inside operator(), so the answer is the sender's
  // own due time (add_app's contract).
  ctrl.add_app(
      [sender](sim::BitTime now, BitController& c) { (*sender)(now, c); },
      [sender](sim::BitTime now) { return sender->next_activity(now); });
}

}  // namespace mcan::can
