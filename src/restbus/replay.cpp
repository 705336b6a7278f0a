#include "restbus/replay.hpp"

#include "sim/rng.hpp"

namespace mcan::restbus {

void attach_matrix_replay(can::BitController& ctrl, const CommMatrix& matrix,
                          sim::BusSpeed speed, ReplayConfig cfg) {
  sim::Rng rng{cfg.seed};
  const double bits_per_ms = static_cast<double>(speed.bits_per_second) / 1e3;
  for (const auto& m : matrix.messages()) {
    can::CanFrame frame;
    frame.id = m.id;
    frame.dlc = m.dlc;
    const double period_bits = m.period_ms * bits_per_ms;
    const double phase =
        cfg.randomize_phase
            ? static_cast<double>(rng.uniform(
                  0, static_cast<std::uint64_t>(period_bits)))
            : 0.0;
    can::attach_periodic(ctrl, frame, period_bits, phase, cfg.payload,
                         rng.fork());
  }
}

}  // namespace mcan::restbus
