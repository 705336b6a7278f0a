// Restbus simulation: replaying a vehicle's communication matrix onto the
// simulated bus through one controller with one transmit FIFO, as the paper
// replays recorded Veh. D traffic through one PCAN-USB interface (Sec. V-A).
// Frames that fall due together leave in FIFO order, not by ID priority.
#pragma once

#include <cstdint>

#include "can/controller.hpp"
#include "can/periodic.hpp"
#include "restbus/comm_matrix.hpp"
#include "sim/types.hpp"

namespace mcan::restbus {

struct ReplayConfig {
  /// Random payloads per cycle (realistic stuff-bit variance).
  can::PayloadMode payload{can::PayloadMode::Random};
  /// Randomize initial phases so messages do not all fire at t = 0.
  bool randomize_phase{true};
  std::uint64_t seed{0xBEEF};
};

/// Load every message of `matrix` onto `ctrl` as a periodic sender at its
/// matrix period (bit times at `speed`).  The caller owns `ctrl` and
/// attaches it to the bus.  RNG draws run in matrix order: one phase per
/// message (when randomized), then one forked stream for its payloads.
void attach_matrix_replay(can::BitController& ctrl, const CommMatrix& matrix,
                          sim::BusSpeed speed, ReplayConfig cfg = {});

}  // namespace mcan::restbus
