// The shared medium: a wired-AND bus stepped at nominal bit-time
// granularity, with a logic-analyzer trace and a protocol event log.
//
// An optional FaultInjector hooks the step loop between wired-AND
// resolution and the nodes' sample points: it may disturb the resolved
// level (bit flips, stuck-at windows) and skew what individual nodes
// sample (clock-tolerance modelling).  Without an injector the step loop
// is exactly the clean-bus fast path.
#pragma once

#include <cstdint>
#include <vector>

#include "can/node.hpp"
#include "sim/event_log.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace mcan::obs {
class Registry;
}  // namespace mcan::obs

namespace mcan::can {

class FaultInjector;

class WiredAndBus {
 public:
  explicit WiredAndBus(sim::BusSpeed speed = {}) : speed_(speed) {}

  /// Attach a node.  The bus does not own nodes; callers must keep them
  /// alive for the bus's lifetime.
  void attach(CanNode& node) { nodes_.push_back(&node); }

  /// Install (or clear, with nullptr) a physical-layer fault injector.
  /// The bus does not own it; the caller keeps it alive while attached.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept {
    return injector_;
  }

  /// Advance one nominal bit time.
  void step();

  /// Advance `bits` bit times.  With the fast path enabled (default) the
  /// loop probes every node's drive_pattern()/transparent_bits() and
  /// resolves the wired-AND a window at a time: up to 64 bits of a frame,
  /// or any length of idle bus, falling back to per-bit stepping inside
  /// contested regions.  Trace, event log, metrics and node state are
  /// byte-identical either way.
  void run(sim::Bits bits);
  void run(sim::BitTime bits) { run(sim::Bits{bits}); }

  /// Advance until `ms` milliseconds of bus time have elapsed.
  void run_for(sim::Millis ms) { run(speed_.to_bits(ms)); }

  /// Toggle the batch-window engine (on by default).  Forcing it off
  /// (--no-fast-path) pins the naive per-bit kernel, which consults no
  /// node contract: the reference oracle for bisection.
  void set_fast_path(bool enabled) noexcept { fast_path_ = enabled; }
  [[nodiscard]] bool fast_path() const noexcept { return fast_path_; }

  /// Bits covered by windows whose resolved word is all recessive (idle-bus
  /// skips) instead of per-bit stepping.  Runtime perf information —
  /// deliberately kept out of export_metrics() so the deterministic metrics
  /// registry is identical with the fast path on/off.
  [[nodiscard]] std::uint64_t bits_skipped() const noexcept {
    return bits_skipped_;
  }

  /// Bits resolved by every other window.  Runtime perf information, kept
  /// out of export_metrics() like bits_skipped() so recordings are
  /// engine-independent.
  [[nodiscard]] std::uint64_t bits_batched() const noexcept {
    return bits_batched_;
  }

  [[nodiscard]] sim::BitTime now() const noexcept { return now_; }
  [[nodiscard]] sim::BusSpeed speed() const noexcept { return speed_; }

  [[nodiscard]] sim::LogicAnalyzer& trace() noexcept { return trace_; }
  [[nodiscard]] const sim::LogicAnalyzer& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] sim::EventLog& log() noexcept { return log_; }
  [[nodiscard]] const sim::EventLog& log() const noexcept { return log_; }

  /// Resolved level of the most recent bit (recessive before any step).
  [[nodiscard]] sim::BitLevel last_level() const noexcept { return last_; }

  /// Register bus-level metrics (bits simulated, dominant bits, logged
  /// events, attached nodes) into a metrics shard.  Harvest-time only —
  /// nothing on the per-bit step path.
  void export_metrics(obs::Registry& reg) const;

 private:
  /// Try to resolve one window ending no later than `end`.  Returns true
  /// when a window committed (now_ advanced), false when any node, the
  /// injector or the minimum-window threshold forced per-bit fallback.
  /// Throws std::logic_error when a node's drive contradicts its advertised
  /// pattern, at the window's first bit or at the bit after it.
  bool batch_step(sim::BitTime end);

  sim::BusSpeed speed_;
  std::vector<CanNode*> nodes_;
  FaultInjector* injector_{nullptr};
  sim::BitTime now_{0};
  sim::BitLevel last_{sim::BitLevel::Recessive};
  bool fast_path_{true};
  std::uint64_t bits_skipped_{0};
  std::uint64_t bits_batched_{0};
  /// Backoff: after a failed probe (contested region: arbitration, error
  /// signalling, frame boundaries), don't re-probe until here.
  sim::BitTime batch_retry_at_{0};
  /// Per-probe scratch for the nodes' drive patterns (reused allocation).
  std::vector<CanNode::DrivePattern> patterns_;
  sim::LogicAnalyzer trace_;
  sim::EventLog log_;
};

}  // namespace mcan::can
