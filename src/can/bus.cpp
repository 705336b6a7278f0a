#include "can/bus.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "can/fault_injector.hpp"
#include "obs/metrics.hpp"

namespace mcan::can {
namespace {

/// Smallest window worth committing as a word: below this the probe
/// overhead (three virtual calls per node) beats the per-bit savings.
constexpr sim::BitTime kMinBatch = 8;

/// After a failed batch probe (contested region: arbitration, error
/// signalling, frame boundaries), wait this many bits before re-probing.
constexpr sim::BitTime kBatchBackoff = 4;

}  // namespace

void WiredAndBus::export_metrics(obs::Registry& reg) const {
  reg.counter("bus.bits_simulated") += now_;
  reg.counter("bus.dominant_bits") += trace_.dominant_count(0, now_);
  reg.counter("bus.events") += log_.size();
  reg.counter("bus.nodes") += nodes_.size();
}

void WiredAndBus::step() {
  for (auto* n : nodes_) n->tick(now_);

  auto level = sim::BitLevel::Recessive;
  for (auto* n : nodes_) level = sim::wired_and(level, n->tx_level());

  if (injector_ != nullptr) level = injector_->transform(now_, level, &log_);

  trace_.sample(level);
  const auto previous = last_;
  last_ = level;

  if (injector_ != nullptr && injector_->has_skew()) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i]->on_bus_bit(
          injector_->deliver(i, nodes_[i]->name(), level, previous, now_,
                             &log_));
    }
  } else {
    for (auto* n : nodes_) n->on_bus_bit(level);
  }
  ++now_;
}

bool WiredAndBus::batch_step(sim::BitTime end) {
  if (nodes_.empty()) return false;
  sim::BitTime count = end - now_;
  if (injector_ != nullptr) {
    count = std::min(count, injector_->batch_horizon(now_));
  }
  if (count < kMinBatch) return false;

  // Phase 1: gather drive promises.  Any opt-out aborts the whole probe —
  // the window is only sound when every node's contribution is known.
  patterns_.clear();
  for (auto* n : nodes_) {
    const CanNode::DrivePattern p = n->drive_pattern(now_);
    if (p.horizon == 0) return false;
    count = std::min(count, p.horizon);
    patterns_.push_back(p);
  }
  if (count < kMinBatch) return false;

  // Phase 2: resolve the wired-AND word.  Bits past the window are forced
  // recessive so pattern garbage beyond a node's horizon cannot leak into
  // another node's transparency scan.  Only an all-recessive window may
  // run past 64 bits (every horizon above 64 is all recessive).
  std::uint64_t word = ~0ull;
  for (const auto& p : patterns_) word &= p.bits;
  if (count < 64) {
    word |= ~0ull << count;
  } else if (word != ~0ull) {
    count = 64;
  }

  // Phase 3: the injector and every node bound the window to their own
  // reaction-free prefix.  A prefix of a transparent prefix stays
  // transparent, so one min pass suffices even as `count` shrinks.
  if (injector_ != nullptr) {
    count = std::min(count, injector_->transparent_bits(word, count));
    if (count < kMinBatch) return false;
  }
  for (auto* n : nodes_) {
    count = std::min(count, n->transparent_bits(now_, word, count));
    if (count < kMinBatch) return false;
  }

  // Contract check at the window's first bit: the pattern must match what
  // the node actually drives.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const bool recessive = (patterns_[i].bits & 1u) != 0;
    if (sim::is_recessive(nodes_[i]->tx_level()) != recessive) {
      throw std::logic_error{
          "batch contract violation: node '" + std::string{nodes_[i]->name()} +
          "' advertises a drive_pattern() contradicting its own tx_level()"};
    }
  }

  // Commit: the window is reaction-free for every node and undisturbed by
  // the injector, so no events fire inside it and bulk application is
  // byte-identical to `count` per-bit rounds.
  if (word == ~0ull) {
    trace_.sample_run(sim::BitLevel::Recessive, count);
    last_ = sim::BitLevel::Recessive;
    bits_skipped_ += count;
  } else {
    trace_.sample_word(word, count);
    last_ = ((word >> (count - 1)) & 1u) != 0 ? sim::BitLevel::Recessive
                                              : sim::BitLevel::Dominant;
    bits_batched_ += count;
  }
  for (auto* n : nodes_) n->on_bus_word(now_, word, count);
  if (injector_ != nullptr) injector_->on_batch(word, count);
  now_ += count;

  // Contract check at the bit after the window: a node whose horizon
  // reached past it must now drive its promised next level.  One that
  // wants the bus dominant there holds a stale promise — its edge fell
  // inside (or at the end of) the window just committed.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const CanNode::DrivePattern& p = patterns_[i];
    if (p.horizon <= count) continue;
    const bool recessive = count >= 64 || ((p.bits >> count) & 1u) != 0;
    if (sim::is_recessive(nodes_[i]->tx_level()) != recessive) {
      throw std::logic_error{
          "batch contract violation: node '" + std::string{nodes_[i]->name()} +
          "' drives against its drive_pattern() right after a committed "
          "window (stale promise)"};
    }
  }
  return true;
}

void WiredAndBus::run(sim::Bits bits) {
  const sim::BitTime end = sim::sat_add(now_, bits.value());
  while (now_ < end) {
    if (fast_path_ && now_ >= batch_retry_at_) {
      if (batch_step(end)) continue;
      batch_retry_at_ = now_ + kBatchBackoff;
    }
    step();
  }
}

}  // namespace mcan::can
