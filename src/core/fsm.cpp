#include "core/fsm.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace mcan::core {

DetectionFsm DetectionFsm::build(const IdRangeSet& detection_set,
                                 int id_bits) {
  assert(id_bits > 0 && id_bits <= can::kExtIdBits);
  DetectionFsm fsm;
  fsm.id_bits_ = id_bits;
  // The ranges that meet the root: those starting inside the ID space.
  const auto& ranges = detection_set.ranges();
  const std::uint32_t top = (1u << id_bits) - 1;
  const auto end = std::partition_point(
      ranges.begin(), ranges.end(),
      [top](const IdRange& r) { return r.lo <= top; });
  fsm.root_ = fsm.build_subtree({ranges.begin(), end}, 0, 0);
  return fsm;
}

std::int32_t DetectionFsm::build_subtree(std::span<const IdRange> meets,
                                         std::uint32_t prefix, int depth) {
  const int rest = id_bits_ - depth;
  const std::uint32_t lo = prefix << rest;
  const std::uint32_t hi = lo + ((1u << rest) - 1);
  // Normalized ranges never touch, so two or more of them always leave a
  // gap inside the interval.
  const bool none = meets.empty();
  if (none || (meets.size() == 1 && meets.front().lo <= lo &&
               meets.front().hi >= hi)) {
    decided_at_[none ? 0 : 1][static_cast<std::size_t>(depth)] += 1u << rest;
    return none ? kBenign : kMalicious;
  }
  assert(depth < id_bits_);
  const auto index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  // Split at the 0-child's last ID; a range that straddles it meets both
  // children.
  const std::uint32_t mid = lo + ((1u << (rest - 1)) - 1);
  const auto split = std::partition_point(
      meets.begin(), meets.end(),
      [mid](const IdRange& r) { return r.lo <= mid; });
  const auto right =
      split != meets.begin() && std::prev(split)->hi > mid ? std::prev(split)
                                                           : split;
  // Children must be built after reserving our slot; note the vector may
  // reallocate, so write through the index, not a cached reference.
  const auto c0 = build_subtree({meets.begin(), split}, prefix << 1, depth + 1);
  const auto c1 =
      build_subtree({right, meets.end()}, (prefix << 1) | 1, depth + 1);
  nodes_[static_cast<std::size_t>(index)].child[0] = c0;
  nodes_[static_cast<std::size_t>(index)].child[1] = c1;
  return index;
}

int DetectionFsm::max_depth() const noexcept {
  for (int d = id_bits_; d > 0; --d) {
    const auto i = static_cast<std::size_t>(d);
    if (decided_at_[0][i] != 0 || decided_at_[1][i] != 0) return d;
  }
  return 0;
}

DetectionFsm::Decision DetectionFsm::decide(can::CanId id) const noexcept {
  std::int32_t state = root_;
  int depth = 0;
  while (state >= 0) {
    assert(depth < id_bits_);
    ++depth;
    const auto bit = (id >> (id_bits_ - depth)) & 1;
    state = nodes_[static_cast<std::size_t>(state)].child[bit];
  }
  return {state == kMalicious, depth};
}

void DetectionFsm::Runner::reset() {
  depth_ = 0;
  decided_ = false;
  decision_ = {};
  state_ = fsm_->root_;
  if (state_ < 0) {
    // Degenerate FSMs (𝔻 empty or the full space) decide before any bit.
    decided_ = true;
    decision_ = {state_ == kMalicious, 0};
  }
}

std::optional<DetectionFsm::Decision> DetectionFsm::Runner::step(int bit) {
  if (decided_) return std::nullopt;
  assert(state_ >= 0 && depth_ < fsm_->id_bits_);
  ++depth_;
  state_ = fsm_->nodes_[static_cast<std::size_t>(state_)].child[bit & 1];
  if (state_ < 0) {
    decided_ = true;
    decision_ = {state_ == kMalicious, depth_};
    return decision_;
  }
  return std::nullopt;
}

}  // namespace mcan::core
