#include "core/fsm.hpp"

#include <algorithm>
#include <cassert>

namespace mcan::core {
namespace {

/// Does [lo, hi] intersect / lie inside the range set?
enum class Overlap : std::uint8_t { None, Partial, Full };

/// The contiguous run of sorted, disjoint `ranges` that meets [lo, hi].
std::span<const IdRange> meeting(std::span<const IdRange> ranges,
                                 std::uint32_t lo, std::uint32_t hi) {
  const auto first = std::partition_point(
      ranges.begin(), ranges.end(),
      [lo](const IdRange& r) { return r.hi < lo; });
  const auto last = std::partition_point(
      first, ranges.end(), [hi](const IdRange& r) { return r.lo <= hi; });
  return {first, last};
}

/// Classify [lo, hi] from the ranges that meet it.  Normalized ranges never
/// touch, so two or more of them always leave a gap inside the interval.
Overlap classify_interval(std::span<const IdRange> meets, std::uint32_t lo,
                          std::uint32_t hi) {
  if (meets.empty()) return Overlap::None;
  if (meets.size() == 1 && meets.front().lo <= lo && meets.front().hi >= hi) {
    return Overlap::Full;
  }
  return Overlap::Partial;
}

}  // namespace

DetectionFsm DetectionFsm::build(const IdRangeSet& detection_set,
                                 int id_bits) {
  assert(id_bits > 0 && id_bits <= can::kExtIdBits);
  DetectionFsm fsm;
  fsm.id_bits_ = id_bits;
  fsm.root_ = fsm.build_subtree(detection_set.ranges(), 0, 0);
  return fsm;
}

std::int32_t DetectionFsm::build_subtree(std::span<const IdRange> ranges,
                                         std::uint32_t prefix, int depth) {
  const int rest = id_bits_ - depth;
  const std::uint32_t lo = prefix << rest;
  const std::uint32_t hi = lo + ((1u << rest) - 1);
  const auto meets = meeting(ranges, lo, hi);
  switch (classify_interval(meets, lo, hi)) {
    case Overlap::None:
      max_depth_ = std::max(max_depth_, depth);
      return kBenign;
    case Overlap::Full:
      max_depth_ = std::max(max_depth_, depth);
      return kMalicious;
    case Overlap::Partial:
      break;
  }
  assert(depth < id_bits_);
  const auto index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  // Children must be built after reserving our slot; note the vector may
  // reallocate, so write through the index, not a cached reference.
  const auto c0 = build_subtree(meets, prefix << 1, depth + 1);
  const auto c1 = build_subtree(meets, (prefix << 1) | 1, depth + 1);
  nodes_[static_cast<std::size_t>(index)].child[0] = c0;
  nodes_[static_cast<std::size_t>(index)].child[1] = c1;
  return index;
}

void DetectionFsm::for_each_leaf(
    const std::function<void(int, std::uint32_t, bool)>& fn) const {
  struct Item {
    std::int32_t node;
    int depth;
  };
  std::vector<Item> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    if (node < 0) {
      const auto count = 1u << (id_bits_ - depth);
      fn(depth, count, node == kMalicious);
      continue;
    }
    const auto& n = nodes_[static_cast<std::size_t>(node)];
    stack.push_back({n.child[0], depth + 1});
    stack.push_back({n.child[1], depth + 1});
  }
}

DetectionFsm::Decision DetectionFsm::decide(can::CanId id) const {
  Runner r{*this};
  for (int i = id_bits_ - 1; i >= 0; --i) {
    if (auto d = r.step(static_cast<int>((id >> i) & 1))) return *d;
  }
  assert(r.decided());
  return r.decision();
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
