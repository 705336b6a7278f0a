#include "analysis/latency.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

namespace mcan::analysis {

LatencyStudyResult run_latency_study(const LatencyStudyConfig& cfg) {
  sim::Rng rng{cfg.seed};
  LatencyStudyResult out;

  double sum_of_means = 0;
  double benign_sum = 0;
  std::uint64_t benign_fsms = 0;
  double nodes_sum = 0;
  std::vector<double> per_fsm;
  per_fsm.reserve(static_cast<std::size_t>(cfg.num_fsms));

  std::uint64_t verified_should_flag = 0;
  std::uint64_t verified_flagged = 0;
  std::uint64_t verified_benign = 0;
  std::uint64_t verified_false_pos = 0;

  for (int trial = 0; trial < cfg.num_fsms; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform(
        static_cast<std::uint64_t>(cfg.min_ecus),
        static_cast<std::uint64_t>(cfg.max_ecus)));
    // Draw n distinct IDs (a repeat costs a draw and is dropped), then hand
    // them over in ascending order.
    std::array<std::uint64_t, (can::kMaxStdId + 1) / 64> drawn{};
    for (std::size_t distinct = 0; distinct < n;) {
      const auto id = rng.uniform(0, can::kMaxStdId);
      const auto bit = std::uint64_t{1} << (id % 64);
      if ((drawn[id / 64] & bit) == 0) {
        drawn[id / 64] |= bit;
        ++distinct;
      }
    }
    std::vector<can::CanId> ids;
    ids.reserve(n);
    for (std::size_t w = 0; w < drawn.size(); ++w) {
      for (auto bits = drawn[w]; bits != 0; bits &= bits - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        ids.push_back(static_cast<can::CanId>(w * 64 + bit));
      }
    }
    const core::IvnConfig ivn{std::move(ids)};
    // Random perspective ECU (the paper patches an FSM into each ECU).
    const auto own = ivn.ecus()[rng.uniform(0, ivn.ecus().size() - 1)];
    const auto ranges = ivn.detection_ranges(own);
    const auto fsm = core::DetectionFsm::build(ranges);
    nodes_sum += static_cast<double>(fsm.node_count());
    out.max_depth_seen = std::max(out.max_depth_seen, fsm.max_depth());

    // Exact per-FSM mean decision depth from the FSM's depth histogram.  The
    // sums are integers, so the doubles below are exact.
    std::uint64_t mal_ids = 0, ben_ids = 0, mal_depth = 0, ben_depth = 0;
    const auto mal = fsm.decided_at(true);
    const auto ben = fsm.decided_at(false);
    for (std::size_t depth = 0; depth < mal.size(); ++depth) {
      mal_ids += mal[depth];
      mal_depth += depth * mal[depth];
      ben_ids += ben[depth];
      ben_depth += depth * ben[depth];
    }
    if (mal_ids > 0) {
      const double mean =
          static_cast<double>(mal_depth) / static_cast<double>(mal_ids);
      sum_of_means += mean;
      per_fsm.push_back(mean);
    }
    if (ben_ids > 0) {
      benign_sum +=
          static_cast<double>(ben_depth) / static_cast<double>(ben_ids);
      ++benign_fsms;
    }

    // Brute-force cross-check of the first `verify_fsms` FSMs: every ID's
    // verdict against membership, found by one cursor over the sorted
    // ranges.
    if (trial < cfg.verify_fsms) {
      auto next = ranges.ranges().begin();
      const auto end = ranges.ranges().end();
      for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
        while (next != end && next->hi < id) ++next;
        const bool should = next != end && next->lo <= id;
        const bool flagged = fsm.decide(static_cast<can::CanId>(id)).malicious;
        if (should) {
          ++verified_should_flag;
          if (flagged) ++verified_flagged;
        } else {
          ++verified_benign;
          if (flagged) ++verified_false_pos;
        }
      }
    }
  }

  out.fsms_built = static_cast<std::uint64_t>(cfg.num_fsms);
  out.per_fsm_mean = sim::summarize(per_fsm);
  out.mean_detection_bit =
      per_fsm.empty() ? 0.0
                      : sum_of_means / static_cast<double>(per_fsm.size());
  out.mean_benign_bit =
      benign_fsms == 0 ? 0.0 : benign_sum / static_cast<double>(benign_fsms);
  out.detection_rate =
      verified_should_flag == 0
          ? 1.0
          : static_cast<double>(verified_flagged) /
                static_cast<double>(verified_should_flag);
  out.false_positive_rate =
      verified_benign == 0 ? 0.0
                           : static_cast<double>(verified_false_pos) /
                                 static_cast<double>(verified_benign);
  out.mean_fsm_nodes = nodes_sum / static_cast<double>(cfg.num_fsms);
  return out;
}

double detection_latency_us(double bit_position, double bits_per_second) {
  return bit_position * 1e6 / bits_per_second;
}

}  // namespace mcan::analysis
