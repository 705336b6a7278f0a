#include "analysis/latency.hpp"

#include <algorithm>
#include <bitset>
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
    std::bitset<can::kMaxStdId + 1> drawn;
    for (std::size_t distinct = 0; distinct < n;) {
      const auto id = rng.uniform(0, can::kMaxStdId);
      if (!drawn.test(id)) {
        drawn.set(id);
        ++distinct;
      }
    }
    std::vector<can::CanId> ids;
    ids.reserve(n);
    for (can::CanId id = 0; id <= can::kMaxStdId; ++id) {
      if (drawn.test(id)) ids.push_back(id);
    }
    const core::IvnConfig ivn{std::move(ids)};
    // Random perspective ECU (the paper patches an FSM into each ECU).
    const auto own = ivn.ecus()[rng.uniform(0, ivn.ecus().size() - 1)];
    const auto ranges = ivn.detection_ranges(own);
    const auto fsm = core::DetectionFsm::build(ranges);
    nodes_sum += static_cast<double>(fsm.node_count());
    out.max_depth_seen = std::max(out.max_depth_seen, fsm.max_depth());

    // Exact per-FSM mean decision depth via the leaf structure.
    std::uint64_t mal_ids = 0, ben_ids = 0;
    double mal_depth = 0, ben_depth = 0;
    fsm.for_each_leaf([&](int depth, std::uint32_t count, bool malicious) {
      if (malicious) {
        mal_ids += count;
        mal_depth += static_cast<double>(depth) * count;
      } else {
        ben_ids += count;
        ben_depth += static_cast<double>(depth) * count;
      }
    });
    if (mal_ids > 0) {
      const double mean = mal_depth / static_cast<double>(mal_ids);
      sum_of_means += mean;
      per_fsm.push_back(mean);
    }
    if (ben_ids > 0) {
      benign_sum += ben_depth / static_cast<double>(ben_ids);
      ++benign_fsms;
    }

    // Brute-force cross-check of the first `verify_fsms` FSMs.
    if (trial < cfg.verify_fsms) {
      for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
        const bool should = ranges.contains(static_cast<can::CanId>(id));
        const auto d = fsm.decide(static_cast<can::CanId>(id));
        if (should) {
          ++verified_should_flag;
          if (d.malicious) ++verified_flagged;
        } else {
          ++verified_benign;
          if (d.malicious) ++verified_false_pos;
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
