// Unit and property tests for the detection FSM (paper Sec. IV-A):
// correctness against brute force, earliest-decision property, node counts.
#include "core/fsm.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace mcan::core {
namespace {

// An IVN of exactly `n` distinct random 11-bit IDs.
IvnConfig ivn_of_size(sim::Rng& rng, std::uint64_t n) {
  std::set<can::CanId> ids;
  while (ids.size() < n) {
    ids.insert(static_cast<can::CanId>(rng.uniform(0, can::kMaxStdId)));
  }
  return IvnConfig{{ids.begin(), ids.end()}};
}

// The default reaches the latency study's largest ID sets (|E| = 600), where
// detection ranges are most fragmented.
IvnConfig random_ivn(sim::Rng& rng, int max_ecus = 600) {
  return ivn_of_size(rng, rng.uniform(2, static_cast<std::uint64_t>(max_ecus)));
}

// {all IDs, malicious IDs} the depth histogram covers.
std::pair<std::uint64_t, std::uint64_t> histogram_totals(
    const DetectionFsm& fsm) {
  std::uint64_t benign = 0, malicious = 0;
  for (const auto count : fsm.decided_at(false)) benign += count;
  for (const auto count : fsm.decided_at(true)) malicious += count;
  return {benign + malicious, malicious};
}

// decided_at() must equal decide()'s verdicts and decision bits tallied over
// the whole 11-bit ID space.
void expect_histogram_matches_decide(const DetectionFsm& fsm) {
  std::array<std::vector<std::uint32_t>, 2> tally;
  tally.fill(std::vector<std::uint32_t>(can::kIdBits + 1));
  for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
    const auto d = fsm.decide(static_cast<can::CanId>(id));
    ++tally[d.malicious ? 1 : 0][static_cast<std::size_t>(d.bit_position)];
  }
  for (const bool malicious : {false, true}) {
    const auto got = fsm.decided_at(malicious);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              tally[malicious ? 1 : 0])
        << "malicious=" << malicious;
  }
}

TEST(DetectionFsm, SingleIdDecidesAtFullDepthOnly) {
  IdRangeSet d;
  d.add(0x555);
  const auto fsm = DetectionFsm::build(d);
  const auto dec = fsm.decide(0x555);
  EXPECT_TRUE(dec.malicious);
  EXPECT_EQ(dec.bit_position, 11);  // a lone ID needs all 11 bits
  EXPECT_FALSE(fsm.decide(0x554).malicious);
  EXPECT_FALSE(fsm.decide(0x7FF).malicious);
}

TEST(DetectionFsm, FullRangeDecidesImmediately) {
  IdRangeSet d;
  d.add(0x000, can::kMaxStdId);
  const auto fsm = DetectionFsm::build(d);
  EXPECT_EQ(fsm.node_count(), 0u);
  const auto dec = fsm.decide(0x123);
  EXPECT_TRUE(dec.malicious);
  EXPECT_EQ(dec.bit_position, 0);
}

TEST(DetectionFsm, EmptyRangeNeverFlags) {
  const auto fsm = DetectionFsm::build(IdRangeSet{});
  for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
    EXPECT_FALSE(fsm.decide(static_cast<can::CanId>(id)).malicious);
  }
}

TEST(DetectionFsm, UpperHalfDecidesAfterOneBit) {
  IdRangeSet d;
  d.add(0x400, 0x7FF);
  const auto fsm = DetectionFsm::build(d);
  EXPECT_EQ(fsm.decide(0x400).bit_position, 1);
  EXPECT_EQ(fsm.decide(0x3FF).bit_position, 1);
  EXPECT_TRUE(fsm.decide(0x7FF).malicious);
  EXPECT_FALSE(fsm.decide(0x000).malicious);
}

TEST(DetectionFsm, MatchesBruteForceOnRandomIvns) {
  sim::Rng rng{31337};
  for (int trial = 0; trial < 200; ++trial) {
    const auto ivn = random_ivn(rng);
    const auto own = ivn.ecus()[rng.uniform(0, ivn.ecus().size() - 1)];
    const auto ranges = ivn.detection_ranges(own);
    const auto fsm = DetectionFsm::build(ranges);
    for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
      ASSERT_EQ(fsm.decide(static_cast<can::CanId>(id)).malicious,
                ranges.contains(static_cast<can::CanId>(id)))
          << "own=" << own << " id=" << id;
    }
  }
}

TEST(DetectionFsm, DecidesAtEarliestPossiblePrefix) {
  // Property: at the decision depth k, all IDs sharing the k-bit prefix
  // have the same verdict, and at depth k-1 they do not — i.e. no
  // prefix-based detector could have decided earlier.
  sim::Rng rng{99};
  for (int trial = 0; trial < 50; ++trial) {
    const auto ivn = random_ivn(rng, 40);
    const auto own = ivn.ecus().back();
    const auto ranges = ivn.detection_ranges(own);
    const auto fsm = DetectionFsm::build(ranges);
    for (int probe = 0; probe < 64; ++probe) {
      const auto id = static_cast<can::CanId>(rng.uniform(0, can::kMaxStdId));
      const auto dec = fsm.decide(id);
      const int k = dec.bit_position;
      if (k == 0) continue;
      // All IDs with the same k-bit prefix agree with the verdict.
      const int rest = can::kIdBits - k;
      const auto lo = static_cast<std::uint32_t>(id >> rest) << rest;
      const auto hi = lo + ((1u << rest) - 1);
      bool all_same = true;
      for (std::uint32_t j = lo; j <= hi; ++j) {
        if (ranges.contains(static_cast<can::CanId>(j)) != dec.malicious) {
          all_same = false;
          break;
        }
      }
      EXPECT_TRUE(all_same) << "verdict not uniform under prefix";
      // The (k-1)-bit prefix is ambiguous (otherwise the FSM would have
      // decided a bit earlier).
      const int rest1 = rest + 1;
      const auto lo1 = static_cast<std::uint32_t>(id >> rest1) << rest1;
      const auto hi1 = lo1 + ((1u << rest1) - 1);
      bool ambiguous = false;
      for (std::uint32_t j = lo1; j <= hi1; ++j) {
        if (ranges.contains(static_cast<can::CanId>(j)) != dec.malicious) {
          ambiguous = true;
          break;
        }
      }
      EXPECT_TRUE(ambiguous) << "FSM decided later than necessary";
    }
  }
}

TEST(DetectionFsm, RunnerMatchesDecide) {
  sim::Rng rng{5150};
  const auto ivn = random_ivn(rng);
  const auto fsm =
      DetectionFsm::build(ivn.detection_ranges(ivn.ecus().back()));
  for (int probe = 0; probe < 500; ++probe) {
    const auto id = static_cast<can::CanId>(rng.uniform(0, can::kMaxStdId));
    auto runner = fsm.runner();
    std::optional<DetectionFsm::Decision> got;
    for (int i = can::kIdBits - 1; i >= 0 && !got; --i) {
      got = runner.step((id >> i) & 1);
    }
    const auto want = fsm.decide(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->malicious, want.malicious);
    EXPECT_EQ(got->bit_position, want.bit_position);
  }
}

TEST(DetectionFsm, RunnerIgnoresBitsAfterDecision) {
  IdRangeSet d;
  d.add(0x400, 0x7FF);
  const auto fsm = DetectionFsm::build(d);
  auto runner = fsm.runner();
  const auto dec = runner.step(1);
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->malicious);
  EXPECT_FALSE(runner.step(0).has_value());
  EXPECT_TRUE(runner.decided());
}

TEST(DetectionFsm, DepthHistogramCoversWholeIdSpace) {
  sim::Rng rng{8080};
  const auto ivn = random_ivn(rng);
  const auto ranges = ivn.detection_ranges(ivn.ecus().back());
  const auto fsm = DetectionFsm::build(ranges);
  EXPECT_EQ(fsm.decided_at(true).size(), 12u);
  const auto [total, malicious] = histogram_totals(fsm);
  EXPECT_EQ(total, 2048u);
  EXPECT_EQ(malicious, ranges.id_count());

  // The same over the 29-bit extended space, where one count can reach 2^29.
  IvnConfig ext_ivn{{0x100, 0x173}};
  ext_ivn.set_extended_ecus({0x00ABCDEF, 0x00ABCDF1, 0x01000000, 0x18DAF110});
  const auto ext_ranges = ext_ivn.ext_detection_ranges(0x173);
  const auto ext = DetectionFsm::build(ext_ranges, can::kExtIdBits);
  EXPECT_EQ(ext.decided_at(true).size(), 30u);
  const auto [ext_total, ext_malicious] = histogram_totals(ext);
  EXPECT_EQ(ext_total, std::uint64_t{1} << can::kExtIdBits);
  EXPECT_EQ(ext_malicious, ext_ranges.id_count());
  EXPECT_EQ(ext.max_depth(), can::kExtIdBits);
}

TEST(DetectionFsm, DepthHistogramMatchesDecideOnEveryId) {
  sim::Rng rng{2024};
  for (const std::uint64_t n : {1u, 5u, 60u, 300u, 600u}) {
    const auto ivn = ivn_of_size(rng, n);
    const auto& ecus = ivn.ecus();
    for (const auto own : {ecus.front(), ecus[ecus.size() / 2], ecus.back()}) {
      SCOPED_TRACE("|E|=" + std::to_string(n) + " own=" + std::to_string(own));
      expect_histogram_matches_decide(
          DetectionFsm::build(ivn.detection_ranges(own)));
    }
  }
  SCOPED_TRACE("empty and full");
  expect_histogram_matches_decide(DetectionFsm::build(IdRangeSet{}));
  IdRangeSet full;
  full.add(0, can::kMaxStdId);
  expect_histogram_matches_decide(DetectionFsm::build(full));
}

TEST(DetectionFsm, SplitBoundarySweepMatchesBruteForce) {
  // Ranges that end at, start just after, or straddle the split point of
  // every node at depths 0-3 (the boundary between its depth 1-4 children),
  // alone and with neighbours on either side.
  for (int depth = 1; depth <= 4; ++depth) {
    const std::uint32_t half = 1u << (can::kIdBits - depth);
    for (std::uint32_t mid = half - 1; mid < can::kMaxStdId; mid += 2 * half) {
      const std::vector<std::vector<IdRange>> shapes = {
          {{mid - 3, mid}},
          {{mid, mid}},
          {{mid + 1, mid + 1}},
          {{mid + 1, mid + 4}},
          {{mid - 3, mid + 4}},
          {{mid, mid + 1}},
          {{mid - 3, mid}, {mid + 2, mid + 5}},
          {{mid - 5, mid - 1}, {mid + 1, mid + 3}},
          {{mid - 9, mid - 7}, {mid - 3, mid + 4}, {mid + 8, mid + 9}},
          {{0, mid - 7}, {mid - 3, mid + 4}, {mid + 8, can::kMaxStdId}},
      };
      for (const auto& shape : shapes) {
        IdRangeSet d;
        for (const auto& r : shape) d.add(r.lo, r.hi);
        SCOPED_TRACE("depth=" + std::to_string(depth) + " " + d.to_string());
        const auto fsm = DetectionFsm::build(d);
        for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
          ASSERT_EQ(fsm.decide(static_cast<can::CanId>(id)).malicious,
                    d.contains(static_cast<can::CanId>(id)))
              << "id=" << id;
        }
        expect_histogram_matches_decide(fsm);
      }
    }
  }
}

TEST(DetectionFsm, LightFsmIsMuchSmallerThanFull) {
  sim::Rng rng{123};
  const auto ivn = random_ivn(rng, 80);
  const auto own = ivn.ecus().back();
  const auto full =
      DetectionFsm::build(ivn.detection_ranges(own, Scenario::Full));
  const auto light =
      DetectionFsm::build(ivn.detection_ranges(own, Scenario::Light));
  EXPECT_LT(light.node_count(), full.node_count());
  EXPECT_LE(light.node_count(), 11u);
}

}  // namespace
}  // namespace mcan::core
