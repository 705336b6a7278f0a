// Unit tests for detection ranges and attack classification
// (paper Definitions IV.1 - IV.4).
#include "core/detection.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/rng.hpp"

namespace mcan::core {
namespace {

TEST(IdRangeSet, AddAndContains) {
  IdRangeSet s;
  s.add(0x10, 0x20);
  s.add(0x30);
  EXPECT_TRUE(s.contains(0x10));
  EXPECT_TRUE(s.contains(0x18));
  EXPECT_TRUE(s.contains(0x20));
  EXPECT_FALSE(s.contains(0x21));
  EXPECT_TRUE(s.contains(0x30));
  EXPECT_FALSE(s.contains(0x0F));
  EXPECT_EQ(s.id_count(), 18u);
}

TEST(IdRangeSet, MergesAdjacentAndOverlapping) {
  IdRangeSet s;
  s.add(0x10, 0x20);
  s.add(0x21, 0x30);  // adjacent
  s.add(0x25, 0x40);  // overlapping
  EXPECT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.ranges()[0], (IdRange{0x10, 0x40}));
  s.add(0x50, 0x60);
  s.add(0x00, 0x05);  // out of order, disjoint
  s.add(0x48, 0x4F);  // out of order, touches the next range from below
  ASSERT_EQ(s.ranges().size(), 3u);
  EXPECT_EQ(s.ranges()[0], (IdRange{0x00, 0x05}));
  EXPECT_EQ(s.ranges()[1], (IdRange{0x10, 0x40}));
  EXPECT_EQ(s.ranges()[2], (IdRange{0x48, 0x60}));
}

TEST(IdRangeSet, ContainsAgreesWithLinearScanOnManyRanges) {
  // contains() is the reference the FSM tests and the latency study check
  // verdicts against, so hold it to a plain scan of ranges() on a detection
  // set as fragmented as the study's largest (|E| = 600).
  sim::Rng rng{600};
  std::set<can::CanId> ids;
  while (ids.size() < 600) {
    ids.insert(static_cast<can::CanId>(rng.uniform(0, can::kMaxStdId)));
  }
  const IvnConfig ivn{{ids.begin(), ids.end()}};
  const auto d = ivn.detection_ranges(ivn.highest());
  ASSERT_GT(d.ranges().size(), 300u);
  const auto scan = [&d](can::CanId id) {
    for (const auto& r : d.ranges()) {
      if (r.lo <= id && id <= r.hi) return true;
    }
    return false;
  };
  std::vector<can::CanId> probes{0, can::kMaxStdId};
  for (const auto& r : d.ranges()) {
    if (r.lo > 0) probes.push_back(r.lo - 1);
    probes.push_back(r.lo);
    probes.push_back(r.hi);
    probes.push_back(r.hi + 1);
  }
  for (const auto id : probes) {
    EXPECT_EQ(d.contains(id), scan(id)) << "id=" << id;
  }
}

TEST(IvnConfig, PaperExampleTwoEcus) {
  // Paper Sec. IV-A: E = {0x005, 0x00F}.  The ECU transmitting 0x00F marks
  // 0x000-0x004 and 0x006-0x00F malicious but cannot judge 0x005.
  const IvnConfig ivn{{0x005, 0x00F}};
  const auto d = ivn.detection_ranges(0x00F);
  EXPECT_TRUE(d.contains(0x000));
  EXPECT_TRUE(d.contains(0x004));
  EXPECT_FALSE(d.contains(0x005));  // the other ECU's legitimate ID
  EXPECT_TRUE(d.contains(0x006));
  EXPECT_TRUE(d.contains(0x00F));  // own ID: spoofing detection
  EXPECT_FALSE(d.contains(0x010));
  EXPECT_EQ(d.id_count(), 15u);
}

TEST(IvnConfig, ClassifyMatchesDefinitions) {
  const IvnConfig ivn{{0x100, 0x200, 0x300}};
  // Def. IV.1: own ID.
  EXPECT_EQ(ivn.classify(0x200, 0x200), AttackClass::Spoofing);
  // Def. IV.2: lower non-legitimate ID.
  EXPECT_EQ(ivn.classify(0x200, 0x150), AttackClass::Dos);
  EXPECT_EQ(ivn.classify(0x200, 0x000), AttackClass::Dos);
  // Lower legitimate ID: only its owner can judge.
  EXPECT_EQ(ivn.classify(0x200, 0x100), AttackClass::Undecidable);
  // Def. IV.3: above the highest legitimate ID.
  EXPECT_EQ(ivn.classify(0x200, 0x301), AttackClass::Miscellaneous);
  // Higher legitimate ID.
  EXPECT_EQ(ivn.classify(0x200, 0x300), AttackClass::Legitimate);
  // Unknown ID between own and highest: covered by higher-ID ECUs.
  EXPECT_EQ(ivn.classify(0x200, 0x250), AttackClass::Legitimate);
}

TEST(IvnConfig, DetectionRangeNeverContainsLowerLegitimateIds) {
  sim::Rng rng{77};
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<can::CanId> ids;
    const auto n = rng.uniform(2, 60);
    for (std::uint64_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<can::CanId>(rng.uniform(0, can::kMaxStdId)));
    }
    const IvnConfig ivn{ids};
    for (const auto own : ivn.ecus()) {
      const auto d = ivn.detection_ranges(own);
      for (const auto other : ivn.ecus()) {
        if (other < own) {
          EXPECT_FALSE(d.contains(other));
        }
      }
      EXPECT_TRUE(d.contains(own));
      // Exhaustive consistency with the definitions.
      for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
        const auto c = ivn.classify(own, static_cast<can::CanId>(id));
        const bool should =
            c == AttackClass::Spoofing || c == AttackClass::Dos;
        EXPECT_EQ(d.contains(static_cast<can::CanId>(id)), should)
            << "own=" << own << " id=" << id;
      }
    }
  }
}

TEST(IvnConfig, LightScenarioGuardsOwnIdOnly) {
  const IvnConfig ivn{{0x100, 0x200, 0x300}};
  const auto d = ivn.detection_ranges(0x300, Scenario::Light);
  EXPECT_EQ(d.id_count(), 1u);
  EXPECT_TRUE(d.contains(0x300));
  EXPECT_FALSE(d.contains(0x000));
}

TEST(IvnConfig, LightSubsetIsLowerHalf) {
  const IvnConfig ivn{{0x10, 0x20, 0x30, 0x40}};
  EXPECT_TRUE(ivn.in_light_subset(0x10));
  EXPECT_TRUE(ivn.in_light_subset(0x20));
  EXPECT_FALSE(ivn.in_light_subset(0x30));
  EXPECT_FALSE(ivn.in_light_subset(0x40));
}

TEST(IvnConfig, LowestEcuDetectsEverythingBelow) {
  const IvnConfig ivn{{0x100, 0x200}};
  const auto d = ivn.detection_ranges(0x100);
  EXPECT_EQ(d.ranges().size(), 1u);
  EXPECT_EQ(d.ranges()[0], (IdRange{0x000, 0x100}));
}

TEST(IvnConfig, DedupesAndSortsInput) {
  const IvnConfig ivn{{0x300, 0x100, 0x300, 0x200}};
  ASSERT_EQ(ivn.ecus().size(), 3u);
  EXPECT_EQ(ivn.ecus()[0], 0x100);
  EXPECT_EQ(ivn.highest(), 0x300);
  // Already sorted input is only deduplicated.
  EXPECT_EQ(IvnConfig({0x100, 0x100, 0x200, 0x200}).ecus(),
            (std::vector<can::CanId>{0x100, 0x200}));
}

}  // namespace
}  // namespace mcan::core
