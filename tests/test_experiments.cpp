// End-to-end validation of the paper's six Table II experiments and the
// multi-attacker sweep (Sec. V-C), run through the reusable harness.
// Absolute timings are in bits; Table II's ms values are bits / 50 kbit/s.
#include "analysis/experiments.hpp"

#include <gtest/gtest.h>

#include "analysis/scenarios.hpp"
#include "analysis/theory.hpp"

namespace mcan::analysis {
namespace {

class Table2Experiment : public ::testing::TestWithParam<int> {};

TEST_P(Table2Experiment, AttackerBusedOffDefenderHealthy) {
  auto spec = table2_experiment(GetParam());
  const auto res = run_experiment(spec);

  for (const auto& a : res.attackers) {
    EXPECT_GE(a.busoff_count, 1u) << a.node;
    // Every cycle confines the attacker within the theoretical bounds:
    // at least the best-case isolated total, and well under the paper's
    // feasibility ceiling (2929 bits max observed in Table II).
    EXPECT_GE(a.busoff_bits.min, 16 * (theory::kBestErrorActiveBits +
                                       theory::kBestErrorPassiveBits))
        << a.node;
    EXPECT_LE(a.busoff_bits.max, 3000.0) << a.node;
  }
  // The counterattack never costs the defender its bus access.
  EXPECT_FALSE(res.defender_bus_off);
  EXPECT_GT(res.counterattacks, 30u);
  // Detection happens inside the 11-bit ID field.
  EXPECT_GT(res.mean_detection_bit, 0.0);
  EXPECT_LE(res.mean_detection_bit, 11.0);
  // Restbus nodes (benign ECUs) must never be pushed into bus-off.
  EXPECT_FALSE(res.restbus_any_bus_off);
}

INSTANTIATE_TEST_SUITE_P(AllSix, Table2Experiment,
                         ::testing::Values(1, 2, 3, 4, 5, 6),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return "Exp" + std::to_string(p.param);
                         });

TEST(Experiments, IsolatedSpoofMatchesTheoryBand) {
  // Exp. 2: single attacker, no restbus.  Paper: mu = 24.2 ms at 50 kbit/s
  // (= 1210 bits), worst-case bound 1248 bits + receiver error flags.
  const auto res = run_experiment(table2_experiment(2));
  ASSERT_EQ(res.attackers.size(), 1u);
  const auto& a = res.attackers[0];
  EXPECT_GE(a.busoff_bits.mean, 1100.0);
  EXPECT_LE(a.busoff_bits.mean, 1500.0);
  // Low variance without restbus interference.
  EXPECT_LE(a.busoff_bits.stddev, 60.0);
  // 32 transmission attempts per cycle.
  EXPECT_NEAR(static_cast<double>(a.retransmissions) /
                  static_cast<double>(a.busoff_count),
              32.0, 3.0);
}

TEST(Experiments, RestbusIncreasesVarianceNotMean) {
  const auto iso = run_experiment(table2_experiment(4));
  const auto rb = run_experiment(table2_experiment(3));
  ASSERT_EQ(iso.attackers.size(), 1u);
  ASSERT_EQ(rb.attackers.size(), 1u);
  // Means are comparable (paper: 24.9 vs 25.1 ms)...
  EXPECT_NEAR(rb.attackers[0].busoff_bits.mean,
              iso.attackers[0].busoff_bits.mean,
              0.25 * iso.attackers[0].busoff_bits.mean);
  // ...but the restbus runs show a larger spread (paper: sigma 1.39 vs
  // 0.45 ms) and a larger maximum.
  EXPECT_GT(rb.attackers[0].busoff_bits.stddev,
            iso.attackers[0].busoff_bits.stddev);
  EXPECT_GE(rb.attackers[0].busoff_bits.max,
            iso.attackers[0].busoff_bits.max);
}

TEST(Experiments, TwoAttackersIntertwineAndTakeLonger) {
  // Exp. 5 vs Exp. 4: the mean bus-off time grows (paper: ~50 %) because
  // the two bus-off sequences interleave — but it does not double.
  const auto single = run_experiment(table2_experiment(4));
  const auto dual = run_experiment(table2_experiment(5));
  ASSERT_EQ(dual.attackers.size(), 2u);
  const double base = single.attackers[0].busoff_bits.mean;
  for (const auto& a : dual.attackers) {
    EXPECT_GT(a.busoff_bits.mean, 1.15 * base) << a.node;
    EXPECT_LT(a.busoff_bits.mean, 2.0 * base) << a.node;
  }
}

TEST(Experiments, AlternatingIdsBehaveLikeSingleAttacker) {
  // Exp. 6: both IDs are bused off separately; each cycle looks like
  // Exp. 4 (paper: 24.9 ms in both).  Note: 0x050 ends in four dominant
  // bits, so the counterattack trips the recessive stuff bit right after
  // RTR (the paper's *best case*, Sec. IV-E), while 0x051 errs at the
  // first DLC bit (worst case) — the cycle lengths are therefore bimodal
  // with a spread of a few bits per retransmission.
  const auto res = run_experiment(table2_experiment(6));
  ASSERT_EQ(res.attackers.size(), 1u);
  const auto& a = res.attackers[0];
  EXPECT_GE(a.busoff_count, 2u);
  EXPECT_GE(a.busoff_bits.mean, 1100.0);
  EXPECT_LE(a.busoff_bits.mean, 1500.0);
  EXPECT_LE(a.busoff_bits.stddev, 80.0);
  // Both modes stay within the theory band [best-case, worst-case+slack].
  EXPECT_GE(a.busoff_bits.min, 16 * (theory::kBestErrorActiveBits +
                                     theory::kBestErrorPassiveBits));
  EXPECT_LE(a.busoff_bits.max, theory::isolated_total_bits() + 100.0);
}

TEST(Experiments, MultiAttackerScalesSubLinearly) {
  // Sec. V-C: A=3 -> 3515 bits, A=4 -> 4660 bits total; A >= 5 would break
  // the 10 ms deadline translated to the 50 kbit/s bus.
  const auto a2 = run_experiment(multi_attacker_spec(2));
  const auto a3 = run_experiment(multi_attacker_spec(3));
  const auto a4 = run_experiment(multi_attacker_spec(4));
  EXPECT_GT(a3.first_cycle_total_bits, a2.first_cycle_total_bits);
  EXPECT_GT(a4.first_cycle_total_bits, a3.first_cycle_total_bits);
  // Sub-linear growth: doubling attackers does not double the total.
  EXPECT_LT(a4.first_cycle_total_bits, 2.0 * a2.first_cycle_total_bits);
  // Same order of magnitude as the paper's 3515 / 4660 bits.
  EXPECT_GT(a3.first_cycle_total_bits, 2000.0);
  EXPECT_LT(a3.first_cycle_total_bits, 6000.0);
  EXPECT_GT(a4.first_cycle_total_bits, a3.first_cycle_total_bits + 500.0);
  EXPECT_LT(a4.first_cycle_total_bits, 8000.0);
}

TEST(Experiments, DefenseDisabledAttackPersists) {
  auto spec = table2_experiment(4);
  spec.defense_enabled = false;
  const auto res = run_experiment(spec);
  ASSERT_EQ(res.attackers.size(), 1u);
  EXPECT_EQ(res.attackers[0].busoff_count, 0u);
  EXPECT_EQ(res.counterattacks, 0u);
}

TEST(Experiments, RestBusScenariosDropNothing) {
  // One replay FIFO of depth 64 carries the whole matrix at the paper's
  // ~12 % load without a drop.  busy-bus is left out: it offers the wire
  // more than it can carry on purpose.
  std::size_t scenarios = 0;
  for (const auto& sc : ScenarioRegistry::built_in().all()) {
    if (sc.name == "busy-bus" || !sc.make().restbus) continue;
    ++scenarios;
    for (const std::uint64_t seed : {1u, 2u}) {
      auto spec = sc.make();
      spec.seed = seed;
      const auto res = run_experiment(spec);
      EXPECT_EQ(res.restbus_drops, 0u) << sc.name << " seed " << seed;
      EXPECT_FALSE(res.restbus_any_bus_off) << sc.name << " seed " << seed;
      EXPECT_GT(res.restbus_frames_delivered, 0u)
          << sc.name << " seed " << seed;
    }
  }
  EXPECT_GT(scenarios, 0u);
}

TEST(Experiments, TheoryTableIIIConstants) {
  EXPECT_DOUBLE_EQ(theory::isolated_total_bits(), 1248.0);
  EXPECT_DOUBLE_EQ(theory::t_active(0), 35.0);
  EXPECT_DOUBLE_EQ(theory::t_passive(0, 0), 43.0);
  EXPECT_DOUBLE_EQ(theory::t_active(2, 125.0), 285.0);
  EXPECT_DOUBLE_EQ(theory::restbus_total_bits({}, {}), 1248.0);
  // HP attacker with no interruptions: 560 + 16 * 43.
  EXPECT_DOUBLE_EQ(theory::exp5_hp_total_bits({}, 52.0), 1248.0);
  // 10 ms deadline at 500 kbit/s = 5000 bits (Sec. V-C).
  EXPECT_DOUBLE_EQ(theory::deadline_budget_bits(10.0, 500e3), 5000.0);
}

}  // namespace
}  // namespace mcan::analysis
