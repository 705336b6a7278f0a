// Reproducibility guarantees: identical seeds must give bit-identical
// simulations — the property that makes every number in EXPERIMENTS.md
// regenerable (DESIGN.md §4.6).
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "analysis/latency.hpp"
#include "restbus/replay.hpp"
#include "restbus/vehicles.hpp"

namespace mcan {
namespace {

TEST(Determinism, ExperimentIsBitIdenticalForSameSeed) {
  auto spec = analysis::table2_experiment(3);
  spec.duration = sim::Millis{500};
  spec.seed = 1234;
  const auto a = analysis::run_experiment(spec);
  const auto b = analysis::run_experiment(spec);
  ASSERT_EQ(a.attackers.size(), b.attackers.size());
  EXPECT_EQ(a.attackers[0].busoff_count, b.attackers[0].busoff_count);
  EXPECT_DOUBLE_EQ(a.attackers[0].busoff_bits.mean,
                   b.attackers[0].busoff_bits.mean);
  EXPECT_DOUBLE_EQ(a.attackers[0].busoff_bits.stddev,
                   b.attackers[0].busoff_bits.stddev);
  EXPECT_EQ(a.counterattacks, b.counterattacks);
  EXPECT_DOUBLE_EQ(a.busy_fraction, b.busy_fraction);
  EXPECT_EQ(a.restbus_frames_delivered, b.restbus_frames_delivered);
}

TEST(Determinism, DifferentSeedsDiverge) {
  auto spec = analysis::table2_experiment(3);
  spec.duration = sim::Millis{500};
  spec.seed = 1;
  const auto a = analysis::run_experiment(spec);
  spec.seed = 2;
  const auto b = analysis::run_experiment(spec);
  // Same physics, different phases/payloads: the traces must differ
  // somewhere observable.
  EXPECT_NE(a.busy_fraction, b.busy_fraction);
}

TEST(Determinism, LatencyStudyIsReproducible) {
  analysis::LatencyStudyConfig cfg;
  cfg.num_fsms = 500;
  cfg.verify_fsms = 0;
  const auto a = analysis::run_latency_study(cfg);
  const auto b = analysis::run_latency_study(cfg);
  EXPECT_DOUBLE_EQ(a.mean_detection_bit, b.mean_detection_bit);
  EXPECT_DOUBLE_EQ(a.mean_fsm_nodes, b.mean_fsm_nodes);
}

TEST(Determinism, LatencyStudyMatchesPinnedValues) {
  // Every field of a 1,000-FSM Sec. V-B study on the default seed, pinned
  // to the last bit (hex floats, exact EXPECT_EQ): a change to the ID
  // draws, the detection ranges or the FSM shape moves at least one.
  analysis::LatencyStudyConfig cfg;
  cfg.num_fsms = 1000;
  cfg.verify_fsms = 1000;
  const auto r = analysis::run_latency_study(cfg);
  EXPECT_EQ(r.fsms_built, 1000u);
  EXPECT_EQ(r.mean_detection_bit, 0x1.2090f71626cc5p+3);
  EXPECT_EQ(r.mean_benign_bit, 0x1.0b212e7055b34p+2);
  EXPECT_EQ(r.per_fsm_mean.count, 1000u);
  EXPECT_EQ(r.per_fsm_mean.mean, 0x1.2090f71626cc5p+3);
  EXPECT_EQ(r.per_fsm_mean.stddev, 0x1.76e76760aa42ap-1);
  EXPECT_EQ(r.per_fsm_mean.min, 0x1.8d9364d9364d9p+2);
  EXPECT_EQ(r.per_fsm_mean.max, 0x1.6p+3);
  EXPECT_EQ(r.detection_rate, 0x1p+0);
  EXPECT_EQ(r.false_positive_rate, 0x0p+0);
  EXPECT_EQ(r.mean_fsm_nodes, 0x1.d48147ae147aep+8);
  EXPECT_EQ(r.max_depth_seen, 11);
}

TEST(Determinism, RestbusReplayIsReproducible) {
  auto run = [] {
    can::WiredAndBus bus{sim::BusSpeed{125'000}};
    can::BitController replay{"restbus"};
    restbus::attach_matrix_replay(
        replay, restbus::vehicle_matrix(restbus::Vehicle::A, 1), bus.speed());
    replay.attach_to(bus);
    can::BitController receiver{"ack"};  // acknowledges the replayed frames
    receiver.attach_to(bus);
    bus.run_for(sim::Millis{300.0});
    return std::pair{replay.stats().frames_sent,
                     bus.trace().dominant_count(0, bus.now())};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);  // bit-identical wire trace
}

}  // namespace
}  // namespace mcan
