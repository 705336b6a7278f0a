// Tests for the scenario-level CPU model (Sec. V-D) including the
// measured-workload variant driven by real monitor statistics.
#include "core/cpu_model.hpp"

#include <gtest/gtest.h>

#include "can/bus.hpp"
#include "can/periodic.hpp"
#include "core/michican_node.hpp"
#include "restbus/replay.hpp"
#include "restbus/vehicles.hpp"

namespace mcan::core {
namespace {

IvnConfig veh_d() {
  return IvnConfig{restbus::vehicle_matrix(restbus::Vehicle::D, 1).ecu_ids()};
}

TEST(CpuModel, MeanDecisionDepthOverIds) {
  IdRangeSet d;
  d.add(0x400, 0x7FF);
  const auto fsm = DetectionFsm::build(d);
  // Every ID decides after exactly one bit.
  EXPECT_EQ(fsm.decided_at(false)[1] + fsm.decided_at(true)[1], 2048u);
  EXPECT_DOUBLE_EQ(mean_decision_depth(fsm, {0x000, 0x700}), 1.0);
  EXPECT_DOUBLE_EQ(mean_decision_depth(fsm, {}), 0.0);
}

TEST(CpuModel, EstimateTracksScenario) {
  const auto ivn = veh_d();
  const auto due = mcu::arduino_due();
  const auto full = estimate_cpu(ivn, ivn.highest(), Scenario::Full, due,
                                 125e3);
  const auto light = estimate_cpu(ivn, ivn.highest(), Scenario::Light, due,
                                  125e3);
  EXPECT_GT(full.fsm_nodes, light.fsm_nodes);
  EXPECT_GT(full.load.active_load, light.load.active_load);
  EXPECT_GT(full.load.combined_load, 0.0);
}

TEST(CpuModel, MeasuredWorkloadMatchesAnalyticModel) {
  // Run a real simulation with restbus traffic, then compute the CPU load
  // from the monitor's per-path counters and compare against the analytic
  // estimate: they must agree within a few points.
  can::WiredAndBus bus{sim::BusSpeed{125'000}};
  const auto matrix = restbus::vehicle_matrix(restbus::Vehicle::D, 1);
  const IvnConfig ivn{matrix.ecu_ids()};
  MichiCanNodeConfig cfg;
  cfg.own_id = ivn.highest();
  MichiCanNode def{"defender", ivn, cfg};
  def.attach_to(bus);
  can::BitController rb{"restbus"};
  restbus::attach_matrix_replay(
      rb, matrix.without(cfg.own_id).scaled_to_load(125e3, 0.4), bus.speed());
  rb.attach_to(bus);
  bus.run_for(sim::Millis{2000.0});

  const auto due = mcu::arduino_due();
  const auto measured = measured_cpu(def.monitor().stats(),
                                     def.fsm().node_count(), due, 125e3);
  const auto analytic = estimate_cpu(ivn, cfg.own_id, Scenario::Full, due,
                                     125e3, /*busy_fraction=*/0.4);
  EXPECT_GT(measured.active_load, 0.2);
  EXPECT_NEAR(measured.active_load, analytic.load.active_load, 0.08);
  EXPECT_NEAR(measured.combined_load, analytic.load.combined_load, 0.10);
  EXPECT_LT(measured.idle_load, measured.active_load);
}

TEST(CpuModel, MeasuredLoadZeroWithoutTraffic) {
  MonitorStats idle;
  idle.idle_bits = 1000;
  const auto load =
      measured_cpu(idle, 100, mcu::arduino_due(), 125e3);
  EXPECT_EQ(load.active_load, 0.0);
  EXPECT_GT(load.idle_load, 0.0);
  EXPECT_NEAR(load.combined_load, load.idle_load, 1e-12);
}

}  // namespace
}  // namespace mcan::core
