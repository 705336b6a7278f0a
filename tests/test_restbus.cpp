// Tests for the restbus substrate: communication matrices, the synthetic
// vehicle set, analytic bus load (Sec. V-E) and traffic replay (Sec. V-A).
#include <gtest/gtest.h>

#include <map>

#include "can/bus.hpp"
#include "restbus/comm_matrix.hpp"
#include "restbus/replay.hpp"
#include "restbus/vehicles.hpp"

namespace mcan::restbus {
namespace {

TEST(CommMatrix, AvgFrameBitsMatchesPaperForDlc8) {
  // Paper Sec. V-C: an average CAN frame is ~125 bits including stuffing.
  EXPECT_NEAR(avg_frame_bits(8), 125.0, 4.0);
  EXPECT_LT(avg_frame_bits(0), avg_frame_bits(8));
}

TEST(CommMatrix, BusLoadFormula) {
  // One 8-byte message every 10 ms at 500 kbit/s:
  // b = 125 bits / (500000 * 0.010) = 2.5 %.
  CommMatrix m{"t", {{0x100, 10.0, 8, "m", "ecu"}}};
  EXPECT_NEAR(m.bus_load(500e3), avg_frame_bits(8) / 5000.0, 1e-9);
}

TEST(CommMatrix, ScaledToLoadHitsTarget) {
  auto m = vehicle_matrix(Vehicle::D, 1);
  const auto scaled = m.scaled_to_load(50e3, 0.12);
  EXPECT_NEAR(scaled.bus_load(50e3), 0.12, 1e-6);
  // Relative periods preserved.
  const auto& a = m.messages()[0];
  const auto& b = m.messages()[1];
  const auto& a2 = scaled.messages()[0];
  const auto& b2 = scaled.messages()[1];
  EXPECT_NEAR(a.period_ms / b.period_ms, a2.period_ms / b2.period_ms, 1e-9);
}

TEST(CommMatrix, WithoutRemovesExactlyOneId) {
  auto m = vehicle_matrix(Vehicle::D, 1);
  ASSERT_TRUE(m.has_id(0x173));
  const auto filtered = m.without(0x173);
  EXPECT_FALSE(filtered.has_id(0x173));
  EXPECT_EQ(filtered.size(), m.size() - 1);
}

TEST(CommMatrix, ValidateCatchesDuplicates) {
  CommMatrix dup{"t",
                 {{0x100, 10, 8, "a", "e1"}, {0x100, 20, 8, "b", "e2"}}};
  EXPECT_NE(dup.validate().find("duplicate"), std::string::npos);
}

TEST(CommMatrix, ValidateCatchesBadFields) {
  EXPECT_NE(CommMatrix("t", {{0x100, -5, 8, "a", "e"}}).validate(), "");
  EXPECT_NE(CommMatrix("t", {{0x100, 10, 9, "a", "e"}}).validate(), "");
  EXPECT_NE(CommMatrix("t", {{0x100, 10, 8, "a", ""}}).validate(), "");
  EXPECT_EQ(CommMatrix("t", {{0x100, 10, 8, "a", "e"}}).validate(), "");
}

TEST(Vehicles, AllEightMatricesAreValid) {
  const auto all = all_vehicle_matrices();
  ASSERT_EQ(all.size(), 8u);
  for (const auto& m : all) {
    EXPECT_EQ(m.validate(), "") << m.bus_name();
    EXPECT_GE(m.size(), 20u) << m.bus_name();
  }
}

TEST(Vehicles, GenerationIsDeterministic) {
  const auto a = vehicle_matrix(Vehicle::B, 1);
  const auto b = vehicle_matrix(Vehicle::B, 1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.messages()[i].id, b.messages()[i].id);
    EXPECT_EQ(a.messages()[i].period_ms, b.messages()[i].period_ms);
  }
}

TEST(Vehicles, VehDBus1CarriesTheDefendersId) {
  EXPECT_TRUE(vehicle_matrix(Vehicle::D, 1).has_id(0x173));
}

TEST(Vehicles, AttackIdsAreReserved) {
  // The Table II attack IDs must not be legitimate anywhere, or the DoS
  // experiments would misclassify.
  for (const auto& m : all_vehicle_matrices()) {
    for (const int id : {0x000, 0x050, 0x051, 0x064, 0x066, 0x067, 0x25F}) {
      EXPECT_FALSE(m.has_id(static_cast<can::CanId>(id)))
          << m.bus_name() << " id " << id;
    }
  }
}

TEST(Vehicles, PowertrainHasTightDeadlines) {
  // Sec. V-C: the tightest periodic deadline observed is 10 ms.
  EXPECT_EQ(vehicle_matrix(Vehicle::D, 1).min_deadline_ms(), 10.0);
}

TEST(Vehicles, LoadsAreRealistic) {
  for (const auto& m : all_vehicle_matrices()) {
    const double load = m.bus_load(500e3);
    EXPECT_GT(load, 0.01) << m.bus_name();
    EXPECT_LT(load, 0.50) << m.bus_name();  // below the 80 % bound
  }
}

TEST(RestbusSim, OneControllerDeliversEveryIdAtItsPeriod) {
  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  const auto m = vehicle_matrix(Vehicle::A, 1);
  can::BitController replay{"restbus"};
  attach_matrix_replay(replay, m, bus.speed());
  replay.attach_to(bus);
  can::BitController receiver{"ack"};
  receiver.attach_to(bus);
  std::map<can::CanId, int> delivered;
  receiver.set_rx_callback(
      [&](const can::CanFrame& f, sim::BitTime) { ++delivered[f.id]; });
  const double run_ms = 2000.0;
  bus.run_for(sim::Millis{run_ms});
  EXPECT_EQ(delivered.size(), m.size());
  for (const auto& msg : m.messages()) {
    EXPECT_NEAR(delivered[msg.id], run_ms / msg.period_ms, 1.0)
        << "id 0x" << std::hex << msg.id;
  }
  EXPECT_EQ(replay.stats().dropped_frames, 0u);
}

TEST(RestbusSim, MeasuredLoadTracksAnalyticLoad) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  const auto m = vehicle_matrix(Vehicle::D, 1).scaled_to_load(50e3, 0.20);
  can::BitController replay{"restbus"};
  attach_matrix_replay(replay, m, bus.speed());
  replay.attach_to(bus);
  // One replay controller cannot acknowledge its own frames.
  can::BitController receiver{"ack"};
  receiver.attach_to(bus);
  bus.run_for(sim::Millis{2000.0});
  const double measured = bus.trace().busy_fraction(0, bus.now());
  EXPECT_NEAR(measured, 0.20, 0.06);
  EXPECT_FALSE(replay.is_bus_off());
  EXPECT_EQ(replay.stats().bus_off_entries, 0u);
  EXPECT_EQ(replay.stats().tx_errors, 0u);
}

TEST(RestbusSim, DeliversFramesLossFree) {
  can::WiredAndBus bus{sim::BusSpeed{500'000}};
  const auto m = vehicle_matrix(Vehicle::C, 2);
  can::BitController replay{"restbus"};
  attach_matrix_replay(replay, m, bus.speed());
  replay.attach_to(bus);
  can::BitController observer{"obs"};
  observer.attach_to(bus);
  std::uint64_t delivered = 0;
  observer.set_rx_callback(
      [&](const can::CanFrame&, sim::BitTime) { ++delivered; });
  bus.run_for(sim::Millis{500.0});
  EXPECT_EQ(delivered, replay.stats().frames_sent);
  EXPECT_EQ(replay.stats().dropped_frames, 0u);
}

}  // namespace
}  // namespace mcan::restbus
