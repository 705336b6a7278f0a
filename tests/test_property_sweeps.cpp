// Parameterized property sweeps (TEST_P) over the defense pipeline:
// every attack configuration in the sweep must end in attacker bus-off
// within the theoretical bit budget, at any bus speed, for any DLC.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "analysis/busoff_meter.hpp"
#include "analysis/theory.hpp"
#include "attack/attacker.hpp"
#include "can/bus.hpp"
#include "core/michican_node.hpp"
#include "restbus/vehicles.hpp"

namespace mcan {
namespace {

using attack::Attacker;

core::IvnConfig test_ivn() {
  return core::IvnConfig{
      restbus::vehicle_matrix(restbus::Vehicle::D, 1).ecu_ids()};
}

struct DefenseRun {
  bool bus_off{};
  double busoff_bits{};
  int defender_tec{};
  std::uint64_t counterattacks{};
};

DefenseRun run_defense(attack::AttackerConfig acfg,
                       sim::BusSpeed speed = sim::BusSpeed{50'000}) {
  can::WiredAndBus bus{speed};
  const auto ivn = test_ivn();
  core::MichiCanNodeConfig cfg;
  cfg.own_id = 0x173;
  core::MichiCanNode def{"defender", ivn, cfg};
  def.attach_to(bus);
  acfg.persistent = false;
  Attacker atk{"attacker", acfg};
  atk.attach_to(bus);
  bus.run(6000);

  DefenseRun out;
  out.bus_off = atk.node().is_bus_off();
  const auto bits = analysis::busoff_durations_bits(bus.log(), "attacker");
  if (!bits.empty()) out.busoff_bits = bits.front();
  out.defender_tec = def.controller().tec();
  out.counterattacks = def.monitor().stats().counterattacks;
  return out;
}

// --- sweep 1: attacker ID ---------------------------------------------------

class DosIdSweep : public ::testing::TestWithParam<int> {};

TEST_P(DosIdSweep, AttackerAlwaysBusedOffWithinBudget) {
  const auto id = static_cast<can::CanId>(GetParam());
  const auto ivn = test_ivn();
  // Only sweep IDs the defender can actually judge malicious.
  ASSERT_TRUE(ivn.detection_ranges(0x173).contains(id));

  const auto r = run_defense(Attacker::targeted_dos(id));
  EXPECT_TRUE(r.bus_off) << "id=" << id;
  EXPECT_EQ(r.defender_tec, 0);
  EXPECT_GE(r.counterattacks, 32u);
  // Theoretical corridor: best case 1088 bits, worst case 1248, plus
  // receiver error-flag extension of a few bits per retransmission.
  EXPECT_GE(r.busoff_bits, 1088.0 - 32.0) << "id=" << id;
  EXPECT_LE(r.busoff_bits, 1248.0 + 32.0 * 8.0) << "id=" << id;
}

INSTANTIATE_TEST_SUITE_P(
    AcrossIdPatterns, DosIdSweep,
    ::testing::Values(0x000,  // all dominant: maximum stuffing
                      0x001, 0x002, 0x050, 0x051, 0x064, 0x066, 0x067,
                      0x0AA,  // alternating bits
                      0x055, 0x0FF, 0x100, 0x111, 0x145, 0x16A,
                      0x172, 0x173),  // spoofing of the defender itself
    [](const ::testing::TestParamInfo<int>& p) {
      return "Id0x" + [](int v) {
        std::string s;
        const char* digits = "0123456789ABCDEF";
        for (int shift = 8; shift >= 0; shift -= 4) {
          s.push_back(digits[(v >> shift) & 0xF]);
        }
        return s;
      }(p.param);
    });

// --- sweep 2: payload length -------------------------------------------------

class DlcSweep : public ::testing::TestWithParam<int> {};

TEST_P(DlcSweep, AnyDlcIsDefeated) {
  auto acfg = Attacker::targeted_dos(0x064);
  acfg.dlc = static_cast<std::uint8_t>(GetParam());
  const auto r = run_defense(acfg);
  EXPECT_TRUE(r.bus_off) << "dlc=" << GetParam();
  EXPECT_EQ(r.defender_tec, 0);
}

INSTANTIATE_TEST_SUITE_P(AllDlcValues, DlcSweep, ::testing::Range(0, 9));

// --- sweep 3: bus speed -------------------------------------------------------

class SpeedSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SpeedSweep, BusOffBitCountIsSpeedInvariant) {
  const sim::BusSpeed speed{GetParam()};
  const auto r = run_defense(Attacker::targeted_dos(0x064), speed);
  EXPECT_TRUE(r.bus_off) << "speed=" << GetParam();
  // The protocol dynamics are defined in bits: the cycle length must not
  // depend on the bus speed (paper Sec. V-C works in bits for this reason).
  EXPECT_NEAR(r.busoff_bits, 1230.0, 60.0) << "speed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperSpeeds, SpeedSweep,
                         ::testing::Values(50'000u, 125'000u, 250'000u,
                                           500'000u, 1'000'000u));

// --- sweep 4: remote frames ---------------------------------------------------

TEST(RtrAttack, RemoteFrameSpoofIsNeutralized) {
  // An RTR spoof of the defender's ID: the counterattack window still
  // destroys it (the attacker loses arbitration on the forced RTR bit or
  // errs in the control field) and the attack never completes.
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  const auto ivn = test_ivn();
  core::MichiCanNodeConfig cfg;
  cfg.own_id = 0x173;
  core::MichiCanNode def{"defender", ivn, cfg};
  def.attach_to(bus);

  can::BitController atk{"attacker"};
  atk.attach_to(bus);
  int accepted = 0;
  def.controller().set_rx_callback(
      [&](const can::CanFrame& f, sim::BitTime) {
        if (f.id == 0x173) ++accepted;
      });
  for (int i = 0; i < 20; ++i) {
    atk.enqueue(can::CanFrame::make_remote(0x173, 8));
  }
  bus.run(20'000);
  EXPECT_EQ(accepted, 0);  // no spoofed remote frame ever completes
  EXPECT_EQ(def.controller().tec(), 0);
}

// --- sweep 5: scenario x attack class ----------------------------------------

// gtest prints a parameter that has no operator<< as a byte dump, and
// that dump is part of the test name ctest discovers. Implicit padding
// would put stack garbage into the name, so the padding is spelled out
// and zeroed; the static_assert proves no implicit padding is left.
struct ScenarioCase {
  core::Scenario scenario;
  std::uint8_t pad0[3]{};
  int attacker_id;
  bool expect_busoff;
  std::uint8_t pad1[3]{};
};
static_assert(std::has_unique_object_representations_v<ScenarioCase>);

class ScenarioSweep : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(ScenarioSweep, MatchesDeploymentSemantics) {
  const auto& c = GetParam();
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  const auto ivn = test_ivn();
  core::MichiCanNodeConfig cfg;
  cfg.own_id = 0x173;
  cfg.scenario = c.scenario;
  core::MichiCanNode def{"defender", ivn, cfg};
  def.attach_to(bus);
  auto acfg = Attacker::targeted_dos(static_cast<can::CanId>(c.attacker_id));
  acfg.persistent = false;
  Attacker atk{"attacker", acfg};
  atk.attach_to(bus);
  bus.run(6000);
  EXPECT_EQ(atk.node().is_bus_off(), c.expect_busoff);
}

INSTANTIATE_TEST_SUITE_P(
    FullVsLight, ScenarioSweep,
    ::testing::Values(
        // DoS caught
        ScenarioCase{.scenario = core::Scenario::Full,
                     .attacker_id = 0x064,
                     .expect_busoff = true},
        // spoof caught
        ScenarioCase{.scenario = core::Scenario::Full,
                     .attacker_id = 0x173,
                     .expect_busoff = true},
        // light skips DoS
        ScenarioCase{.scenario = core::Scenario::Light,
                     .attacker_id = 0x064,
                     .expect_busoff = false},
        // own ID guarded
        ScenarioCase{.scenario = core::Scenario::Light,
                     .attacker_id = 0x173,
                     .expect_busoff = true}),
    [](const ::testing::TestParamInfo<ScenarioCase>& p) {
      return std::string(p.param.scenario == core::Scenario::Full ? "Full"
                                                                  : "Light") +
             "_0x" + std::to_string(p.param.attacker_id);
    });

}  // namespace
}  // namespace mcan
