// The physical-layer fault injector: schedule determinism, §10.11 fault
// confinement under stuck-at windows, the sample-skew tolerance boundary,
// and the BER=0 no-op guarantee the fault-sweep campaign rests on.
#include "can/fault_injector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/frame.hpp"
#include "runner/fault_sweep.hpp"
#include "runner/report.hpp"
#include "sim/rng.hpp"

namespace mcan::can {
namespace {

using sim::BitLevel;
using sim::BitTime;
using sim::EventKind;

struct FaultyBus {
  WiredAndBus bus{sim::BusSpeed{500'000}};
  BitController tx{"tx"};
  BitController rx{"rx"};
  std::size_t received{0};

  FaultyBus() {
    tx.attach_to(bus);
    rx.attach_to(bus);
    rx.set_rx_callback([this](const CanFrame&, BitTime) { ++received; });
  }
};

std::vector<BitTime> fault_times(const sim::EventLog& log) {
  std::vector<BitTime> at;
  for (const auto& e : log.events()) {
    if (e.kind == EventKind::FaultInjected) at.push_back(e.at);
  }
  return at;
}

TEST(FaultKindNames, DistinctAndNonEmpty) {
  const FaultKind kinds[] = {FaultKind::RandomFlip, FaultKind::ScheduledFlip,
                             FaultKind::StuckBus, FaultKind::SampleSlip};
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    EXPECT_FALSE(to_string(kinds[i]).empty());
    for (std::size_t j = i + 1; j < std::size(kinds); ++j) {
      EXPECT_NE(to_string(kinds[i]), to_string(kinds[j]));
    }
  }
}

TEST(RngGeometric, MatchesRateAndIsDeterministic) {
  sim::Rng a{77};
  sim::Rng b{77};
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const auto gap = a.geometric(0.01);
    EXPECT_EQ(gap, b.geometric(0.01));
    sum += static_cast<double>(gap);
  }
  // Mean gap of Geometric(p) is (1-p)/p ~ 99.
  EXPECT_GT(sum / 10'000, 80.0);
  EXPECT_LT(sum / 10'000, 120.0);
  EXPECT_EQ(sim::Rng{1}.geometric(1.0), 0u);
}

TEST(FaultInjector, RandomFlipScheduleIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    FaultyBus env;
    FaultSpec fs;
    fs.bit_error_rate = 0.005;
    fs.seed = seed;
    FaultInjector inj{fs, 0};
    env.bus.set_fault_injector(&inj);
    env.bus.run(20'000);
    return fault_times(env.bus.log());
  };
  const auto first = run(123);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run(123));
  EXPECT_NE(first, run(456));
}

TEST(FaultInjector, RandomFlipRateMatchesBer) {
  FaultyBus env;
  FaultSpec fs;
  fs.bit_error_rate = 1e-3;
  fs.seed = 9;
  FaultInjector inj{fs, 0};
  env.bus.set_fault_injector(&inj);
  env.bus.run(100'000);
  // Binomial(100k, 1e-3): mean 100, sigma ~10.
  EXPECT_GT(inj.stats().random_flips, 60u);
  EXPECT_LT(inj.stats().random_flips, 140u);
  EXPECT_EQ(inj.stats().random_flips,
            env.bus.log().count(EventKind::FaultInjected));
}

TEST(FaultInjector, ScheduledFlipDestroysTargetedFrame) {
  FaultyBus env;
  FaultSpec fs;
  // ID 0x555 alternates and DLC 8 follows with no stuff bit before the
  // data field, so the raw wire position is exact: data bit 2.
  fs.flips.push_back({0, Field::Data, 2});
  FaultInjector inj{fs, 0};
  env.bus.set_fault_injector(&inj);
  env.tx.enqueue(CanFrame::make(0x555, {0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA,
                                        0xAA, 0xAA}));
  env.bus.run(400);

  EXPECT_EQ(inj.stats().scheduled_flips, 1u);
  // The transmitter read back a level it did not send: bit error, TEC += 8,
  // then the automatic retransmission succeeds and decrements it again.
  EXPECT_GE(env.bus.log().count(EventKind::TxError, "tx"), 1u);
  EXPECT_EQ(env.tx.tec(), 7);
  EXPECT_EQ(env.received, 1u);
  EXPECT_EQ(env.tx.stats().frames_sent, 1u);
}

TEST(FaultInjector, DominantIdBitReadRecessiveIsABitError) {
  // A flip that makes the lone transmitter read its dominant ID bit back
  // recessive is a bit error (ISO 11898-1): the arbitration exception only
  // covers a recessive bit overwritten dominant, so nobody lost
  // arbitration and the transmitter pays TEC +8.
  FaultyBus env;
  FaultSpec fs;
  // ID 0x455 opens 1,0,0,0: the flip lands inside that dominant run, and
  // no stuff bit precedes it.
  fs.flips.push_back({0, Field::Id, 1});
  FaultInjector inj{fs, 0};
  env.bus.set_fault_injector(&inj);
  env.tx.enqueue(CanFrame::make(0x455, {0xAA}));
  env.bus.run(400);

  EXPECT_EQ(inj.stats().scheduled_flips, 1u);
  EXPECT_EQ(env.bus.log().count(EventKind::ArbitrationLost), 0u);
  EXPECT_EQ(env.tx.stats().arbitration_losses, 0u);
  const sim::Event* error = env.bus.log().first(EventKind::TxError, 0, "tx");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->a, static_cast<std::int64_t>(ErrorType::Bit));
  EXPECT_EQ(error->b, 0);  // TEC when the error was seen
  EXPECT_EQ(env.bus.log().count(EventKind::TxError, "tx"), 1u);
  // +8 for the bit error, -1 for the retransmission that then succeeds.
  EXPECT_EQ(env.tx.tec(), 7);
  EXPECT_EQ(env.received, 1u);
}

TEST(FaultInjector, StuckDominantChargesTransmitterPerIso10111) {
  FaultyBus env;
  FaultSpec fs;
  fs.stuck.push_back({40, 20, BitLevel::Dominant});
  FaultInjector inj{fs, 0};
  env.bus.set_fault_injector(&inj);
  env.tx.enqueue(CanFrame::make(0x555, {0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA,
                                        0xAA, 0xAA}));
  env.bus.run(600);

  EXPECT_EQ(inj.stats().stuck_bits, 20u);
  // One log entry per window, not per bit.
  std::size_t stuck_events = 0;
  for (const auto& e : env.bus.log().events()) {
    if (e.kind == EventKind::FaultInjected &&
        e.a == static_cast<std::int64_t>(FaultKind::StuckBus)) {
      ++stuck_events;
    }
  }
  EXPECT_EQ(stuck_events, 1u);
  // Mid-frame dominant takeover: bit error (+8), possibly further +8 steps
  // for runs of dominant after the error flag; the retransmission after the
  // window succeeds (-1).  Whatever the path, TEC ends at 8k - 1 > 0.
  EXPECT_GE(env.bus.log().count(EventKind::TxError, "tx"), 1u);
  EXPECT_GT(env.tx.tec(), 0);
  EXPECT_EQ((env.tx.tec() + 1) % 8, 0);
  EXPECT_EQ(env.received, 1u);
}

TEST(FaultInjector, StuckRecessiveSeversBusThenRecovers) {
  FaultyBus env;
  FaultSpec fs;
  fs.stuck.push_back({40, 20, BitLevel::Recessive});
  FaultInjector inj{fs, 0};
  env.bus.set_fault_injector(&inj);
  env.tx.enqueue(CanFrame::make(0x555, {0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA,
                                        0xAA, 0xAA}));
  env.bus.run(600);

  EXPECT_EQ(inj.stats().stuck_bits, 20u);
  // The transmitter's dominant bits never reach the bus: bit error, error
  // signalling is equally suppressed while the window lasts, and after it
  // ends the retransmission still delivers the frame.
  EXPECT_GE(env.bus.log().count(EventKind::TxError, "tx"), 1u);
  EXPECT_GT(env.tx.tec(), 0);
  EXPECT_EQ(env.received, 1u);
}

TEST(FaultInjector, SkewWithinResyncLimitCausesNoErrors) {
  FaultyBus env;
  FaultSpec fs;
  // CAN's tolerance condition: the drift accumulated over the 10 bits
  // between worst-case edges must stay inside the SJW.  0.01 * 10 <= 0.125.
  fs.skews.push_back({"rx", 0.01, 0.125});
  FaultInjector inj{fs, 0};
  env.bus.set_fault_injector(&inj);
  for (int i = 0; i < 5; ++i) {
    env.tx.enqueue(CanFrame::make(0x555, {0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA,
                                          0xAA, 0xAA}));
  }
  env.bus.run(1'000);

  EXPECT_EQ(inj.stats().sample_slips, 0u);
  EXPECT_EQ(env.received, 5u);
  EXPECT_EQ(env.rx.rec(), 0);
  EXPECT_EQ(env.tx.tec(), 0);
}

TEST(FaultInjector, SkewBeyondResyncLimitMisSamples) {
  FaultyBus env;
  FaultSpec fs;
  // 0.04/bit drift against a 0.01 SJW: resynchronization cannot keep up,
  // the phase error crosses half a bit mid-frame and the node starts
  // reading its neighbour's bit.
  fs.skews.push_back({"rx", 0.04, 0.01});
  FaultInjector inj{fs, 0};
  env.bus.set_fault_injector(&inj);
  for (int i = 0; i < 5; ++i) {
    env.tx.enqueue(CanFrame::make(0x555, {0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA,
                                          0xAA, 0xAA}));
  }
  env.bus.run(1'000);

  EXPECT_GT(inj.stats().sample_slips, 0u);
  bool slip_logged = false;
  for (const auto& e : env.bus.log().events()) {
    if (e.kind == EventKind::FaultInjected &&
        e.a == static_cast<std::int64_t>(FaultKind::SampleSlip)) {
      slip_logged = true;
      EXPECT_EQ(e.node, "rx");
    }
  }
  EXPECT_TRUE(slip_logged);
  // Mis-sampling an alternating bit pattern is never silent.
  EXPECT_GT(env.rx.rec(), 0);
}

TEST(FaultInjector, SkewOnlyAffectsTheNamedNode) {
  FaultyBus env;
  BitController other{"other"};
  other.attach_to(env.bus);
  FaultSpec fs;
  fs.skews.push_back({"rx", 0.04, 0.01});
  FaultInjector inj{fs, 0};
  env.bus.set_fault_injector(&inj);
  env.tx.enqueue(CanFrame::make(0x555, {0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA,
                                        0xAA, 0xAA}));
  env.bus.run(600);
  // Only the skewed node ever mis-samples.  (Its error *flags* still
  // disturb the other receivers — error signalling is global on CAN — but
  // every SampleSlip event must carry the skewed node's name.)
  EXPECT_GT(inj.stats().sample_slips, 0u);
  for (const auto& e : env.bus.log().events()) {
    if (e.kind == EventKind::FaultInjected &&
        e.a == static_cast<std::int64_t>(FaultKind::SampleSlip)) {
      EXPECT_EQ(e.node, "rx");
    }
  }
}

TEST(FaultVariant, BerZeroLeavesSpecUntouched) {
  const auto base = analysis::table2_experiment(2);
  const auto same = analysis::fault_variant(base, 0.0);
  EXPECT_EQ(same.label, base.label);
  EXPECT_EQ(same.fault.bit_error_rate, 0.0);
  EXPECT_FALSE(same.fault.any());
  const auto noisy = analysis::fault_variant(base, 1e-4);
  EXPECT_EQ(noisy.fault.bit_error_rate, 1e-4);
  EXPECT_NE(noisy.label, base.label);
}

/// The fault-sweep cells: spoofing, DoS and the error-frame stomper.
std::vector<analysis::ExperimentSpec> sweep_cells() {
  return {analysis::table2_experiment(2), analysis::table2_experiment(4),
          analysis::error_frame_experiment()};
}

TEST(FaultSweep, BerZeroSweepMatchesCleanCampaignByteForByte) {
  for (auto spec : sweep_cells()) {
    SCOPED_TRACE(spec.label);
    spec.duration = sim::Millis{200.0};

    runner::FaultSweepConfig sweep;
    sweep.base_specs = {spec};
    sweep.bers = {0.0};
    sweep.seeds = {0, 2};
    sweep.jobs = 1;

    runner::CampaignConfig plain;
    plain.specs = {spec};
    plain.seeds = {0, 2};
    plain.jobs = 1;

    const auto swept = runner::run_fault_sweep(sweep);
    EXPECT_EQ(runner::to_json(swept.campaign),
              runner::to_json(runner::run_campaign(plain)));
    ASSERT_EQ(swept.rows.size(), 1u);
    EXPECT_EQ(swept.rows[0].faults.total(), 0u);
  }
}

TEST(FaultSweep, ErrorFrameStomperIsInvisibleToTheMonitor) {
  auto spec = analysis::error_frame_experiment();
  spec.duration = sim::Millis{500.0};
  const auto res = analysis::run_experiment(spec);
  // The stomper destroys the defender's frames from below the data-link
  // layer: plenty of stomps, no attack frame for the arbitration monitor
  // to classify, and the victim confines *itself* per §10.11.
  EXPECT_GT(res.error_frame_stomps, 0u);
  EXPECT_EQ(res.attacks_detected, 0u);
  EXPECT_TRUE(res.defender_bus_off);
}

}  // namespace
}  // namespace mcan::can
