// Unit tests for the conformance layer: the independent ISO 11898-1 oracle,
// the frame-level predictors, the case generator, the differential runner
// and the shrinker.
#include "conformance/oracle.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "can/bitstream.hpp"
#include "conformance/differ.hpp"
#include "conformance/fuzz_case.hpp"
#include "conformance/generator.hpp"
#include "conformance/shrinker.hpp"

namespace mcan::conformance {
namespace {

using can::CanFrame;

// ---------------------------------------------------------------------------
// Oracle codec

TEST(Oracle, EncodeDecodeRoundTrip) {
  const std::vector<CanFrame> frames = {
      CanFrame::make(0x123, {0xDE, 0xAD, 0xBE, 0xEF}),
      CanFrame::make(0x000, {0x00, 0x00}),  // stuff-heavy dominant runs
      CanFrame::make(0x7FF, {0xFF, 0xFF}),  // stuff-heavy recessive runs
      CanFrame::make_remote(0x3A5, 4),
      CanFrame::make_ext(0x1ABCDE5, {1, 2, 3, 4, 5, 6, 7, 8}),
      CanFrame::make_ext(0x0000000, {}),
  };
  for (const auto& f : frames) {
    SCOPED_TRACE(f.to_string());
    const auto wire = oracle_wire_bits(f);
    const auto dec = oracle_decode(wire);
    ASSERT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.frame, f);
    EXPECT_EQ(dec.frame.extended, f.extended);
    EXPECT_TRUE(dec.ack_seen);
    EXPECT_EQ(dec.wire_bits_consumed, static_cast<int>(wire.size()));
    EXPECT_EQ(dec.stuff_bits, oracle_stuff_bit_count(f));
  }
}

TEST(Oracle, DecodeRejectsCorruptedCrc) {
  const auto f = CanFrame::make(0x155, {0xCA, 0xFE});
  auto wire = oracle_wire_bits(f);
  // Flip one payload bit; either the CRC check or (rarely) a framing rule
  // must reject the window — it can never decode ok to the original frame.
  wire[25] ^= 1;
  const auto dec = oracle_decode(wire);
  if (dec.ok) {
    EXPECT_FALSE(dec.frame == f);
  } else {
    EXPECT_FALSE(dec.error.empty());
  }
}

TEST(Oracle, AgreesWithSimulatorEncoderEverywhere) {
  // Full differential sweep of the standard-ID space at DLC 0, plus a
  // payload sample: the incremental encoder (can/bitstream.cpp) and the
  // non-incremental oracle must agree bit-for-bit, stuff bits included.
  // The transmitter drives the ACK slot recessive, so compare against
  // ack_dominant = false.
  auto check = [](const CanFrame& f) {
    SCOPED_TRACE(f.to_string());
    const auto sim_wire = can::wire_bits(f);
    const auto oracle = oracle_wire_bits(f, /*ack_dominant=*/false);
    ASSERT_EQ(sim_wire.size(), oracle.size());
    int sim_stuff = 0;
    for (std::size_t i = 0; i < sim_wire.size(); ++i) {
      ASSERT_EQ(sim::to_bit(sim_wire[i].level), oracle[i]) << "bit " << i;
      sim_stuff += sim_wire[i].is_stuff ? 1 : 0;
    }
    EXPECT_EQ(sim_stuff, oracle_stuff_bit_count(f));
  };
  for (can::CanId id = 0; id <= 0x7FF; ++id) check(CanFrame::make(id, {}));
  for (can::CanId id = 0; id <= 0x7FF; id += 13) {
    check(CanFrame::make_pattern(id, 8, 0x0123456789ABCDEFull));
    check(CanFrame::make_remote(id, static_cast<std::uint8_t>(id % 9)));
    check(CanFrame::make_ext((id << 18) | (id * 2654435761u & 0x3FFFF),
                             {0x1F, 0xE0, 0x1F, 0xE0}));
  }
}

TEST(Oracle, FinalCrcBitRunStillGetsStuffBitRegression) {
  // Regression for the protocol-model bug this fuzzer found: a run of five
  // equal levels ending at the *final CRC bit* must still be followed by a
  // stuff bit (ISO 11898-1 §10.5 stuffs the whole CRC sequence).  The old
  // encoder skipped it and the old receiver never consumed it — mutually
  // consistent, but non-conformant; the oracle exposed both.
  std::optional<CanFrame> trigger;
  for (can::CanId id = 0; id <= 0x7FF && !trigger; ++id) {
    for (std::uint8_t dlc = 0; dlc <= 2 && !trigger; ++dlc) {
      const auto f = CanFrame::make_pattern(id, dlc, 0x55AA000000000000ull);
      const auto wire = can::wire_bits(f);
      // Trigger = a stuff bit immediately before the CRC delimiter.
      for (std::size_t i = 1; i < wire.size(); ++i) {
        if (wire[i].field == can::Field::CrcDelim && wire[i - 1].is_stuff) {
          trigger = f;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(trigger.has_value())
      << "no frame with a 5-run ending at the final CRC bit found";
  SCOPED_TRACE(trigger->to_string());

  // Encoder side: bit-for-bit agreement with the oracle.
  const auto sim_wire = can::wire_bits(*trigger);
  const auto oracle = oracle_wire_bits(*trigger, /*ack_dominant=*/false);
  ASSERT_EQ(sim_wire.size(), oracle.size());
  for (std::size_t i = 0; i < sim_wire.size(); ++i) {
    ASSERT_EQ(sim::to_bit(sim_wire[i].level), oracle[i]) << "bit " << i;
  }

  // Receiver side: the full differential harness (real controllers, both
  // kernels) delivers the frame with zero errors.
  FuzzCase c;
  c.kind = CaseKind::Clean;
  c.nodes.push_back({{*trigger}});
  c.run_bits = recommended_run_bits(c);
  const auto out = run_case(c);
  EXPECT_FALSE(out.diverged) << out.divergence;
  EXPECT_TRUE(out.stats.oracle_checked);
}

// ---------------------------------------------------------------------------
// Predictors

TEST(Oracle, ArbitrationLowerIdWins) {
  const std::vector<CanFrame> contenders = {CanFrame::make(0x200, {0x01}),
                                            CanFrame::make(0x100, {0x02}),
                                            CanFrame::make(0x300, {0x03})};
  const auto winner = predict_arbitration_winner(contenders);
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(*winner, 1u);
}

TEST(Oracle, ArbitrationStandardBeatsExtendedWithSameBaseId) {
  // IDE is dominant for standard frames, so a standard 0x100 beats an
  // extended frame whose 11 base ID bits are also 0x100.
  const std::vector<CanFrame> contenders = {
      CanFrame::make_ext(0x100ul << 18, {0x01}), CanFrame::make(0x100, {0x02})};
  const auto winner = predict_arbitration_winner(contenders);
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(*winner, 1u);
}

TEST(Oracle, ArbitrationDataBeatsRemoteWithSameId) {
  const std::vector<CanFrame> contenders = {CanFrame::make_remote(0x123),
                                            CanFrame::make(0x123, {})};
  const auto winner = predict_arbitration_winner(contenders);
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(*winner, 1u);
}

TEST(Oracle, ArbitrationSameKeyCollisionIsUnpredictable) {
  const std::vector<CanFrame> contenders = {CanFrame::make(0x123, {0x01}),
                                            CanFrame::make(0x123, {0x02})};
  EXPECT_FALSE(predict_arbitration_winner(contenders).has_value());
}

TEST(Oracle, PredictScheduleDrainsQueuesInPriorityOrder) {
  const std::vector<std::vector<CanFrame>> queues = {
      {CanFrame::make(0x100, {0x01}), CanFrame::make(0x300, {0x03})},
      {CanFrame::make(0x200, {0x02})}};
  const auto pred = predict_schedule(queues);
  ASSERT_TRUE(pred.ok) << pred.error;
  ASSERT_EQ(pred.rounds.size(), 3u);
  EXPECT_EQ(pred.rounds[0].frame.id, 0x100u);
  EXPECT_EQ(pred.rounds[1].frame.id, 0x200u);
  EXPECT_EQ(pred.rounds[2].frame.id, 0x300u);
  // Node 0: wins round 0, loses round 1, wins round 2 -> 3 attempts.
  EXPECT_EQ(pred.attempts[0], 3u);
  EXPECT_EQ(pred.losses[0], 1u);
  // Node 1: loses round 0, wins round 1 -> 2 attempts.
  EXPECT_EQ(pred.attempts[1], 2u);
  EXPECT_EQ(pred.losses[1], 1u);
}

TEST(Oracle, PredictCountersFollowsIso10_11) {
  using Step = CounterStep;
  const auto apply = [](CounterState s, std::initializer_list<Step> steps) {
    return predict_counters(s, std::vector<Step>{steps});
  };
  // TX error then successful retransmit: +8 then -1.
  EXPECT_EQ(apply({}, {Step::TxError, Step::TxSuccess}).tec, 7);
  // Exception A/B bumps nothing.
  EXPECT_EQ(apply({}, {Step::TxErrorNoBump}).tec, 0);
  // RX success from above 127 clamps to 127.
  EXPECT_EQ(apply({0, 200}, {Step::RxSuccess}).rec, 127);
  // REC saturates at the 8-bit register ceiling.
  EXPECT_EQ(apply({0, 255}, {Step::RxDominantAfterFlag}).rec, 255);
  // Error-passive and bus-off thresholds.
  EXPECT_TRUE(apply({120, 0}, {Step::TxError}).error_passive());
  EXPECT_TRUE(apply({250, 0}, {Step::TxError}).bus_off());
  EXPECT_FALSE(apply({120, 0}, {Step::TxError}).bus_off());
}

// ---------------------------------------------------------------------------
// Generator

TEST(Generator, DeterministicAndWellFormed) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto a = generate_case(seed);
    const auto b = generate_case(seed);
    EXPECT_EQ(to_json(a), to_json(b)) << "seed " << seed;
    EXPECT_GT(a.run_bits, 0u);
    EXPECT_GE(a.total_frames(), 1u);
    EXPECT_NE(a.fault.seed, 0u) << "fault seed must be pinned for replay";
    for (const auto& node : a.nodes) {
      for (const auto& f : node.frames) {
        EXPECT_TRUE(f.valid()) << f.to_string();
      }
    }
  }
}

TEST(Generator, CoversAllCaseKinds) {
  bool seen[4] = {false, false, false, false};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    seen[static_cast<std::size_t>(generate_case(seed).kind)] = true;
  }
  EXPECT_TRUE(seen[0]) << "no Clean case in 100 seeds";
  EXPECT_TRUE(seen[1]) << "no ScheduledFlip case in 100 seeds";
  EXPECT_TRUE(seen[2]) << "no Noisy case in 100 seeds";
  EXPECT_TRUE(seen[3]) << "no Batched case in 100 seeds";
}

// ---------------------------------------------------------------------------
// Differ

TEST(Differ, HandcraftedCleanCasePasses) {
  FuzzCase c;
  c.kind = CaseKind::Clean;
  c.nodes.push_back({{CanFrame::make(0x100, {0xAA}),
                      CanFrame::make_ext(0x1000123, {0x55, 0x55})}});
  c.nodes.push_back({{CanFrame::make_remote(0x0F0, 2)}});
  c.run_bits = recommended_run_bits(c);
  const auto out = run_case(c);
  EXPECT_FALSE(out.diverged) << out.divergence;
  EXPECT_TRUE(out.stats.oracle_checked);
  EXPECT_EQ(out.stats.frames_on_wire, 3u);
  EXPECT_GT(out.stats.wire_bits_compared, 0u);
  EXPECT_EQ(out.stats.arbitration_rounds, 3u);
}

TEST(Differ, HandcraftedScheduledFlipCasePasses) {
  FuzzCase c;
  c.kind = CaseKind::ScheduledFlip;
  c.nodes.push_back({{CanFrame::make(0x234, {0x12, 0x34})}});
  c.fault.flips.push_back({0, can::Field::Data, 5});
  c.fault.seed = 1;
  c.run_bits = recommended_run_bits(c);
  const auto out = run_case(c);
  EXPECT_FALSE(out.diverged) << out.divergence;
}

// ---------------------------------------------------------------------------
// Shrinker

TEST(Shrinker, ReducesMarkerDivergenceToOneFrame) {
  // Seeded artificial divergence: the predicate diverges iff a frame with
  // the marker ID is present anywhere.  Starting from 3 nodes x 3 frames,
  // the shrinker must strip everything else.
  constexpr can::CanId kMarker = 0x6AD;
  FuzzCase c;
  c.kind = CaseKind::Clean;
  for (int n = 0; n < 3; ++n) {
    FuzzNode node;
    for (int i = 0; i < 3; ++i) {
      node.frames.push_back(CanFrame::make(
          static_cast<can::CanId>(0x100 + n * 0x10 + i), {0x01, 0x02}));
    }
    c.nodes.push_back(node);
  }
  c.nodes[1].frames[1].id = kMarker;
  c.run_bits = recommended_run_bits(c);

  const CaseRunner marker_runner = [&](const FuzzCase& candidate) {
    CaseOutcome out;
    for (const auto& node : candidate.nodes) {
      for (const auto& f : node.frames) {
        if (f.id == kMarker && !f.extended) {
          out.diverged = true;
          out.divergence = "marker frame present";
        }
      }
    }
    return out;
  };

  const auto res = shrink(c, marker_runner);
  EXPECT_LE(res.minimized.total_frames(), 2u);  // acceptance bar
  ASSERT_EQ(res.minimized.total_frames(), 1u);  // what it actually achieves
  ASSERT_EQ(res.minimized.nodes.size(), 1u);
  EXPECT_EQ(res.minimized.nodes[0].frames[0].id, kMarker);
  EXPECT_GT(res.accepted, 0);
  EXPECT_EQ(res.divergence, "marker frame present");
}

TEST(Shrinker, NonDivergingInputIsReturnedUnchanged) {
  FuzzCase c;
  c.nodes.push_back({{CanFrame::make(0x111, {0x01})}});
  c.run_bits = recommended_run_bits(c);
  const CaseRunner never = [](const FuzzCase&) { return CaseOutcome{}; };
  const auto res = shrink(c, never);
  EXPECT_TRUE(res.divergence.empty());
  EXPECT_EQ(res.minimized.total_frames(), c.total_frames());
}

// ---------------------------------------------------------------------------
// Repro artifacts

TEST(FuzzCase, JsonAndCppArtifactsAreSelfDescribing) {
  FuzzCase c;
  c.seed = 42;
  c.kind = CaseKind::Clean;
  c.nodes.push_back({{CanFrame::make(0x123, {0xAB})}});
  c.run_bits = recommended_run_bits(c);

  const auto json = to_json(c);
  EXPECT_NE(json.find("michican.fuzz_repro.v1"), std::string::npos);
  EXPECT_NE(json.find("\"run_bits\""), std::string::npos);

  const auto test = to_cpp_test(c, "Seed42", "why it diverged");
  EXPECT_NE(test.find("Seed42"), std::string::npos);
  EXPECT_NE(test.find("conformance/differ.hpp"), std::string::npos);
  EXPECT_NE(test.find("EXPECT_FALSE(out.diverged)"), std::string::npos);
  EXPECT_NE(test.find("why it diverged"), std::string::npos);
}

}  // namespace
}  // namespace mcan::conformance
