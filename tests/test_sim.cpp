// Tests for the simulation kernel: deterministic RNG, bus-trace queries,
// event log filtering and the time conversions everything relies on.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <utility>

#include "sim/event_log.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace mcan::sim {
namespace {

TEST(Types, WiredAndDominantWins) {
  EXPECT_EQ(wired_and(BitLevel::Recessive, BitLevel::Recessive),
            BitLevel::Recessive);
  EXPECT_EQ(wired_and(BitLevel::Dominant, BitLevel::Recessive),
            BitLevel::Dominant);
  EXPECT_EQ(wired_and(BitLevel::Recessive, BitLevel::Dominant),
            BitLevel::Dominant);
  EXPECT_EQ(wired_and(BitLevel::Dominant, BitLevel::Dominant),
            BitLevel::Dominant);
}

TEST(Types, BitConversionsRoundTrip) {
  EXPECT_EQ(to_bit(BitLevel::Dominant), 0);
  EXPECT_EQ(to_bit(BitLevel::Recessive), 1);
  EXPECT_EQ(from_bit(0), BitLevel::Dominant);
  EXPECT_EQ(invert(BitLevel::Dominant), BitLevel::Recessive);
}

TEST(Types, BusSpeedConversions) {
  const BusSpeed s{50'000};
  EXPECT_DOUBLE_EQ(s.bit_time_us(), 20.0);
  EXPECT_DOUBLE_EQ(s.bits_to_ms(1250), 25.0);
  EXPECT_DOUBLE_EQ(s.ms_to_bits(25.0), 1250.0);
  // Round trip.
  EXPECT_DOUBLE_EQ(s.ms_to_bits(s.bits_to_ms(777)), 777.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 2);
}

/// Rng::uniform as it was before its power-of-two mask: two 64-bit `%`
/// per draw.  The reference the inline version must match draw for draw.
std::uint64_t division_uniform(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return rng.next();
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                              std::numeric_limits<std::uint64_t>::max() % span;
  std::uint64_t v = rng.next();
  while (v >= limit) v = rng.next();
  return lo + v % span;
}

TEST(Rng, UniformMatchesTheDivisionReferenceDrawForDraw) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
      {7, 7},                         // span 1
      {0, 1},                         // span 2
      {0, 2047},                      // span 2,048: the Sec. V-B ID draws
      {100, 100 + (1ull << 32) - 1},  // span 2^32
      {0, (1ull << 63) - 1},          // span 2^63: rejects half the draws
      {0, kMax},                      // the full 64-bit range
      {1, 1000},                      // not a power of two
  };
  for (const auto& [lo, hi] : ranges) {
    Rng rng{2024};
    Rng reference{2024};
    int mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      mismatches += rng.uniform(lo, hi) != division_uniform(reference, lo, hi);
    }
    EXPECT_EQ(mismatches, 0) << "[" << lo << ", " << hi << "]";
    EXPECT_EQ(rng.next(), reference.next()) << "[" << lo << ", " << hi << "]";
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng r{99};
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng r{5};
  for (int i = 0; i < 2000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r{11};
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a{42};
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

TEST(LogicAnalyzer, DominantCountAndBusyFraction) {
  LogicAnalyzer t;
  // 5 dominant, 20 recessive (idle run), 5 dominant.
  for (int i = 0; i < 5; ++i) t.sample(BitLevel::Dominant);
  for (int i = 0; i < 20; ++i) t.sample(BitLevel::Recessive);
  for (int i = 0; i < 5; ++i) t.sample(BitLevel::Dominant);
  EXPECT_EQ(t.dominant_count(0, 30), 10u);
  // Busy = 10 dominant bits; the 20-recessive run counts as idle.
  EXPECT_DOUBLE_EQ(t.busy_fraction(0, 30), 10.0 / 30.0);
}

TEST(LogicAnalyzer, ShortRecessiveRunsCountAsBusy) {
  LogicAnalyzer t;
  // dominant, 5 recessive (intra-frame), dominant => all busy.
  t.sample(BitLevel::Dominant);
  for (int i = 0; i < 5; ++i) t.sample(BitLevel::Recessive);
  t.sample(BitLevel::Dominant);
  EXPECT_DOUBLE_EQ(t.busy_fraction(0, 7), 1.0);
}

TEST(LogicAnalyzer, FallingEdgeDetection) {
  LogicAnalyzer t;
  t.sample(BitLevel::Recessive);
  t.sample(BitLevel::Recessive);
  t.sample(BitLevel::Dominant);
  t.sample(BitLevel::Dominant);
  t.sample(BitLevel::Recessive);
  t.sample(BitLevel::Dominant);
  const auto e1 = t.next_falling_edge(0);
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(*e1, 2u);
  const auto e2 = t.next_falling_edge(*e1 + 1);
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(*e2, 5u);
  EXPECT_FALSE(t.next_falling_edge(6).has_value());
}

TEST(LogicAnalyzer, EndOfRecessiveRun) {
  LogicAnalyzer t;
  t.sample(BitLevel::Dominant);
  for (int i = 0; i < 11; ++i) t.sample(BitLevel::Recessive);
  t.sample(BitLevel::Dominant);
  const auto end = t.end_of_recessive_run(0, 11);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, 12u);
  EXPECT_FALSE(t.end_of_recessive_run(2, 11).has_value());
}

TEST(LogicAnalyzer, RenderGroupsBits) {
  LogicAnalyzer t;
  for (int i = 0; i < 12; ++i) {
    t.sample(i % 2 ? BitLevel::Recessive : BitLevel::Dominant);
  }
  EXPECT_EQ(t.render(0, 12, 4), "_-_- _-_- _-_-");
}

TEST(EventLog, FilterByKindAndNode) {
  EventLog log;
  log.push({1, "a", EventKind::BusOff, 0, 0, 0, {}});
  log.push({2, "b", EventKind::BusOff, 0, 0, 0, {}});
  log.push({3, "a", EventKind::FrameTxStart, 0, 0, 0, {}});
  EXPECT_EQ(log.filter(EventKind::BusOff).size(), 2u);
  EXPECT_EQ(log.filter(EventKind::BusOff, "a").size(), 1u);
  EXPECT_EQ(log.count(EventKind::FrameTxStart), 1u);
}

TEST(EventLog, FirstRespectsFromAndNode) {
  EventLog log;
  log.push({1, "a", EventKind::BusOff, 0, 0, 0, {}});
  log.push({9, "a", EventKind::BusOff, 0, 0, 0, {}});
  const auto* e = log.first(EventKind::BusOff, 5, "a");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->at, 9u);
  EXPECT_EQ(log.first(EventKind::BusOff, 10), nullptr);
}

TEST(EventLog, DumpTruncates) {
  EventLog log;
  for (int i = 0; i < 30; ++i) {
    log.push({static_cast<BitTime>(i), "n", EventKind::Custom, 0, 0, 0, {}});
  }
  const auto s = log.dump(10);
  EXPECT_NE(s.find("20 more"), std::string::npos);
}

TEST(EventKindNames, AllDistinct) {
  std::set<std::string_view> names;
  for (int k = 0; k <= static_cast<int>(EventKind::Custom); ++k) {
    names.insert(to_string(static_cast<EventKind>(k)));
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(EventKind::Custom) + 1);
}

// A switch with no default over every member: adding an EventKind without
// updating this function (and, by the same rule, to_string and the timeline
// exporter) is a -Wswitch -Werror build failure, not a silent gap.
constexpr bool covers_every_kind(EventKind k) {
  switch (k) {
    case EventKind::FrameTxStart:
    case EventKind::FrameTxSuccess:
    case EventKind::FrameRxSuccess:
    case EventKind::ArbitrationLost:
    case EventKind::TxError:
    case EventKind::RxError:
    case EventKind::ErrorStateChange:
    case EventKind::BusOff:
    case EventKind::BusOffRecovered:
    case EventKind::SuspendStart:
    case EventKind::AttackDetected:
    case EventKind::CounterattackStart:
    case EventKind::CounterattackEnd:
    case EventKind::OverloadFrame:
    case EventKind::FaultInjected:
    case EventKind::Custom:
      return true;
  }
  return false;
}

TEST(EventKindNames, ToStringIsExhaustive) {
  EXPECT_EQ(kEventKindCount, static_cast<std::size_t>(EventKind::Custom) + 1);
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_TRUE(covers_every_kind(kind));
    const auto name = to_string(kind);
    EXPECT_FALSE(name.empty()) << "EventKind " << k << " has no name";
    EXPECT_NE(name, "Unknown") << "EventKind " << k << " misses its case";
  }
}

}  // namespace
}  // namespace mcan::sim
