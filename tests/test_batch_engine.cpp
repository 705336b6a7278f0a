// Directed tests for the batch-window engine.
//
// The engine commits a window wherever every node's contribution is a known
// constant pattern (transparent horizon) and no fault injection lands inside
// the span: up to 64 bits holding a dominant level, any length of
// all-recessive bus.  These tests pin the hard edges: stuff runs crossing
// window boundaries, arbitration decided inside a window, counterattack
// windows, fault-injection fallback, and the associativity of splitting one
// recording into arbitrarily sized windows.
//
// Every run here doubles as contract enforcement: the bus cross-checks each
// committed window's drive patterns against the nodes' live tx_level() and
// throws on any mismatch, so a passing differential test certifies both
// byte-identity and pattern honesty.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/scenarios.hpp"
#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/fault_injector.hpp"
#include "can/node.hpp"
#include "can/periodic.hpp"
#include "obs/timeline.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace mcan {
namespace {

/// A passive node that caps every batch window at a chosen (optionally
/// randomized) length.  It never drives, never reacts, and is fully
/// transparent — its only effect is to move the window boundaries, which is
/// exactly what the associativity property needs to vary.  Its pattern is
/// all recessive, so a fixed horizon may exceed 64 bits.
class ChokeNode final : public can::CanNode {
 public:
  /// fixed horizon when `fixed` > 0, else random in [1, 64] per probe.
  ChokeNode(sim::BitTime fixed, std::uint64_t seed)
      : fixed_(fixed), rng_(seed) {}

  void tick(sim::BitTime /*now*/) override {}
  [[nodiscard]] sim::BitLevel tx_level() override {
    return sim::BitLevel::Recessive;
  }
  void on_bus_bit(sim::BitLevel /*bus*/) override {}
  [[nodiscard]] DrivePattern drive_pattern(sim::BitTime /*now*/) override {
    return {fixed_ > 0 ? fixed_ : rng_.uniform(1, 64), ~0ull};
  }
  [[nodiscard]] sim::BitTime transparent_bits(sim::BitTime /*now*/,
                                              std::uint64_t /*word*/,
                                              sim::BitTime count) override {
    return count;
  }
  void on_bus_word(sim::BitTime /*now*/, std::uint64_t /*word*/,
                   sim::BitTime /*count*/) override {}
  [[nodiscard]] std::string_view name() const override { return "choke"; }

 private:
  sim::BitTime fixed_;
  sim::Rng rng_;
};

/// A deaf node that drives a `len`-bit dominant pulse every `period` bits
/// (the first at bit `period`) and is recessive otherwise.  Its window
/// contract is honest and fully transparent, so beside a ChokeNode only the
/// fault injector can keep a pulse — which the injector's frame tracker
/// reads as a SOF after enough idle bits — out of a window.
class PulseNode final : public can::CanNode {
 public:
  PulseNode(sim::BitTime period, sim::BitTime len)
      : period_(period), len_(len) {}

  void tick(sim::BitTime now) override { clock_ = now; }
  [[nodiscard]] sim::BitLevel tx_level() override {
    return driving(clock_) ? sim::BitLevel::Dominant
                           : sim::BitLevel::Recessive;
  }
  void on_bus_bit(sim::BitLevel /*bus*/) override { ++clock_; }
  [[nodiscard]] DrivePattern drive_pattern(sim::BitTime now) override {
    std::uint64_t bits = ~0ull;
    for (sim::BitTime i = 0; i < 64; ++i) {
      if (driving(now + i)) bits &= ~(std::uint64_t{1} << i);
    }
    return {64, bits};
  }
  [[nodiscard]] sim::BitTime transparent_bits(sim::BitTime /*now*/,
                                              std::uint64_t /*word*/,
                                              sim::BitTime count) override {
    return count;
  }
  void on_bus_word(sim::BitTime now, std::uint64_t /*word*/,
                   sim::BitTime count) override {
    clock_ = now + count;
  }
  [[nodiscard]] std::string_view name() const override { return "pulse"; }

 private:
  [[nodiscard]] bool driving(sim::BitTime t) const {
    return t >= period_ && t % period_ < len_;
  }

  sim::BitTime period_;
  sim::BitTime len_;
  sim::BitTime clock_{0};  // the bit tx_level() answers for
};

/// Everything a recording can differ in: the full serialized event log, the
/// exact waveform, and the two engine perf counters.
struct Recording {
  std::string events;
  std::string wave;
  std::uint64_t batched{};
  std::uint64_t skipped{};
};

/// Engine switch values (WiredAndBus::set_fast_path).
constexpr bool kNaive = false;
constexpr bool kBatched = true;

/// Two controllers with maximally stuff-heavy periodic traffic: all-zero and
/// all-ones payloads produce a stuff bit every five wire bits, so windows of
/// every length land boundaries inside stuff runs.  IDs 0x400/0x401 differ
/// only in the last arbitration bit, so simultaneous enqueues decide
/// arbitration as late as possible.
Recording record_stuffy(bool fast_path, sim::BitTime choke,
                        std::uint64_t choke_seed, double phase_b = 95.0,
                        const can::FaultSpec* fault = nullptr) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(fast_path);

  can::BitController a{"ecu-a"};
  can::BitController b{"ecu-b"};
  a.attach_to(bus);
  b.attach_to(bus);

  can::CanFrame fa;
  fa.id = 0x400;
  fa.dlc = 8;  // data stays all-0x00: dominant stuff runs
  can::CanFrame fb;
  fb.id = 0x401;
  fb.dlc = 8;
  fb.data.fill(0xFF);  // recessive stuff runs
  can::attach_periodic(a, fa, /*period_bits=*/700.0, /*phase_bits=*/95.0);
  can::attach_periodic(b, fb, /*period_bits=*/700.0, phase_b);

  ChokeNode ch{choke, choke_seed};
  bus.attach(ch);

  std::unique_ptr<can::FaultInjector> injector;
  if (fault != nullptr) {
    injector = std::make_unique<can::FaultInjector>(*fault, 7);
    bus.set_fault_injector(injector.get());
  }

  bus.run(sim::Bits{6000});
  return {obs::to_jsonl(bus.log()),
          bus.trace().render(0, bus.trace().size()), bus.bits_batched(),
          bus.bits_skipped()};
}

TEST(BatchEngine, StuffRunsByteIdenticalAtEveryWindowAlignment) {
  // Fixed choke k makes uncontested windows exactly k bits long, so sweeping
  // k slides the word boundary across every stuff-run alignment — including
  // a boundary straight through the middle of a five-bit run and directly
  // before/after the inserted stuff bit.  Chokes above 64 exercise the
  // clamp: a window holding a dominant bit stops at 64, and only idle
  // stretches run longer — up to the next periodic enqueue with kNever.
  const auto reference = record_stuffy(kNaive, 0, 1);
  EXPECT_EQ(reference.batched, 0u);
  std::vector<sim::BitTime> chokes;
  for (sim::BitTime k = 8; k <= 64; ++k) chokes.push_back(k);
  for (const sim::BitTime k : {sim::BitTime{65}, sim::BitTime{128},
                               sim::BitTime{700}, can::kNever}) {
    chokes.push_back(k);
  }
  for (const sim::BitTime k : chokes) {
    const auto r = record_stuffy(kBatched, k, 1);
    ASSERT_EQ(reference.events, r.events) << "choke=" << k;
    ASSERT_EQ(reference.wave, r.wave) << "choke=" << k;
    EXPECT_GT(r.batched, 0u) << "choke=" << k;
    if (k > 64) {
      EXPECT_GT(r.skipped, 0u) << "choke=" << k;
    }
  }
}

TEST(BatchEngine, ArbitrationLossInsideProbedWindows) {
  // Phase 95 starts both transmitters on the same SOF: arbitration runs to
  // the last ID bit (0x400 vs 0x401), where ecu-b loses.  The transparency
  // scan must truncate ecu-b's window at exactly that bit; the choke sweep
  // again slides the boundary across the decision point (including a window
  // whose last bit is the losing bit).
  const auto reference = record_stuffy(kNaive, 0, 1, /*phase_b=*/95.0);
  ASSERT_NE(reference.events.find("ArbitrationLost"), std::string::npos)
      << "scenario must actually contest arbitration";
  for (sim::BitTime k = 8; k <= 64; k += 7) {
    const auto r = record_stuffy(kBatched, k, 1, /*phase_b=*/95.0);
    ASSERT_EQ(reference.events, r.events) << "choke=" << k;
    ASSERT_EQ(reference.wave, r.wave) << "choke=" << k;
  }
}

TEST(BatchEngine, HorizonSplitAssociativityPropertySweep) {
  // Splitting one recording into randomly sized windows (1..64 bits, the
  // sub-kMinBatch draws force per-bit fallback rounds in between) must
  // compose to the same recording as unsplit batching and as no batching:
  // the engine is associative over window boundaries.
  const auto reference = record_stuffy(kNaive, 0, 1);
  const auto unsplit = record_stuffy(kBatched, 64, 1);
  EXPECT_EQ(reference.events, unsplit.events);
  EXPECT_EQ(reference.wave, unsplit.wave);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto r = record_stuffy(kBatched, 0, seed);
    ASSERT_EQ(reference.events, r.events) << "seed=" << seed;
    ASSERT_EQ(reference.wave, r.wave) << "seed=" << seed;
  }
}

TEST(BatchEngine, ScheduledFlipVetoesBatchingAndStaysByteIdentical) {
  // A scheduled flip depends on the per-bit wire position (frame-relative
  // addressing), so the injector vetoes every window inside a frame and
  // stops idle windows before their first dominant bit: no window holding a
  // dominant level ever commits, and the recording still reproduces the
  // naive one exactly.
  can::FaultSpec fault;
  can::ScheduledFlip flip;
  flip.frame = 2;
  flip.field = can::Field::Data;
  flip.bit = 13;
  fault.flips.push_back(flip);

  const auto reference = record_stuffy(kNaive, 0, 1, 95.0, &fault);
  const auto batched = record_stuffy(kBatched, 64, 1, 95.0, &fault);
  EXPECT_EQ(reference.events, batched.events);
  EXPECT_EQ(reference.wave, batched.wave);
  EXPECT_EQ(batched.batched, 0u)
      << "scheduled flips must force per-bit stepping through every frame";
  ASSERT_NE(reference.events.find("FaultInjected"), std::string::npos);
}

TEST(BatchEngine, StuckWindowCapsBatchingAroundItself) {
  // A stuck-at window only vetoes batching *inside* its span; before and
  // after it the word engine must keep running, and the recording must stay
  // byte-identical through the stuck region's error signalling.
  can::FaultSpec fault;
  fault.stuck.push_back({1500, 40, sim::BitLevel::Dominant});

  const auto reference = record_stuffy(kNaive, 0, 1, 95.0, &fault);
  const auto batched = record_stuffy(kBatched, 64, 1, 95.0, &fault);
  EXPECT_EQ(reference.events, batched.events);
  EXPECT_EQ(reference.wave, batched.wave);
  EXPECT_GT(batched.batched, 0u)
      << "batching must resume outside the stuck window";
}

TEST(BatchEngine, FlipsAndSkewKeepWindowsOffTrackedFrames) {
  // Scheduled flips and sample-point skew act per bit inside a frame, so the
  // injector refuses every window while its tracker is in a frame and stops
  // idle windows before the dominant bit that could open one.  Here every
  // node is transparent to a pulse the tracker reads as a SOF, so those two
  // rules alone keep the pulses, the flip inside the second one and the
  // choke's drifting samples on the stepped path.
  can::FaultSpec fault;
  fault.skews = {{"choke", 0.3, 0.0}};
  can::ScheduledFlip flip;
  flip.frame = 1;
  flip.field = can::Field::Id;
  flip.bit = 4;
  fault.flips.push_back(flip);

  struct Run {
    Recording rec;
    can::FaultInjector::Stats faults;
  };
  auto record = [&fault](bool fast_path, std::uint64_t choke_seed) {
    can::WiredAndBus bus{sim::BusSpeed{50'000}};
    bus.set_fast_path(fast_path);
    PulseNode pulse{200, 3};
    ChokeNode choke{0, choke_seed};
    bus.attach(pulse);
    bus.attach(choke);
    can::FaultInjector injector{fault, 7};
    bus.set_fault_injector(&injector);
    bus.run(sim::Bits{2000});
    return Run{{obs::to_jsonl(bus.log()),
                bus.trace().render(0, bus.trace().size()), bus.bits_batched(),
                bus.bits_skipped()},
               injector.stats()};
  };

  const auto reference = record(kNaive, 1);
  ASSERT_EQ(reference.faults.scheduled_flips, 1u);
  ASSERT_GT(reference.faults.sample_slips, 0u);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto r = record(kBatched, seed);
    ASSERT_EQ(reference.rec.events, r.rec.events) << "seed=" << seed;
    ASSERT_EQ(reference.rec.wave, r.rec.wave) << "seed=" << seed;
    EXPECT_EQ(reference.faults.sample_slips, r.faults.sample_slips)
        << "seed=" << seed;
    EXPECT_GT(r.rec.batched + r.rec.skipped, 0u) << "seed=" << seed;
  }
}

TEST(BatchEngine, CounterattackWindowsNeverOpenMidWord) {
  // An armed MichiCAN monitor reacts on exactly two bits: the arm-position
  // verdict and the last counterattack bit.  Its transparent prefix stops
  // before either, so every counterattack starts and ends on a stepped bit
  // at its exact time, while benign frames and idle stretches still batch.
  // The event log and the metrics pin each counterattack to its bit.
  auto make = [](bool fast_path) {
    auto spec = analysis::table2_experiment(2);
    spec.duration = sim::Millis{200.0};
    spec.capture_timeline = true;
    spec.fast_path = fast_path;
    return analysis::run_experiment(spec);
  };
  const auto batched = make(true);
  const auto naive = make(false);
  ASSERT_GT(batched.counterattacks, 0u);
  EXPECT_EQ(batched.events_jsonl, naive.events_jsonl);
  EXPECT_EQ(batched.metrics.to_json(), naive.metrics.to_json());
  EXPECT_GT(batched.bits_batched, 0u)
      << "an armed defender must let reaction-free windows batch";
}

TEST(BatchEngine, SaturatingBitArithmeticNeverWraps) {
  // Satellite fix: soak-length accumulations go through sim::sat_add, which
  // clamps at the BitTime maximum instead of wrapping to a tiny horizon.
  constexpr sim::BitTime kMax = std::numeric_limits<sim::BitTime>::max();
  static_assert(sim::sat_add(kMax, 1) == kMax);
  static_assert(sim::sat_add(kMax - 5, 10) == kMax);
  static_assert(sim::sat_add(kMax, kMax) == kMax);
  static_assert(sim::sat_add(3, 4) == 7);
  static_assert(sim::sat_add(0, kMax) == kMax);
  EXPECT_EQ(sim::sat_add(kMax - 1, 1), kMax);

  // The run() end marker is the guarded call site: asking for kNever bits
  // from a nonzero `now` must clamp, not wrap to an end before `now` (which
  // would silently turn run() into a no-op).
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(false);
  can::BitController idle{"idle"};
  idle.attach_to(bus);
  bus.run(sim::Bits{50});
  ASSERT_EQ(bus.now(), 50u);
  // kMax bits from now=50 would overflow unguarded: 50 + kMax wraps to 49.
  // With sat_add the end clamps to kMax and the loop keeps simulating; run
  // a bounded slice by checking the end computation directly instead.
  EXPECT_EQ(sim::sat_add(bus.now(), kMax), kMax);
}

}  // namespace
}  // namespace mcan
