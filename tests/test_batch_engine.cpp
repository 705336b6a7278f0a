// Directed tests for the word-level batched bit engine.
//
// The batched kernel commits up to 64 bits per round wherever every node's
// contribution is a known constant pattern (transparent horizon) and no
// fault injection lands inside the span.  These tests pin the hard edges:
// stuff runs crossing window boundaries, arbitration decided inside a
// window, counterattack windows, fault-injection fallback, and the
// associativity of splitting one recording into arbitrarily sized windows.
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
/// exactly what the associativity property needs to vary.
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
  [[nodiscard]] sim::BitTime next_activity(
      sim::BitTime /*now*/) const override {
    return can::kNever;
  }
  void on_idle_skip(sim::BitTime /*count*/) override {}
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

/// Everything a recording can differ in: the full serialized event log, the
/// exact waveform, and the two engine perf counters.
struct Recording {
  std::string events;
  std::string wave;
  std::uint64_t batched{};
  std::uint64_t skipped{};
};

struct EngineMode {
  bool fast_path;
  bool batching;
};

constexpr EngineMode kNaive{false, false};
constexpr EngineMode kBatched{false, true};  // batching isolated from skipping
constexpr EngineMode kFull{true, true};

/// Two controllers with maximally stuff-heavy periodic traffic: all-zero and
/// all-ones payloads produce a stuff bit every five wire bits, so windows of
/// every length land boundaries inside stuff runs.  IDs 0x400/0x401 differ
/// only in the last arbitration bit, so simultaneous enqueues decide
/// arbitration as late as possible.
Recording record_stuffy(EngineMode mode, sim::BitTime choke,
                        std::uint64_t choke_seed, double phase_b = 95.0,
                        const can::FaultSpec* fault = nullptr) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(mode.fast_path);
  bus.set_batching(mode.batching);

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
  // before/after the inserted stuff bit.
  const auto reference = record_stuffy(kNaive, 0, 1);
  EXPECT_EQ(reference.batched, 0u);
  for (sim::BitTime k = 8; k <= 64; ++k) {
    const auto r = record_stuffy(kBatched, k, 1);
    ASSERT_EQ(reference.events, r.events) << "choke=" << k;
    ASSERT_EQ(reference.wave, r.wave) << "choke=" << k;
    EXPECT_GT(r.batched, 0u) << "choke=" << k;
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
  // The full engine (skipping + batching) composes too.
  const auto full = record_stuffy(kFull, 64, 1);
  EXPECT_EQ(reference.events, full.events);
  EXPECT_EQ(reference.wave, full.wave);
}

TEST(BatchEngine, ScheduledFlipVetoesBatchingAndStaysByteIdentical) {
  // A scheduled flip depends on the per-bit wire position (frame-relative
  // addressing), so the injector vetoes every batch window outright: the
  // engine must fall back to per-bit stepping for the whole recording and
  // still reproduce the naive recording exactly.
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
      << "scheduled flips must force full per-bit fallback";
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

TEST(BatchEngine, CounterattackWindowsNeverOpenMidWord) {
  // An armed MichiCAN monitor reacts on exactly two bits: the arm-position
  // verdict and the last counterattack bit.  Its transparent prefix stops
  // before either, so every counterattack starts and ends on a stepped bit
  // at its exact time, while benign frames and idle stretches still batch.
  // The event log and the metrics pin each counterattack to its bit.
  auto make = [](bool batching) {
    auto spec = analysis::table2_experiment(2);
    spec.duration = sim::Millis{200.0};
    spec.capture_timeline = true;
    spec.batching = batching;
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
  bus.set_batching(false);
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
