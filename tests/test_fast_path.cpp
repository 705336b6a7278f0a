// Simulation-engine equivalence and contract enforcement.
//
// The bus has two engine tiers, both required to produce BYTE-identical
// recordings — same waveform, same event log, same metrics, same campaign
// report — at any worker count:
//
//   naive    per-bit stepping only (fast path off): the contract-free
//            reference oracle
//   batched  wired-AND resolved a window at a time over the nodes'
//            transparent horizons: up to 64 bits of a frame, any length of
//            all-recessive idle bus, per-bit fallback in contested regions
//
// The differential harness here sweeps every scenario in the built-in
// registry — including the BER fault-sweep cells — plus a seeded
// scheduled-flip / stuck-bus / skew fault grid through both engines x
// {jobs 1, jobs 4} and diffs the deterministic JSON reports character by
// character.
//
// The window contract is enforced, not trusted: a node that advertises a
// drive pattern and then contradicts it — at a window's first bit or right
// after it — must make the bus throw, never silently lose a dominant edge.
//
// Application hooks parked on their controller (kNever) must wake at every
// controller change they may wait on, and only then: the parked-hook tests
// pin each wake against the naive tier and pin the saving itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/scenarios.hpp"
#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/fault_injector.hpp"
#include "can/node.hpp"
#include "can/periodic.hpp"
#include "core/michican_node.hpp"
#include "obs/timeline.hpp"
#include "runner/campaign.hpp"
#include "runner/cli.hpp"
#include "runner/report.hpp"

namespace mcan {
namespace {

/// The two engine tiers under differential test.
enum class Engine { Naive, Batched };

void configure(analysis::ExperimentSpec& spec, Engine engine) {
  spec.fast_path = engine == Engine::Batched;
}

const char* engine_name(Engine engine) {
  return engine == Engine::Naive ? "naive" : "batched";
}

constexpr Engine kEngines[] = {Engine::Naive, Engine::Batched};

/// A node that violates the window contract after the fact: it advertises
/// eternal recessive silence ({kNever, ~0ull}) but drives dominant once its
/// clock passes kLieBit.  Its on_bus_word() bookkeeping is honest, so the
/// stale promise surfaces the moment the bus bulk-advances it across the
/// lie in one long all-recessive window.
class LyingNode final : public can::CanNode {
 public:
  static constexpr sim::BitTime kLieBit = 50;

  void tick(sim::BitTime now) override { clock_ = now; }
  [[nodiscard]] sim::BitLevel tx_level() override {
    return clock_ >= kLieBit ? sim::BitLevel::Dominant
                             : sim::BitLevel::Recessive;
  }
  void on_bus_bit(sim::BitLevel /*bus*/) override {}
  [[nodiscard]] DrivePattern drive_pattern(sim::BitTime /*now*/) override {
    return {can::kNever, ~0ull};  // the lie
  }
  [[nodiscard]] sim::BitTime transparent_bits(sim::BitTime /*now*/,
                                              std::uint64_t /*word*/,
                                              sim::BitTime count) override {
    return count;
  }
  void on_bus_word(sim::BitTime /*now*/, std::uint64_t /*word*/,
                   sim::BitTime count) override {
    clock_ += count;
  }
  [[nodiscard]] std::string_view name() const override { return "liar"; }

 private:
  sim::BitTime clock_{0};
};

/// A node that violates the batch contract: it advertises an all-recessive
/// drive pattern (and full transparency) while actually driving dominant.
class BatchLyingNode final : public can::CanNode {
 public:
  void tick(sim::BitTime /*now*/) override {}
  [[nodiscard]] sim::BitLevel tx_level() override {
    return sim::BitLevel::Dominant;
  }
  void on_bus_bit(sim::BitLevel /*bus*/) override {}
  [[nodiscard]] DrivePattern drive_pattern(sim::BitTime /*now*/) override {
    return {64, ~0ull};  // the lie
  }
  [[nodiscard]] sim::BitTime transparent_bits(sim::BitTime /*now*/,
                                              std::uint64_t /*word*/,
                                              sim::BitTime count) override {
    return count;
  }
  [[nodiscard]] std::string_view name() const override { return "batch-liar"; }
};

/// What a parked flood hook waits for once its queued frame is gone.
enum class FloodHook {
  RefillWhileBusOff,  // tops the queue up even while bus-off (Exp. 6)
  WaitForRecovery,    // parks while bus-off, refills after recovery
};

struct ParkedHookRun {
  std::string events;  // the whole event log, JSONL
  std::uint64_t hook_calls{0};
  std::uint64_t bus_off_entries{0};
  std::uint64_t recoveries{0};
  std::uint64_t arbitration_losses{0};
};

/// A MichiCAN defender owning 0x064 and a plain controller whose one hook
/// floods that ID: every frame it queues is counterattacked, so the
/// controller cycles through bus-off (queue cleared on entry) and recovery
/// about seven times in 20,000 bits.  The hook stamps each refill with a
/// Custom event at the bit it acts, so a late wake shows in the log.
/// `one_shot` disables automatic retransmission, so every error drops the
/// frame, and adds a legitimate 0x050 sender that wins arbitration.
ParkedHookRun run_parked_flood(Engine engine, FloodHook kind,
                               bool one_shot = false) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(engine == Engine::Batched);
  core::MichiCanNodeConfig dcfg;
  dcfg.own_id = 0x064;
  const core::IvnConfig ivn{{0x050, 0x064, 0x173, 0x2A0}};
  core::MichiCanNode defender{"defender", ivn, dcfg};
  defender.attach_to(bus);
  can::BitController::Config fcfg;
  fcfg.clear_queue_on_bus_off = true;
  fcfg.auto_retransmit = !one_shot;
  can::BitController flooder{"flooder", fcfg};
  flooder.attach_to(bus);
  can::BitController peer{"peer"};
  if (one_shot) {
    can::attach_periodic(peer, can::CanFrame::make(0x050, {0x01}), 300.0);
    peer.attach_to(bus);
  }

  ParkedHookRun run;
  const auto waits = [&flooder, kind] {
    return flooder.queue_depth() != 0 ||
           (kind == FloodHook::WaitForRecovery && flooder.is_bus_off());
  };
  flooder.add_app(
      [&](sim::BitTime now, can::BitController& c) {
        ++run.hook_calls;
        if (waits()) return;
        c.enqueue(can::CanFrame::make(0x064, {0xA5, 0x5A}));
        bus.log().push({now, "flood-hook", sim::EventKind::Custom, 0x064, 0,
                        0, "refill"});
      },
      [&](sim::BitTime) { return waits() ? can::kNever : can::kAlways; });

  bus.run(sim::Bits{20'000});
  run.events = obs::to_jsonl(bus.log());
  run.bus_off_entries = flooder.stats().bus_off_entries;
  run.recoveries = flooder.stats().recoveries;
  run.arbitration_losses = flooder.stats().arbitration_losses;
  return run;
}

std::string campaign_json(const std::vector<analysis::ExperimentSpec>& specs,
                          Engine engine, unsigned jobs) {
  runner::CampaignConfig cfg;
  for (auto spec : specs) {
    configure(spec, engine);
    cfg.specs.push_back(std::move(spec));
  }
  cfg.seeds = {0, 2};
  cfg.jobs = jobs;
  runner::JsonOptions opts;  // deterministic section only
  return runner::to_json(runner::run_campaign(cfg), opts);
}

std::vector<analysis::ExperimentSpec> registry_specs() {
  std::vector<analysis::ExperimentSpec> specs;
  for (const auto& s : analysis::ScenarioRegistry::built_in().all()) {
    auto spec = s.make();
    // Uniform short recordings keep the sweep cheap; equivalence must hold
    // at any duration, so a shared override loses no coverage.
    spec.duration = sim::Millis{500.0};
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Seeded fault grid beyond the registry's BER cells: scheduled flips land
/// inside batched mid-frame windows (forcing the per-bit fallback), a
/// stuck-bus window interrupts a frame outright, and a skewed attacker
/// mis-samples inside frames while idle stretches run as long windows.
std::vector<analysis::ExperimentSpec> fault_grid_specs() {
  std::vector<analysis::ExperimentSpec> specs;
  {
    auto spec = analysis::table2_experiment(2);
    spec.label = "grid: scheduled flips";
    spec.duration = sim::Millis{400.0};
    for (std::uint64_t frame = 1; frame <= 9; frame += 2) {
      can::ScheduledFlip flip;
      flip.frame = frame;
      flip.field = can::Field::Data;
      flip.bit = static_cast<int>(frame) * 3 % 16;
      spec.fault.flips.push_back(flip);
    }
    specs.push_back(std::move(spec));
  }
  {
    auto spec = analysis::table2_experiment(4);
    spec.label = "grid: stuck bus + BER";
    spec.duration = sim::Millis{400.0};
    spec.fault.bit_error_rate = 5e-4;
    spec.fault.stuck.push_back({3000, 40, sim::BitLevel::Dominant});
    spec.fault.stuck.push_back({9000, 25, sim::BitLevel::Recessive});
    specs.push_back(std::move(spec));
  }
  {
    auto spec = analysis::ScenarioRegistry::built_in().make("busy-bus");
    spec.label = "grid: busy bus + BER";
    spec.duration = sim::Millis{400.0};
    spec.fault.bit_error_rate = 1e-4;
    specs.push_back(std::move(spec));
  }
  {
    auto spec = analysis::table2_experiment(2);
    spec.label = "grid: skewed attacker";
    spec.duration = sim::Millis{400.0};
    spec.fault.skews = {{"attacker1", 0.04, 0.01}};
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(EngineEquivalence, EveryScenarioByteIdenticalAcrossEnginesAndJobs) {
  const auto specs = registry_specs();
  ASSERT_GE(specs.size(), 10u);

  const std::string reference =
      campaign_json(specs, Engine::Batched, /*jobs=*/1);
  for (const Engine engine : kEngines) {
    for (const unsigned jobs : {1u, 4u}) {
      if (engine == Engine::Batched && jobs == 1) continue;  // the reference
      EXPECT_EQ(reference, campaign_json(specs, engine, jobs))
          << "engine '" << engine_name(engine) << "' at jobs=" << jobs
          << " diverges from the batched jobs=1 reference";
    }
  }
}

TEST(EngineEquivalence, FaultInjectionGridByteIdenticalAcrossEngines) {
  const auto specs = fault_grid_specs();
  const std::string reference =
      campaign_json(specs, Engine::Batched, /*jobs=*/1);
  EXPECT_EQ(reference, campaign_json(specs, Engine::Naive, /*jobs=*/1))
      << "fault grid: naive engine diverges";
  EXPECT_EQ(reference, campaign_json(specs, Engine::Batched, /*jobs=*/4))
      << "fault grid: batched report depends on the worker count";
}

// The registry sweep above is only a multi-bus gate if the registry
// actually contains gateway-bridged scenarios; pin that so dropping them
// can't silently shrink the equivalence surface.
TEST(EngineEquivalence, RegistrySweepCoversMultiBusTopologies) {
  std::size_t multibus = 0;
  for (const auto& s : analysis::ScenarioRegistry::built_in().all()) {
    if (s.make().topology.buses > 1) ++multibus;
  }
  EXPECT_GE(multibus, 2u)
      << "expected gateway-bridged (buses > 1) scenarios in the registry";
}

// Likewise the sweep only exercises the toolkit attack profiles (flood /
// fuzz / replay, plus the rest-bus trace-replay path) if the registry keeps
// its atk-* rows; pin them so they stay under the equivalence gate.
TEST(EngineEquivalence, RegistrySweepCoversAttackProfiles) {
  const auto& reg = analysis::ScenarioRegistry::built_in();
  std::size_t atk = 0;
  for (const auto& s : reg.all()) {
    if (s.name.rfind("atk-", 0) == 0) ++atk;
  }
  EXPECT_GE(atk, 6u) << "expected the atk-* attack-profile scenarios";
  for (const char* name : {"atk-flood-dos", "atk-fuzz-std", "atk-fuzz-ext",
                           "atk-replay-spoof", "atk-replay-csv"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_FALSE(reg.make("atk-replay-csv").trace_replay.text.empty())
      << "atk-replay-csv must exercise the rest-bus trace-replay path";
}

// Cross-bus wakeups with a latency that never aligns with 64-bit batch
// words: gateway release times fall mid-word, so both long idle windows and
// frame windows must chunk around them without losing an edge.
TEST(EngineEquivalence, MultiBusOddLatencyByteIdenticalAcrossEngines) {
  auto base = analysis::ScenarioRegistry::built_in().make("gw-spoof");
  base.topology.gateway_latency = sim::Bits{13};
  base.duration = sim::Millis{400.0};
  const std::vector<analysis::ExperimentSpec> specs{base};
  const std::string reference =
      campaign_json(specs, Engine::Batched, /*jobs=*/1);
  EXPECT_EQ(reference, campaign_json(specs, Engine::Naive, /*jobs=*/1))
      << "multi-bus odd latency: naive engine diverges";
}

TEST(EngineEquivalence, GoldenOutputsByteIdenticalWithTimelineCapture) {
  auto make = [](Engine engine) {
    auto spec = analysis::ScenarioRegistry::built_in().make("fig6");
    configure(spec, engine);
    return analysis::run_experiment(spec);
  };
  const auto batched = make(Engine::Batched);
  const auto naive = make(Engine::Naive);

  EXPECT_EQ(batched.fig6_trace, naive.fig6_trace);
  EXPECT_EQ(batched.timeline_json, naive.timeline_json);
  EXPECT_EQ(batched.events_jsonl, naive.events_jsonl);
  EXPECT_EQ(batched.metrics.to_json(), naive.metrics.to_json());

  // The perf counters are the one allowed difference: they live outside the
  // deterministic surfaces compared above.
  EXPECT_EQ(naive.bits_skipped, 0u);
  EXPECT_EQ(naive.bits_batched, 0u);
}

TEST(EngineEquivalence, IdleHeavyScenarioActuallySkips) {
  auto spec = analysis::ScenarioRegistry::built_in().make("controllers-only");
  spec.duration = sim::Millis{500.0};
  const auto res = analysis::run_experiment(spec);
  const auto bits = res.metrics.counter_value("bus.bits_simulated");
  ASSERT_GT(bits, 0u);
  // A periodic defender plus the light rest-bus replay leaves the majority
  // of the bus idle; long all-recessive windows must cover most of it, not
  // just probe.
  EXPECT_GT(res.bits_skipped, bits / 2);
}

TEST(EngineEquivalence, BusyBusScenarioActuallyBatches) {
  auto spec = analysis::ScenarioRegistry::built_in().make("busy-bus");
  spec.duration = sim::Millis{500.0};
  const auto res = analysis::run_experiment(spec);
  const auto bits = res.metrics.counter_value("bus.bits_simulated");
  ASSERT_GT(bits, 0u);
  // The heavily loaded, defense-off bus is almost always mid-frame: the
  // word engine must carry the bulk of the run, not just probe.
  EXPECT_GT(res.bits_batched, bits / 2);
}

TEST(EngineEquivalence, DefendedIdleBusActuallyBatches) {
  auto spec = analysis::ScenarioRegistry::built_in().make("restbus-idle");
  spec.duration = sim::Millis{500.0};
  ASSERT_TRUE(spec.defense_enabled);
  const auto res = analysis::run_experiment(spec);
  const auto bits = res.metrics.counter_value("bus.bits_simulated");
  ASSERT_GT(bits, 0u);
  // Benign frames past an armed monitor's verdict are reaction-free: the
  // engine must resolve a real share of them in windows, or the
  // registry-wide identity sweep above would pass vacuously on every armed
  // scenario.  (bits_batched leaves out idle windows, whose resolved word
  // is all recessive; a monitor that vetoed in-frame windows gives 0.)
  EXPECT_GE(res.bits_batched * 20, bits)
      << "restbus-idle batched " << res.bits_batched << " of " << bits
      << " bits, below 5 %";
}

TEST(EngineEquivalence, NoFastPathFlagPinsTheNaiveKernel) {
  // --no-fast-path is the one engine switch: parsed the way michican_cli
  // parses it and copied into a spec the way its subcommands do, it must
  // leave no bit to a window.
  std::string prog = "michican_cli";
  std::string flag = "--no-fast-path";
  char* argv[] = {prog.data(), flag.data(), nullptr};
  int argc = 2;
  const auto opts = runner::parse_cli(argc, argv);
  ASSERT_FALSE(opts.fast_path);
  auto spec = analysis::ScenarioRegistry::built_in().make("busy-bus");
  spec.duration = sim::Millis{200.0};
  spec.fast_path = opts.fast_path;
  const auto res = analysis::run_experiment(spec);
  ASSERT_GT(res.metrics.counter_value("bus.bits_simulated"), 0u);
  EXPECT_EQ(res.bits_batched, 0u);
  EXPECT_EQ(res.bits_skipped, 0u);
}

TEST(EngineEquivalence, StaleNextActivityThrowsInsteadOfSkipping) {
  // One 200-bit all-recessive window covers the liar's dominant edge at bit
  // 50; the check at the bit after the window must catch the stale promise.
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  LyingNode liar;
  bus.attach(liar);
  EXPECT_THROW(bus.run(sim::Bits{200}), std::logic_error);
}

TEST(EngineEquivalence, NaiveKernelToleratesTheLiar) {
  // With the fast path off the same node is stepped bit by bit — no
  // promise, no violation; its dominant edge simply lands on the wire.
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(false);
  LyingNode liar;
  bus.attach(liar);
  EXPECT_NO_THROW(bus.run(sim::Bits{200}));
  EXPECT_EQ(bus.bits_skipped(), 0u);
}

TEST(EngineEquivalence, LyingDrivePatternThrowsInsteadOfBatching) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  BatchLyingNode liar;
  bus.attach(liar);
  EXPECT_THROW(bus.run(sim::Bits{200}), std::logic_error);
}

TEST(EngineEquivalence, PerBitKernelToleratesTheBatchLiar) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  bus.set_fast_path(false);
  BatchLyingNode liar;
  bus.attach(liar);
  EXPECT_NO_THROW(bus.run(sim::Bits{200}));
  EXPECT_EQ(bus.bits_batched(), 0u);
}

// Bus-off entry clears the queue: the parked hook must run on the next bit
// and refill it while the controller is still bus-off, as on the naive tier.
TEST(EngineEquivalence, ParkedHookWakesWhenBusOffClearsTheQueue) {
  const auto naive =
      run_parked_flood(Engine::Naive, FloodHook::RefillWhileBusOff);
  const auto batched =
      run_parked_flood(Engine::Batched, FloodHook::RefillWhileBusOff);
  ASSERT_GE(naive.bus_off_entries, 5u);
  ASSERT_GE(naive.recoveries, 5u);
  EXPECT_EQ(naive.events, batched.events);
}

// A hook that parks while bus-off must run again on the bit after recovery.
TEST(EngineEquivalence, ParkedHookWakesWhenBusOffEnds) {
  const auto naive =
      run_parked_flood(Engine::Naive, FloodHook::WaitForRecovery);
  const auto batched =
      run_parked_flood(Engine::Batched, FloodHook::WaitForRecovery);
  ASSERT_GE(naive.bus_off_entries, 5u);
  ASSERT_GE(naive.recoveries, 5u);
  EXPECT_EQ(naive.events, batched.events);
}

// A one-shot controller drops its frame on every error and every lost
// arbitration: each drop must wake the parked hook, as a sent frame does.
TEST(EngineEquivalence, ParkedHookWakesWhenOneShotDropsTheFrame) {
  const auto naive = run_parked_flood(
      Engine::Naive, FloodHook::RefillWhileBusOff, /*one_shot=*/true);
  const auto batched = run_parked_flood(
      Engine::Batched, FloodHook::RefillWhileBusOff, /*one_shot=*/true);
  ASSERT_GE(naive.bus_off_entries, 5u);
  ASSERT_GE(naive.arbitration_losses, 5u);
  EXPECT_EQ(naive.events, batched.events);
}

// The saving itself, which no byte-identity gate can see: a parked flood
// hook runs once per queue change and bus-off transition under the engine,
// not once per bit as under the naive kernel.
TEST(EngineEquivalence, ParkedHookRunsOncePerQueueChange) {
  const auto naive =
      run_parked_flood(Engine::Naive, FloodHook::RefillWhileBusOff);
  const auto batched =
      run_parked_flood(Engine::Batched, FloodHook::RefillWhileBusOff);
  EXPECT_EQ(naive.hook_calls, 20'000u);
  EXPECT_LT(batched.hook_calls * 10, naive.hook_calls)
      << "the parked hook ran " << batched.hook_calls << " times";
}

TEST(DurationTypes, BitsAndMillisConvertExactly) {
  const sim::BusSpeed speed{50'000};
  EXPECT_EQ(speed.to_bits(sim::Millis{1000.0}).value(), 50'000);
  EXPECT_EQ(speed.to_bits(sim::Millis{2.0}).value(), 100);
  EXPECT_DOUBLE_EQ(speed.to_millis(sim::Bits{50'000}).value(), 1000.0);
  EXPECT_TRUE(sim::Millis{1.0} < sim::Millis{2.0});
  EXPECT_EQ(sim::Bits{10} + sim::Bits{5}, sim::Bits{15});
}

}  // namespace
}  // namespace mcan
