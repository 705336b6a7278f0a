// Regenerates the detection-latency study of Sec. V-B: 160,000 random
// FSMs, mean detection bit position (paper: 9 bits), 100 % detection rate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "analysis/latency.hpp"
#include "analysis/table.hpp"
#include "core/fsm.hpp"
#include "restbus/vehicles.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mcan;
using analysis::fmt;

void print_study() {
  analysis::LatencyStudyConfig cfg;
  cfg.num_fsms = 160'000;  // as in the paper
  const auto start = std::chrono::steady_clock::now();
  const auto res = analysis::run_latency_study(cfg);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  analysis::AsciiTable t{{"Metric", "Value", "Paper"}};
  t.add_row({"random FSMs evaluated", std::to_string(res.fsms_built),
             "160,000"});
  t.add_row({"mean detection bit position",
             fmt(res.mean_detection_bit, 2), "9"});
  t.add_row({"detection rate (verified subset)",
             analysis::fmt_pct(res.detection_rate, 2), "100%"});
  t.add_row({"false positives (verified subset)",
             analysis::fmt_pct(res.false_positive_rate, 2), "0% (implied)"});
  t.add_row({"per-FSM mean depth: min/max",
             fmt(res.per_fsm_mean.min, 1) + " / " + fmt(res.per_fsm_mean.max, 1),
             "-"});
  t.add_row({"mean FSM size (nodes)", fmt(res.mean_fsm_nodes, 0), "-"});
  t.add_row({"max tree depth observed", std::to_string(res.max_depth_seen),
             "11 (ID width)"});
  t.add_row({"study wall time (one thread)", fmt(wall.count(), 1) + " s",
             "-"});
  t.print(std::cout, "Sec. V-B: detection latency over random FSMs");

  // Detection latency in time units at the paper's bus speeds.
  analysis::AsciiTable l{{"Bus speed", "Bit time", "Mean detection latency"}};
  for (const double speed : {50e3, 125e3, 250e3, 500e3}) {
    l.add_row({fmt(speed / 1e3, 0) + " kbit/s",
               fmt(1e6 / speed, 1) + " us",
               fmt(analysis::detection_latency_us(res.mean_detection_bit,
                                                  speed),
                   1) +
                   " us"});
  }
  l.print(std::cout, "\nDetection latency = bit position * nominal bit time:");

  // Per-vehicle deployments: decision depth for each evaluation bus.
  analysis::AsciiTable v{
      {"Bus", "|E|", "FSM nodes", "Mean depth (benign)", "Mean depth (uniform)"}};
  for (const auto& m : restbus::all_vehicle_matrices()) {
    const core::IvnConfig ivn{m.ecu_ids()};
    const auto fsm =
        core::DetectionFsm::build(ivn.detection_ranges(ivn.highest()));
    double benign = 0;
    for (const auto id : ivn.ecus()) benign += fsm.decide(id).bit_position;
    benign /= static_cast<double>(ivn.ecus().size());
    double uniform = 0;
    std::uint64_t ids = 0;
    fsm.for_each_leaf([&](int depth, std::uint32_t count, bool) {
      uniform += static_cast<double>(depth) * count;
      ids += count;
    });
    uniform /= static_cast<double>(ids);
    v.add_row({m.bus_name(), std::to_string(ivn.ecus().size()),
               std::to_string(fsm.node_count()), fmt(benign, 1),
               fmt(uniform, 1)});
  }
  v.print(std::cout, "\nPer-vehicle deployments (FSM of ECU_N):");
}

void BM_FsmBuild(benchmark::State& state) {
  sim::Rng rng{42};
  std::vector<can::CanId> ids;
  for (int i = 0; i < state.range(0); ++i) {
    ids.push_back(static_cast<can::CanId>(rng.uniform(0, can::kMaxStdId)));
  }
  const core::IvnConfig ivn{ids};
  for (auto _ : state) {
    auto fsm = core::DetectionFsm::build(ivn.detection_ranges(ivn.highest()));
    benchmark::DoNotOptimize(fsm);
  }
}
BENCHMARK(BM_FsmBuild)->Arg(8)->Arg(32)->Arg(128)->Arg(600);

void BM_FsmDecide(benchmark::State& state) {
  sim::Rng rng{42};
  std::vector<can::CanId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(static_cast<can::CanId>(rng.uniform(0, can::kMaxStdId)));
  }
  const core::IvnConfig ivn{ids};
  const auto fsm =
      core::DetectionFsm::build(ivn.detection_ranges(ivn.highest()));
  can::CanId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm.decide(id));
    id = (id + 1) & can::kMaxStdId;
  }
}
BENCHMARK(BM_FsmDecide);

}  // namespace

int main(int argc, char** argv) {
  print_study();
  std::cout << "\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
