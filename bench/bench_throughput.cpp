// Simulator self-profiling baseline: bits simulated per wall-clock second
// across scenarios of increasing protocol activity, the speedup of the
// batch-window engine over the naive per-bit kernel, and the cost of the
// observability layer itself (metrics-harvest share and timeline-capture
// on-vs-off overhead).
//
//   bench_throughput [--seeds N] [--report PATH]
//
// The workload mix comes from analysis::ScenarioRegistry — the same names
// `michican_cli list-scenarios` prints — so a scenario row here and a
// campaign invocation mean the same spec.  Every scenario runs under both
// engine tiers — the batch-window engine (fast path) and naive per-bit; the
// two recordings are byte-identical (the equivalence tests enforce it), so
// the speedup column isolates pure kernel cost.
//
// --seeds N controls the repetitions per scenario (default 3; each rep uses
// its own seed so the recordings differ).  The sim_ms columns sum over
// reps; the speedup column compares the *fastest* rep of each engine
// (per-engine minima), which filters out scheduler preemption noise on
// shared runners.  The report is "michican.throughput.v2":
//   {
//     "schema": "michican.throughput.v2",
//     "reps": <n>, "duration_ms": <f>,
//     "scenarios": [{"name": <str>, "bits": <u64>, "sim_ms": <f>,
//                    "bits_per_second": <f>, "events": <u64>,
//                    "busy_fraction": <f>, "bits_skipped": <u64>,
//                    "bits_batched": <u64>,
//                    "naive_sim_ms": <f>, "naive_bits_per_second": <f>,
//                    "min_sim_ms": <f>, "min_naive_sim_ms": <f>,
//                    "speedup": <f>}],
//     "batched_speedup": <f>,     // busy-bus row, engine over naive
//     "armed_batched_speedup": <f>,  // idle-heavy rest-bus row (armed
//                                    // defender), engine over naive
//     "overhead": {"scenario": <str>, "trace_off_ms": <f>,
//                  "trace_on_ms": <f>, "trace_overhead_pct": <f>,
//                  "metrics_phase_pct": <f>}
//   }
// "batched_speedup" gates the busy-bus regime (frame windows) and
// "armed_batched_speedup" the idle-heavy regime with an armed defender
// (long idle windows plus the frames past the monitor's verdict): the run
// exits nonzero when either drops below its floor pinned in
// bench/throughput_floor.json.  Like the golden traces, the pins update
// via an env var —
//
//   MICHICAN_UPDATE_FLOOR=1 ./bench_throughput
//
// rewrites each floor to 80% of the measured speedup (the margin absorbs
// shared-runner timing noise) instead of gating.
// Timings are wall clocks — the one intentionally non-deterministic output
// in the BENCH_* family.  The metrics-harvest share should stay well below
// 5% of task wall time; the driver warns (but does not fail) above that.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/scenarios.hpp"
#include "analysis/table.hpp"
#include "obs/jsonfmt.hpp"
#include "obs/timeline.hpp"
#include "runner/cli.hpp"

namespace {

using namespace mcan;
using analysis::fmt;
using obs::fmt_double;

/// Registry names of the workload mix, in increasing protocol activity.
/// kIdleHeavy is the armed-defender reference row: a periodic defender plus
/// the replayed rest-bus matrix leaves most of the 50 kbit/s bus idle (long
/// all-recessive windows), and its benign frames pass the armed monitor's
/// verdict (frame windows).  kBusyBus is the frame-window reference row: an
/// ~80% loaded rest-bus replay with the defense monitor off, so nearly
/// every bit sits inside a long transparent horizon the engine can resolve
/// 64 at a time.  kOverheadScenario hosts the observability-cost
/// measurement.
/// atk-flood-paced tracks the toolkit attack profiles: a rate-paced flood
/// against the live defense with the rest-bus replay underneath.
constexpr const char* kScenarioNames[] = {
    "idle-bus", "restbus-idle", "controllers-only",
    "exp2",     "exp5",         "atk-flood-paced",
    "busy-bus", "dos-ber1e-4"};
constexpr const char* kIdleHeavy = "restbus-idle";
constexpr const char* kBusyBus = "busy-bus";
constexpr const char* kOverheadScenario = "exp5";

/// Which kernel configuration a flavour exercises.
enum class Engine {
  kNaive,    // per-bit stepping (fast path off)
  kBatched,  // batch-window engine (the default config)
};

struct ScenarioRun {
  std::string name;
  // Batched-engine flavour — the shipping default — fills the primary
  // columns; the naive_* columns hold the comparison tier.
  std::uint64_t bits{};
  double sim_ms{};      // wall clock inside bus.run, summed over reps
  double total_ms{};    // whole run_experiment wall clock, summed over reps
  double metrics_ms{};  // metrics-harvest phase, summed over reps
  std::uint64_t events{};
  std::uint64_t bits_skipped{};  // covered by all-recessive (idle) windows
  std::uint64_t bits_batched{};  // covered by every other window
  double busy_fraction{};        // of the last rep
  double naive_sim_ms{};  // same reps with the fast path off
  std::uint64_t naive_bits{};
  // Fastest single rep per engine.  The speedup column (and the CI floor
  // gates) use these: each rep simulates the same bit count, so the ratio
  // of per-engine minima measures kernel cost with scheduler noise — a
  // real hazard on shared runners — filtered out, where a ratio of sums
  // lets one preempted rep swing the gate by 2-3x.
  double min_sim_ms{1e300};
  double min_naive_sim_ms{1e300};

  [[nodiscard]] double bits_per_second() const {
    return sim_ms > 0 ? static_cast<double>(bits) / (sim_ms / 1e3) : 0.0;
  }
  [[nodiscard]] double naive_bits_per_second() const {
    return naive_sim_ms > 0
               ? static_cast<double>(naive_bits) / (naive_sim_ms / 1e3)
               : 0.0;
  }
  /// Batched-engine speedup over the naive kernel (1 = no gain), from the
  /// fastest rep of each engine.
  [[nodiscard]] double speedup() const {
    return min_sim_ms > 0 && min_naive_sim_ms < 1e300
               ? min_naive_sim_ms / min_sim_ms
               : 0.0;
  }
};

/// One pinned speedup gate: its key in throughput_floor.json, what it
/// measures, and the measured value.
struct FloorGate {
  const char* key;
  std::string what;
  double measured;
};

#ifndef MICHICAN_BENCH_DIR
#error "MICHICAN_BENCH_DIR must point at the bench source directory"
#endif

std::string floor_path() {
  return std::string{MICHICAN_BENCH_DIR} + "/throughput_floor.json";
}

/// Read floor `key` out of the pinned floor file.  The file is a one-object
/// JSON document we wrote ourselves, so a key scan is enough — no parser
/// dependency.  Returns a negative value when the file or key is missing
/// (the caller fails loudly: a silently absent floor is no gate).
double read_pinned_floor(const std::string& key) {
  std::ifstream in{floor_path()};
  if (!in) return -1.0;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\":";
  const auto at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

bool write_pinned_floors(const std::vector<FloorGate>& gates) {
  std::string os;
  os += "{\"schema\":\"michican.throughput_floor.v1\",";
  for (const auto& g : gates) {
    os += "\"";
    os += g.key;
    os += "\":" + fmt_double(0.8 * g.measured) + ",";
  }
  os += "\"note\":\"Minimum speedups bench_throughput fails below: "
        "batched_speedup_floor is the busy-bus batch-window engine over the "
        "naive per-bit kernel, armed_batched_speedup_floor the restbus-idle "
        "engine over naive (armed defender).  Regenerate with "
        "MICHICAN_UPDATE_FLOOR=1 (pins 80% of each measured speedup).\"}\n";
  return obs::write_text_file(floor_path(), os);
}

analysis::ExperimentSpec bench_spec(const std::string& name,
                                    double duration_ms) {
  auto spec = analysis::ScenarioRegistry::built_in().make(name);
  spec.duration = sim::Millis{duration_ms};
  spec.capture_timeline = false;
  return spec;
}

/// Accumulate `reps` recordings of `spec` into `run` under one engine tier
/// (batched fills the primary columns, naive its comparison ones).
void accumulate(ScenarioRun& run, analysis::ExperimentSpec spec,
                std::size_t reps, Engine engine, bool capture_timeline) {
  spec.fast_path = engine == Engine::kBatched;
  spec.capture_timeline = capture_timeline;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    spec.seed = 42 + rep;
    const auto res = analysis::run_experiment(spec);
    const auto bits = res.metrics.counter_value("bus.bits_simulated");
    const auto sim_ms = res.profile.total_ms("task.sim");
    switch (engine) {
      case Engine::kBatched:
        run.bits += bits;
        run.events += res.metrics.counter_value("bus.events");
        run.sim_ms += sim_ms;
        run.min_sim_ms = std::min(run.min_sim_ms, sim_ms);
        for (const auto& [name, phase] : res.profile.phases()) {
          run.total_ms += phase.total_ms;
        }
        run.metrics_ms += res.profile.total_ms("task.metrics");
        run.bits_skipped += res.bits_skipped;
        run.bits_batched += res.bits_batched;
        run.busy_fraction = res.busy_fraction;
        break;
      case Engine::kNaive:
        run.naive_bits += bits;
        run.naive_sim_ms += sim_ms;
        run.min_naive_sim_ms = std::min(run.min_naive_sim_ms, sim_ms);
        break;
    }
  }
}

ScenarioRun run_scenario(const std::string& name, double duration_ms,
                         std::size_t reps, bool capture_timeline) {
  ScenarioRun run;
  run.name = name;
  accumulate(run, bench_spec(name, duration_ms), reps, Engine::kBatched,
             capture_timeline);
  accumulate(run, bench_spec(name, duration_ms), reps, Engine::kNaive,
             capture_timeline);
  return run;
}

bool write_report(const std::string& path,
                  const std::vector<ScenarioRun>& runs, std::size_t reps,
                  double duration_ms, double batched_speedup,
                  double armed_batched_speedup,
                  const ScenarioRun& trace_off, const ScenarioRun& trace_on) {
  std::string os;
  os += "{\"schema\":\"michican.throughput.v2\",\"reps\":";
  os += std::to_string(reps);
  os += ",\"duration_ms\":" + fmt_double(duration_ms);
  os += ",\"scenarios\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    if (i != 0) os += ",";
    os += "{\"name\":\"" + obs::json_escape(r.name) + "\",\"bits\":";
    os += std::to_string(r.bits);
    os += ",\"sim_ms\":" + fmt_double(r.sim_ms);
    os += ",\"bits_per_second\":" + fmt_double(r.bits_per_second());
    os += ",\"events\":" + std::to_string(r.events);
    os += ",\"busy_fraction\":" + fmt_double(r.busy_fraction);
    os += ",\"bits_skipped\":" + std::to_string(r.bits_skipped);
    os += ",\"bits_batched\":" + std::to_string(r.bits_batched);
    os += ",\"naive_sim_ms\":" + fmt_double(r.naive_sim_ms);
    os += ",\"naive_bits_per_second\":" + fmt_double(r.naive_bits_per_second());
    os += ",\"min_sim_ms\":" + fmt_double(r.min_sim_ms);
    os += ",\"min_naive_sim_ms\":" + fmt_double(r.min_naive_sim_ms);
    os += ",\"speedup\":" + fmt_double(r.speedup()) + "}";
  }
  const double overhead_pct =
      trace_off.total_ms > 0
          ? 100.0 * (trace_on.total_ms - trace_off.total_ms) /
                trace_off.total_ms
          : 0.0;
  const double metrics_pct = trace_off.total_ms > 0
                                 ? 100.0 * trace_off.metrics_ms /
                                       trace_off.total_ms
                                 : 0.0;
  os += "],\"batched_speedup\":" + fmt_double(batched_speedup);
  os += ",\"armed_batched_speedup\":" + fmt_double(armed_batched_speedup);
  os += ",\"overhead\":{\"scenario\":\"" + obs::json_escape(trace_off.name);
  os += "\",\"trace_off_ms\":" + fmt_double(trace_off.total_ms);
  os += ",\"trace_on_ms\":" + fmt_double(trace_on.total_ms);
  os += ",\"trace_overhead_pct\":" + fmt_double(overhead_pct);
  os += ",\"metrics_phase_pct\":" + fmt_double(metrics_pct);
  os += "}}\n";
  return obs::write_text_file(path, os);
}

}  // namespace

int main(int argc, char** argv) {
  runner::CliOptions defaults;
  defaults.seeds = {0, 3};  // --seeds N = repetitions per scenario
  defaults.report_path = "BENCH_throughput.json";
  const auto opts = runner::parse_cli(argc, argv, defaults);
  const std::size_t reps = opts.seeds.size();
  const double duration_ms = 500.0;

  std::vector<ScenarioRun> runs;
  for (const char* name : kScenarioNames) {
    runs.push_back(
        run_scenario(name, duration_ms, reps, /*capture_timeline=*/false));
  }

  double batched_speedup = 0.0;
  double armed_batched_speedup = 0.0;
  analysis::AsciiTable t{{"Scenario", "Bits", "Mbit/s (sim)", "Skipped",
                          "Batched", "Speedup", "Busy"}};
  for (const auto& r : runs) {
    if (r.name == kIdleHeavy) armed_batched_speedup = r.speedup();
    if (r.name == kBusyBus) batched_speedup = r.speedup();
    t.add_row({r.name, std::to_string(r.bits),
               fmt(r.bits_per_second() / 1e6, 2),
               std::to_string(r.bits_skipped),
               std::to_string(r.bits_batched), fmt(r.speedup(), 2) + "x",
               analysis::fmt_pct(r.busy_fraction)});
  }
  t.print(std::cout, "Simulated-bit throughput (" + std::to_string(reps) +
                         " reps x " + fmt(duration_ms, 0) +
                         " ms at 50 kbit/s, batch-window engine vs naive "
                         "kernel):");
  std::cout << "batched speedup on " << kBusyBus << ": "
            << fmt(batched_speedup, 2) << "x\n";
  std::cout << "armed batched speedup on " << kIdleHeavy
            << " (engine/naive): " << fmt(armed_batched_speedup, 2) << "x\n";

  // Regression gates for the batch engine, pinned like a golden trace.
  const std::vector<FloorGate> gates{
      {"batched_speedup_floor",
       std::string{"batched speedup on "} + kBusyBus, batched_speedup},
      {"armed_batched_speedup_floor",
       std::string{"armed batched speedup on "} + kIdleHeavy,
       armed_batched_speedup}};
  if (std::getenv("MICHICAN_UPDATE_FLOOR") != nullptr) {
    if (!write_pinned_floors(gates)) {
      std::cerr << "error: could not write " << floor_path() << "\n";
      return 1;
    }
    std::cout << "floors regenerated: " << floor_path() << "\n";
  } else {
    for (const auto& g : gates) {
      const double floor = read_pinned_floor(g.key);
      if (floor < 0) {
        std::cerr << "error: missing or malformed " << g.key << " in "
                  << floor_path()
                  << " — regenerate with MICHICAN_UPDATE_FLOOR=1\n";
        return 1;
      }
      if (g.measured < floor) {
        std::cerr << "error: " << g.what << " " << fmt(g.measured, 2)
                  << "x fell below the pinned floor " << fmt(floor, 2)
                  << "x; if the regression is intentional, rerun with "
                     "MICHICAN_UPDATE_FLOOR=1 and review the diff\n";
        return 1;
      }
      std::cout << "pinned floor " << g.key << ": " << fmt(floor, 2)
                << "x (ok)\n";
    }
  }

  // Observability overhead, measured on the busiest attack scenario: the
  // timeline exporter is the only per-event cost, everything else is
  // counter increments and a harvest pass.
  const auto trace_off = run_scenario(kOverheadScenario, duration_ms, reps,
                                      /*capture_timeline=*/false);
  const auto trace_on = run_scenario(kOverheadScenario, duration_ms, reps,
                                     /*capture_timeline=*/true);
  const double overhead_pct =
      trace_off.total_ms > 0
          ? 100.0 * (trace_on.total_ms - trace_off.total_ms) /
                trace_off.total_ms
          : 0.0;
  const double metrics_pct =
      trace_off.total_ms > 0
          ? 100.0 * trace_off.metrics_ms / trace_off.total_ms
          : 0.0;
  std::cout << "\nObservability cost (" << trace_off.name
            << "): metrics harvest " << fmt(metrics_pct, 2)
            << "% of task wall, timeline capture "
            << (overhead_pct >= 0 ? "+" : "") << fmt(overhead_pct, 1)
            << "% on top\n";
  if (metrics_pct > 5.0) {
    std::cout << "warning: metrics harvest above the 5% budget (timing "
                 "noise is likely at short durations)\n";
  }

  if (!opts.report_path.empty()) {
    if (write_report(opts.report_path, runs, reps, duration_ms,
                     batched_speedup, armed_batched_speedup, trace_off,
                     trace_on)) {
      std::cout << "JSON report: " << opts.report_path << "\n";
    } else {
      std::cerr << "error: could not write " << opts.report_path << "\n";
      return 1;
    }
  }
  return 0;
}
