// MichiCAN benchmark driver: host-time cost of the paper's workloads, end to
// end and per layer (README.md beside this file lists every metric).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--force-mismatch]
//
// One process runs whole passes of a workload until S seconds have passed.
// Campaign workloads are a closed loop: the runner's worker pool pulls the
// next cell when it finishes one, with no arrival rate.  Every pass checks
// its output (the deterministic report must repeat byte for byte across
// passes, plus per-workload checks), and every mismatch is counted as a
// failure.  The last line of stdout is one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
//
// --trace 0 reports the end-to-end metrics with tracing off.  --trace 1
// alternates untraced and traced passes, runs the layer probes, writes the
// spans to DIR/<workload>.trace.json once at the end, and reports the
// per-layer metrics.  A layer a workload does not reach reports 0.
// --force-mismatch corrupts one pass's report to prove the checks count it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/latency.hpp"
#include "analysis/scenarios.hpp"
#include "core/detection.hpp"
#include "core/fsm.hpp"
#include "obs/jsonfmt.hpp"
#include "obs/trace_context.hpp"
#include "runner/campaign.hpp"
#include "runner/cell_codec.hpp"
#include "runner/cell_store.hpp"
#include "runner/report.hpp"
#include "serve/disk_store.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using namespace mcan;
using Clock = std::chrono::steady_clock;

// ---- run shape -------------------------------------------------------------

/// Campaign worker threads.  One worker keeps the host-time figures steady
/// on a small shared machine; the loop stays closed either way.
constexpr unsigned kJobs = 1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Fewest timed passes per run (per kind in a traced run).
constexpr int kMinPasses = 3;
/// Cells per scenario: 7 x 15 = 105 Table II cells and 3 x 34 = 102
/// open-bus cells, so p90 has >= 10 samples above it in a single pass.
/// Both scenario lists have an odd count of cost clusters so that the cell
/// median falls inside one scenario's cluster, not in the gap between two.
constexpr std::uint64_t kTable2Seeds = 15;
constexpr std::uint64_t kOpenBusSeeds = 34;
/// cache-replay grid: 6 Table II scenarios x 128 seeds of 200 ms.
constexpr std::uint64_t kReplaySeeds = 128;
constexpr double kReplayCellMs = 200.0;
constexpr std::uint64_t kReplayWarmupSeeds = 8;
/// fsm-study: 20 study cells of 50 FSMs = 1,000 FSMs per pass.
constexpr int kFsmCells = 20;
constexpr int kFsmsPerCell = 50;
/// Layer probes (traced run only).
constexpr std::uint64_t kArmedProbeSeeds = 24;
constexpr int kArmedProbeRounds = 3;
constexpr int kFsmProbeConfigs = 200;

/// Table II pooled bus-off mean per attacker row, in ms (paper, Table II):
/// Exp. 1-4, Exp. 5 0x066 / 0x067, Exp. 6.
constexpr double kPaperMuMs[] = {24.6, 24.2, 25.1, 24.9, 39.0, 35.4, 24.9};
/// Sec. V-B: mean detection bit position over random FSMs.
constexpr double kPaperDetectionBit = 9.0;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> xs) {
  return sim::percentile(std::move(xs), 50.0);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- reference loop --------------------------------------------------------
//
// On a shared host (a cloud VM) other tenants' load can move the speed of
// every instruction stream by up to ~1.5x for tens of seconds at a time.  Each timed region is therefore bracketed by a fixed
// reference loop (branchy byte-table walk, 1 MiB working set, ~45 ms) that
// lives in this file and never changes with the program, and host times are
// reported as normalised seconds:
//
//   normalised = measured * kReferenceNominalS / (mean reference time around it)
//
// i.e. the time the region would take on a host where the reference loop
// takes kReferenceNominalS (its typical time on the 4-core Xeon the
// baseline came from).  Raw medians are printed beside the normalised ones.

constexpr double kReferenceNominalS = 0.0477;

std::atomic<std::uint64_t> g_reference_sink{0};

/// Runs the reference loop once; returns its wall time in seconds.
double reference_s() {
  static std::vector<std::uint8_t> table(1u << 20);
  std::fill(table.begin(), table.end(), std::uint8_t{1});
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  std::uint32_t p = 0;
  const auto start = Clock::now();
  for (int i = 0; i < 3'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint8_t v = table[p];
    switch ((v ^ x) & 7u) {
      case 0: acc += v; p = (p * 31u + v) & 0xFFFFFu; break;
      case 1: acc ^= x; p = (p + 1u) & 0xFFFFFu; break;
      case 2: table[p] = static_cast<std::uint8_t>(x); break;
      case 3: if ((acc & 1u) != 0) { p = (p + v) & 0xFFFFFu; } else { acc += 3; } break;
      case 4: acc = acc * 3 + 1; break;
      case 5: p = static_cast<std::uint32_t>(x >> 40) & 0xFFFFFu; break;
      case 6: table[p] ^= 1u; acc += p; break;
      default: acc -= v; break;
    }
  }
  const double s = seconds_since(start);
  g_reference_sink.store(acc, std::memory_order_relaxed);
  return s;
}

/// Times regions between reference-loop runs: bracket() returns the factor
/// that turns the region's host seconds into normalised seconds.
class Normaliser {
 public:
  Normaliser() : last_(reference_s()) {}
  /// Call right after a timed region; runs the closing reference loop.
  double bracket() {
    const double before = last_;
    last_ = reference_s();
    references_.push_back(last_);
    return kReferenceNominalS / (0.5 * (before + last_));
  }
  [[nodiscard]] double median_reference_s() const { return median(references_); }

 private:
  double last_;
  std::vector<double> references_;
};

// ---- output checks ---------------------------------------------------------

/// Operations attempted and failed: campaign cells, study cells, and every
/// output check.  fail_frac = failed / attempted.
class Checks {
 public:
  void expect(bool ok, std::string_view what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "check failed: " << what << "\n";
    }
  }
  void cells(const runner::CampaignReport& report) {
    attempted_ += report.tasks.size();
    failed_ += report.failed_tasks();
    for (const auto& task : report.tasks) {
      if (!task.ok) std::cerr << "cell failed: " << task.error << "\n";
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

// ---- per-layer samples -----------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order.  Must match the per_layer list
/// of BENCHMARK.json (run.py checks).
constexpr MetricDef kLayerMetrics[] = {
    {"can.bits_simulated", "count"},
    {"can.bits_skipped", "count"},
    {"can.bits_batched", "count"},
    {"can.bits_stepped", "count"},
    {"can.batched_frac", "ratio"},
    {"can.events", "count"},
    {"can.sim_ns_per_bit", "ns"},
    {"can.ns_per_stepped_bit", "ns"},
    {"core.monitor_handler_bits", "count"},
    {"core.armed_overhead_ns_per_bit", "ns"},
    {"core.ranges_us", "us"},
    {"core.fsm_build_us", "us"},
    {"core.decide_ns", "ns"},
    {"core.fsm_nodes_mean", "count"},
    {"analysis.cell_ms", "ms"},
    {"analysis.setup_ms", "ms"},
    {"analysis.harvest_ms", "ms"},
    {"analysis.metrics_ms", "ms"},
    {"analysis.metrics_frac", "ratio"},
    {"runner.encode_us", "us"},
    {"runner.decode_us", "us"},
    {"runner.aggregate_ms", "ms"},
    {"runner.serialize_ms", "ms"},
    {"runner.worker_busy_frac", "ratio"},
    {"runner.self_ms", "ms"},
    {"serve.fetch_us", "us"},
    {"serve.store_us", "us"},
    {"serve.hit_frac", "ratio"},
    {"serve.bytes_per_cell", "bytes"},
    {"trace.overhead_s", "s"},
};

/// Per-layer values collected over the traced passes; each metric reports
/// the median of its samples.  Counts repeat exactly from pass to pass.
class LayerSamples {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Time `span` covers minus the part of it its child spans cover (the union
/// of the children's intervals, clipped to the parent's).
double self_ms(const obs::SpanCollector& spans, std::uint64_t id) {
  const auto all = spans.spans();
  const auto parent = std::find_if(all.begin(), all.end(),
                                   [&](const obs::Span& s) { return s.id == id; });
  if (parent == all.end()) return 0.0;
  const double lo = parent->start_us;
  const double hi = parent->start_us + parent->dur_us;
  std::vector<std::pair<double, double>> children;
  for (const auto& s : all) {
    if (s.parent != id) continue;
    children.emplace_back(std::max(lo, s.start_us),
                          std::min(hi, s.start_us + s.dur_us));
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return (parent->dur_us - covered) / 1e3;
}

/// Layer counters a campaign report already carries: engine bit counts,
/// the task.* phases, aggregation and worker occupancy.
void campaign_layers(const runner::CampaignReport& report,
                     LayerSamples& layers) {
  const auto bits = static_cast<double>(report.bits_simulated());
  const auto skipped = static_cast<double>(report.bits_skipped());
  const auto batched = static_cast<double>(report.bits_batched());
  const double stepped = bits - skipped - batched;
  double events = 0;
  double handler_bits = 0;
  for (const auto& spec : report.specs) {
    events += static_cast<double>(spec.metrics.counter_value("bus.events"));
    handler_bits +=
        static_cast<double>(spec.metrics.counter_value("monitor.fsm_bits") +
                            spec.metrics.counter_value("monitor.track_bits"));
  }
  const auto& prof = report.profile;
  const double sim_ms = prof.total_ms("task.sim");
  double computed = 0;
  double cell_wall_ms = 0;
  for (const auto& task : report.tasks) {
    if (task.ok && !task.cached) ++computed;
    cell_wall_ms += task.wall_ms;
  }
  double phases_ms = 0;
  for (const auto& [name, phase] : prof.phases()) {
    if (name.rfind("task.", 0) == 0) phases_ms += phase.total_ms;
  }

  layers.add("can.bits_simulated", bits);
  layers.add("can.bits_skipped", skipped);
  layers.add("can.bits_batched", batched);
  layers.add("can.bits_stepped", stepped);
  layers.add("can.batched_frac", ratio(batched, bits));
  layers.add("can.events", events);
  layers.add("can.sim_ns_per_bit", ratio(sim_ms * 1e6, bits));
  layers.add("can.ns_per_stepped_bit", ratio(sim_ms * 1e6, stepped));
  layers.add("core.monitor_handler_bits", handler_bits);
  layers.add("analysis.setup_ms", ratio(prof.total_ms("task.setup"), computed));
  layers.add("analysis.harvest_ms",
             ratio(prof.total_ms("task.harvest"), computed));
  layers.add("analysis.metrics_ms",
             ratio(prof.total_ms("task.metrics"), computed));
  layers.add("analysis.metrics_frac",
             ratio(prof.total_ms("task.metrics"), phases_ms));
  layers.add("runner.aggregate_ms", prof.total_ms("campaign.aggregate"));
  layers.add("runner.worker_busy_frac",
             ratio(cell_wall_ms, report.jobs_used * report.wall_ms));
}

/// Per-spec engine split, printed by the traced run so the claimed layer
/// split (which scenario batches, which skips) can be read off directly.
void print_engine_split(const runner::CampaignReport& report) {
  const std::size_t seeds = report.seeds.size();
  for (std::size_t si = 0; si < report.specs.size(); ++si) {
    std::uint64_t bits = 0, skipped = 0, batched = 0;
    for (std::size_t k = 0; k < seeds; ++k) {
      const auto& task = report.tasks[si * seeds + k];
      if (!task.ok) continue;
      bits += task.result.metrics.counter_value("bus.bits_simulated");
      skipped += task.result.bits_skipped;
      batched += task.result.bits_batched;
    }
    std::cout << "  engine split " << std::left << std::setw(18)
              << report.specs[si].label << std::right << " bits=" << bits
              << " skipped=" << skipped << " batched=" << batched
              << " batched_frac="
              << obs::fmt_double(ratio(static_cast<double>(batched),
                                       static_cast<double>(bits)))
              << "\n";
  }
}

// ---- timing cell-store decorator -------------------------------------------

/// Call count and summed nanoseconds, safe to bump from campaign workers.
class CallTimer {
 public:
  void add(Clock::time_point start) {
    ns_.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - start)
                          .count()),
                  std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_us() const {
    return ratio(static_cast<double>(ns_.load()) / 1e3,
                 static_cast<double>(calls_.load()));
  }

 private:
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// Times every fetch and store the campaign makes through `inner`.
class TimingStore final : public runner::CellStore {
 public:
  explicit TimingStore(runner::CellStore& inner) : inner_(inner) {}

  [[nodiscard]] std::optional<std::string> fetch(
      const runner::CellKey& key) override {
    const auto start = Clock::now();
    auto bytes = inner_.fetch(key);
    fetches.add(start);
    return bytes;
  }
  void store(const runner::CellKey& key, std::string_view bytes) override {
    const auto start = Clock::now();
    inner_.store(key, bytes);
    stores.add(start);
  }
  [[nodiscard]] Stats stats() const override { return inner_.stats(); }

  CallTimer fetches;
  CallTimer stores;

 private:
  runner::CellStore& inner_;
};

// ---- workloads -------------------------------------------------------------

/// One timed pass: its wall time, the per-cell samples behind the cell_ms
/// percentiles, and the deterministic output that must repeat every pass.
struct Pass {
  double wall_s{};
  std::vector<double> cell_ms;
  std::string output;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Everything before the timed region (repeated; the last one is used).
  virtual void set_up() = 0;
  /// One timed pass.  A traced pass gets a span collector and a sample sink.
  virtual Pass run(Checks& checks, obs::SpanCollector* spans,
                   LayerSamples* layers) = 0;
  /// Traced run only: layer timings measured outside the passes.
  virtual void probe_layers(Checks& /*checks*/, obs::SpanCollector& /*spans*/,
                            LayerSamples& /*layers*/) {}
  /// Workload-specific end-to-end lines (accuracy, warm pass).
  virtual void print_extra(std::ostream& /*out*/) const {}
};

/// Times analysis::run_experiment on every cell of `cfg`, serially.
void probe_run_experiment(const runner::CampaignConfig& cfg,
                          obs::SpanCollector& spans, LayerSamples& layers) {
  double total_ms = 0;
  const auto plan = runner::plan_campaign(cfg);
  for (const auto& cell : plan) {
    auto spec = cfg.specs[cell.spec_index];
    spec.seed = cell.derived_seed;
    const auto start = Clock::now();
    {
      obs::SpanCollector::Scope span{&spans, "analysis.run_experiment",
                                     "bench"};
      (void)analysis::run_experiment(spec);
    }
    total_ms += seconds_since(start) * 1e3;
  }
  layers.add("analysis.cell_ms",
             ratio(total_ms, static_cast<double>(plan.size())));
}

/// run_campaign over registry scenarios; the table2-defended and open-bus
/// workloads.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::vector<std::string> scenarios, std::uint64_t seeds,
                   std::uint64_t base_seed, bool table2)
      : scenarios_(std::move(scenarios)),
        seeds_(seeds),
        base_seed_(base_seed),
        table2_(table2) {}

  void set_up() override {
    cfg_ = {};
    for (const auto& name : scenarios_) {
      cfg_.specs.push_back(analysis::ScenarioRegistry::built_in().make(name));
    }
    cfg_.seeds = {0, seeds_};
    cfg_.base_seed = base_seed_;
    cfg_.jobs = kJobs;
    // Warm-up: the first cell of every scenario.
    for (const auto& cell : runner::plan_campaign(cfg_)) {
      if (cell.seed != cfg_.seeds.begin) continue;
      auto spec = cfg_.specs[cell.spec_index];
      spec.seed = cell.derived_seed;
      (void)analysis::run_experiment(spec);
    }
  }

  Pass run(Checks& checks, obs::SpanCollector* spans,
           LayerSamples* layers) override {
    Pass pass;
    runner::CampaignReport report;
    std::uint64_t campaign_span = 0;
    const auto start = Clock::now();
    {
      obs::SpanCollector::Scope span{spans, "runner.run_campaign", "bench"};
      auto cfg = cfg_;
      cfg.spans = spans;
      cfg.spans_parent = span.id();
      campaign_span = span.id();
      report = runner::run_campaign(cfg);
    }
    const auto serialize_start = Clock::now();
    {
      obs::SpanCollector::Scope span{spans, "runner.to_json", "bench"};
      pass.output = runner::to_json(report);
    }
    const double serialize_ms = seconds_since(serialize_start) * 1e3;
    pass.wall_s = seconds_since(start);

    for (const auto& task : report.tasks) pass.cell_ms.push_back(task.wall_ms);
    checks.cells(report);
    if (table2_) check_table2(report, checks);
    if (layers != nullptr) {
      campaign_layers(report, *layers);
      layers->add("runner.serialize_ms", serialize_ms);
      layers->add("runner.self_ms", self_ms(*spans, campaign_span));
      if (!split_printed_) {
        print_engine_split(report);
        split_printed_ = true;
      }
    }
    return pass;
  }

  void probe_layers(Checks& checks, obs::SpanCollector& spans,
                    LayerSamples& layers) override {
    probe_run_experiment(cfg_, spans, layers);
    if (table2_) probe_armed_overhead(checks, layers);
  }

  void print_extra(std::ostream& out) const override {
    if (!table2_) return;
    out << "table2_err_pct " << obs::fmt_double(table2_err_pct_)
        << " %  (mean |pooled mu - paper mu| / paper mu over the 7 Table II "
           "rows; checked only against these published means.  Known "
           "deviations, EXPERIMENTS.md: Exp. 1/3 mu run high because of the "
           "restbus replay load; Exp. 6 sigma is bimodal)\n";
  }

 private:
  /// The paper's claims on every defended cell: each attacker is bused off,
  /// the defender never is.  Also computes table2_err_pct over the Table II
  /// experiments (spec numbers 1-6).
  void check_table2(const runner::CampaignReport& report, Checks& checks) {
    std::vector<double> mu;
    for (const auto& spec : report.specs) {
      checks.expect(spec.busoff_ms.count > 0,
                    spec.label + ": attacker bused off");
      checks.expect(spec.defender_bus_off_runs == 0,
                    spec.label + ": defender never bused off");
      if (spec.number < 1 || spec.number > 6) continue;
      for (const auto& atk : spec.attackers) mu.push_back(atk.busoff_ms.mean);
    }
    constexpr std::size_t rows = std::size(kPaperMuMs);
    checks.expect(mu.size() == rows, "Table II has 7 attacker rows");
    double err = 0;
    for (std::size_t i = 0; i < std::min(rows, mu.size()); ++i) {
      err += std::abs(mu[i] - kPaperMuMs[i]) / kPaperMuMs[i];
    }
    table2_err_pct_ = 100.0 * err / static_cast<double>(rows);
  }

  /// A/B probe: controllers-only as registered (armed defender, benign
  /// traffic, no attacker) against the same spec with the defense off, on
  /// the same seeds.  The task.sim difference per simulated bit is the
  /// armed monitor's cost.
  void probe_armed_overhead(Checks& checks, LayerSamples& layers) const {
    runner::CampaignConfig armed;
    armed.specs = {analysis::ScenarioRegistry::built_in().make(
        "controllers-only")};
    armed.seeds = {0, kArmedProbeSeeds};
    armed.base_seed = base_seed_;
    armed.jobs = kJobs;
    auto off = armed;
    off.specs[0].defense_enabled = false;
    for (int round = 0; round < kArmedProbeRounds; ++round) {
      const auto a = runner::run_campaign(armed);
      const auto o = runner::run_campaign(off);
      checks.cells(a);
      checks.cells(o);
      checks.expect(a.bits_simulated() == o.bits_simulated(),
                    "armed and unarmed probes simulate the same bits");
      layers.add("core.armed_overhead_ns_per_bit",
                 ratio((a.profile.total_ms("task.sim") -
                        o.profile.total_ms("task.sim")) *
                           1e6,
                       static_cast<double>(a.bits_simulated())));
    }
  }

  std::vector<std::string> scenarios_;
  std::uint64_t seeds_;
  std::uint64_t base_seed_;
  bool table2_;
  runner::CampaignConfig cfg_;
  double table2_err_pct_{0};
  bool split_printed_{false};
};

/// A grid of short Table II cells run twice through an empty DiskStore: the
/// cold pass computes, encodes and stores every cell; the warm pass fetches,
/// decodes, aggregates and serializes.
class CacheReplayWorkload final : public Workload {
 public:
  CacheReplayWorkload(std::uint64_t base_seed, std::filesystem::path root)
      : base_seed_(base_seed), root_(std::move(root)) {}

  ~CacheReplayWorkload() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void set_up() override {
    cfg_ = {};
    for (int n = 1; n <= 6; ++n) {
      auto spec = analysis::table2_experiment(n);
      spec.duration = sim::Millis{kReplayCellMs};
      cfg_.specs.push_back(std::move(spec));
    }
    cfg_.seeds = {0, kReplaySeeds};
    cfg_.base_seed = base_seed_;
    cfg_.jobs = kJobs;
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    // Warm-up: the first kReplayWarmupSeeds cells of every scenario, cold
    // then warm, through a scratch store (the cells are ten times shorter
    // than Table II's, so one cell per scenario is too little to warm up).
    {
      serve::DiskStore scratch{root_ / "warm-up"};
      auto warm_up = cfg_;
      warm_up.seeds = {0, kReplayWarmupSeeds};
      warm_up.cells = &scratch;
      for (int pass = 0; pass < 2; ++pass) {
        (void)runner::to_json(runner::run_campaign(warm_up));
      }
    }
    std::filesystem::remove_all(root_ / "warm-up");
  }

  Pass run(Checks& checks, obs::SpanCollector* spans,
           LayerSamples* layers) override {
    // The empty store is the pass's precondition, made before the clock.
    const auto dir = root_ / ("pass-" + std::to_string(passes_++));
    serve::DiskStore disk{dir};
    TimingStore cold_timed{disk};
    TimingStore warm_timed{disk};
    const bool traced = layers != nullptr;

    Pass pass;
    runner::CampaignReport cold, warm;
    std::string cold_json;
    const auto start = Clock::now();
    {
      obs::SpanCollector::Scope span{spans, "bench.cold_pass", "bench"};
      auto cfg = cfg_;
      cfg.cells = traced ? static_cast<runner::CellStore*>(&cold_timed)
                         : static_cast<runner::CellStore*>(&disk);
      cfg.spans = spans;
      cfg.spans_parent = span.id();
      cold = runner::run_campaign(cfg);
      cold_json = runner::to_json(cold);
    }
    const auto warm_start = Clock::now();
    double serialize_ms = 0;
    std::uint64_t warm_span = 0;
    {
      obs::SpanCollector::Scope span{spans, "bench.warm_pass", "bench"};
      warm_span = span.id();
      auto cfg = cfg_;
      cfg.cells = traced ? static_cast<runner::CellStore*>(&warm_timed)
                         : static_cast<runner::CellStore*>(&disk);
      cfg.spans = spans;
      cfg.spans_parent = span.id();
      warm = runner::run_campaign(cfg);
      const auto serialize_start = Clock::now();
      obs::SpanCollector::Scope json_span{spans, "runner.to_json", "bench",
                                          span.id()};
      pass.output = runner::to_json(warm);
      serialize_ms = seconds_since(serialize_start) * 1e3;
    }
    pass.wall_s = seconds_since(start);
    warm_s_.push_back(seconds_since(warm_start));

    const std::size_t cells = cold.tasks.size();
    checks.cells(cold);
    checks.cells(warm);
    checks.expect(pass.output == cold_json, "warm report bytes == cold bytes");
    checks.expect(warm.cache_hits == cells, "warm pass hits every cell");
    checks.expect(cold.cache_misses == cells, "cold pass misses every cell");
    for (const auto& task : warm.tasks) pass.cell_ms.push_back(task.wall_ms);

    if (traced) {
      campaign_layers(cold, *layers);
      // Aggregation and serialization are the warm pass's own.
      layers->add("runner.aggregate_ms",
                  warm.profile.total_ms("campaign.aggregate"));
      layers->add("runner.serialize_ms", serialize_ms);
      layers->add("runner.self_ms", self_ms(*spans, warm_span));
      probe_codec(cold, checks, *layers);
      const auto stats = disk.stats();
      layers->add("serve.fetch_us", warm_timed.fetches.mean_us());
      layers->add("serve.store_us", cold_timed.stores.mean_us());
      layers->add("serve.hit_frac",
                  ratio(static_cast<double>(warm.cache_hits),
                        static_cast<double>(cells)));
      layers->add("serve.bytes_per_cell",
                  ratio(static_cast<double>(stats.bytes),
                        static_cast<double>(stats.entries)));
    }
    std::filesystem::remove_all(dir);
    return pass;
  }

  void probe_layers(Checks& /*checks*/, obs::SpanCollector& spans,
                    LayerSamples& layers) override {
    probe_run_experiment(cfg_, spans, layers);
  }

  void print_extra(std::ostream& out) const override {
    out << "warm_s         " << obs::fmt_double(median(warm_s_))
        << " s  (raw host time, median warm pass over " << warm_s_.size()
        << " passes; every cell a hit)\n";
  }

 private:
  /// encode_cell / decode_cell timed on the cold pass's results.
  static void probe_codec(const runner::CampaignReport& cold, Checks& checks,
                          LayerSamples& layers) {
    double encode_us = 0, decode_us = 0;
    bool round_trips = true;
    for (const auto& task : cold.tasks) {
      auto start = Clock::now();
      const auto bytes = runner::encode_cell(task.result);
      encode_us += seconds_since(start) * 1e6;
      analysis::ExperimentResult back;
      start = Clock::now();
      round_trips = runner::decode_cell(bytes, back) && round_trips;
      decode_us += seconds_since(start) * 1e6;
    }
    checks.expect(round_trips, "every cold cell decodes");
    const auto n = static_cast<double>(cold.tasks.size());
    layers.add("runner.encode_us", ratio(encode_us, n));
    layers.add("runner.decode_us", ratio(decode_us, n));
  }

  std::uint64_t base_seed_;
  std::filesystem::path root_;
  runner::CampaignConfig cfg_;
  std::uint64_t passes_{0};
  std::vector<double> warm_s_;
};

/// Sec. V-B: run_latency_study with the paper's configuration, split into
/// equal study cells (so the cell percentiles have samples), brute-force
/// verification left on.
class FsmStudyWorkload final : public Workload {
 public:
  explicit FsmStudyWorkload(std::uint64_t seed_root) : seed_root_(seed_root) {}

  void set_up() override {
    cfg_ = {};
    cfg_.num_fsms = kFsmsPerCell;
    // Warm-up: one study cell on a seed the passes never use.
    auto warm = cfg_;
    warm.seed = sim::derive_seed(seed_root_, kFsmCells);
    (void)analysis::run_latency_study(warm);
  }

  Pass run(Checks& checks, obs::SpanCollector* spans,
           LayerSamples* layers) override {
    Pass pass;
    double bit_sum = 0, bit_count = 0, nodes = 0;
    const auto start = Clock::now();
    for (int c = 0; c < kFsmCells; ++c) {
      auto cfg = cfg_;
      cfg.seed = sim::derive_seed(seed_root_, static_cast<std::uint64_t>(c));
      const auto cell_start = Clock::now();
      analysis::LatencyStudyResult res;
      {
        obs::SpanCollector::Scope span{spans, "analysis.run_latency_study",
                                       "bench"};
        res = analysis::run_latency_study(cfg);
      }
      pass.cell_ms.push_back(seconds_since(cell_start) * 1e3);
      checks.expect(res.fsms_built == static_cast<std::uint64_t>(kFsmsPerCell),
                    "study builds every FSM");
      checks.expect(res.detection_rate == 1.0, "detection_rate == 1");
      checks.expect(res.false_positive_rate == 0.0,
                    "false_positive_rate == 0");
      const auto n = static_cast<double>(res.per_fsm_mean.count);
      bit_sum += res.mean_detection_bit * n;
      bit_count += n;
      nodes += res.mean_fsm_nodes;
      pass.output += obs::fmt_double(res.mean_detection_bit) + " " +
                     obs::fmt_double(res.mean_benign_bit) + " " +
                     obs::fmt_double(res.mean_fsm_nodes) + " " +
                     std::to_string(res.max_depth_seen) + "\n";
    }
    pass.wall_s = seconds_since(start);
    detect_bit_err_ = std::abs(ratio(bit_sum, bit_count) - kPaperDetectionBit);
    if (layers != nullptr) {
      layers->add("core.fsm_nodes_mean", nodes / kFsmCells);
    }
    return pass;
  }

  /// Times core's range and FSM functions on random IVN configurations
  /// drawn as the study draws them.
  void probe_layers(Checks& checks, obs::SpanCollector& spans,
                    LayerSamples& layers) override {
    obs::SpanCollector::Scope probe{&spans, "bench.fsm_probe", "bench"};
    sim::Rng rng{sim::derive_seed(seed_root_, kFsmCells + 1)};
    double ranges_us = 0, build_us = 0, decide_ns = 0;
    std::uint64_t decisions = 0;
    bool agree = true;
    for (int i = 0; i < kFsmProbeConfigs; ++i) {
      const auto n = static_cast<std::size_t>(
          rng.uniform(static_cast<std::uint64_t>(cfg_.min_ecus),
                      static_cast<std::uint64_t>(cfg_.max_ecus)));
      std::set<can::CanId> ids;
      while (ids.size() < n) {
        ids.insert(static_cast<can::CanId>(rng.uniform(0, can::kMaxStdId)));
      }
      const core::IvnConfig ivn{{ids.begin(), ids.end()}};
      const auto own = ivn.ecus()[rng.uniform(0, ivn.ecus().size() - 1)];

      auto start = Clock::now();
      const auto ranges = ivn.detection_ranges(own);
      ranges_us += seconds_since(start) * 1e6;
      start = Clock::now();
      const auto fsm = core::DetectionFsm::build(ranges);
      build_us += seconds_since(start) * 1e6;
      std::vector<bool> verdicts(can::kMaxStdId + 1);
      start = Clock::now();
      for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
        verdicts[id] = fsm.decide(static_cast<can::CanId>(id)).malicious;
      }
      decide_ns += seconds_since(start) * 1e9;
      decisions += can::kMaxStdId + 1;
      for (std::uint32_t id = 0; id <= can::kMaxStdId; ++id) {
        agree = agree &&
                verdicts[id] == ranges.contains(static_cast<can::CanId>(id));
      }
    }
    checks.expect(agree, "probe FSM verdicts match range membership");
    layers.add("core.ranges_us", ranges_us / kFsmProbeConfigs);
    layers.add("core.fsm_build_us", build_us / kFsmProbeConfigs);
    layers.add("core.decide_ns", ratio(decide_ns, static_cast<double>(decisions)));
  }

  void print_extra(std::ostream& out) const override {
    out << "detect_bit_err " << obs::fmt_double(detect_bit_err_)
        << " bits  (|mean detection bit - 9|, Sec. V-B; checked only against "
           "the published mean)\n";
  }

 private:
  std::uint64_t seed_root_;
  analysis::LatencyStudyConfig cfg_;
  double detect_bit_err_{0};
};

// ---- driver ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10};
  bool trace{false};
  std::filesystem::path work_dir{"perfbench-work"};
  bool force_mismatch{false};
};

constexpr const char* kUsage =
    "usage: perfbench --workload table2-defended|open-bus|cache-replay|"
    "fsm-study --seed N --seconds S --trace 0|1 --work-dir DIR "
    "[--force-mismatch]\n";

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--force-mismatch") {
      opt.force_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  // Every input derives from --seed: the campaign base seed (two-level
  // split per spec and cell) or the FSM study's seed root.
  const std::uint64_t root = sim::derive_seed(0x4D696368u, opt.seed);
  if (opt.workload == "table2-defended") {
    return std::make_unique<CampaignWorkload>(
        std::vector<std::string>{"exp1", "exp2", "exp3", "exp4", "exp5",
                                 "exp6", "multi3"},
        kTable2Seeds, root, true);
  }
  if (opt.workload == "open-bus") {
    return std::make_unique<CampaignWorkload>(
        std::vector<std::string>{"busy-bus", "restbus-idle", "idle-bus"},
        kOpenBusSeeds,
        root, false);
  }
  if (opt.workload == "cache-replay") {
    return std::make_unique<CacheReplayWorkload>(
        root, opt.work_dir / ("store-" + std::to_string(opt.seed)));
  }
  if (opt.workload == "fsm-study") {
    return std::make_unique<FsmStudyWorkload>(root);
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string hex_digest(const std::string& text) {
  runner::Fingerprint fp;
  fp.mix_str(text);
  return obs::hex16(fp.digest());
}

int run(const Options& opt) {
  auto workload = make_workload(opt);
  Checks checks;
  Normaliser norm;

  // Raw and normalised samples: set-ups, untraced passes, traced passes.
  std::vector<double> setups, setups_raw;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    workload->set_up();
    const double raw = seconds_since(start);
    setups_raw.push_back(raw);
    setups.push_back(raw * norm.bracket());
  }

  std::optional<obs::SpanCollector> spans;
  if (opt.trace) spans.emplace(obs::TraceIdBuilder{}.mix(opt.workload)
                                   .mix_u64(opt.seed)
                                   .id());
  LayerSamples layers;
  std::vector<double> walls, walls_raw, traced_walls, cell_ms;
  std::string first_output;
  const int min_passes = opt.trace ? 2 * kMinPasses : kMinPasses;
  const auto begin = Clock::now();
  for (int n = 0; n < min_passes || seconds_since(begin) < opt.seconds; ++n) {
    const bool traced = opt.trace && n % 2 == 1;
    Pass pass = workload->run(checks, traced ? &*spans : nullptr,
                              traced ? &layers : nullptr);
    const double factor = norm.bracket();
    if (opt.force_mismatch && n == 1) pass.output += "\n<forced mismatch>";
    if (n == 0) {
      first_output = pass.output;
    } else {
      checks.expect(pass.output == first_output,
                    "deterministic output repeats across passes");
    }
    if (traced) {
      traced_walls.push_back(pass.wall_s * factor);
      continue;
    }
    walls_raw.push_back(pass.wall_s);
    walls.push_back(pass.wall_s * factor);
    for (const double ms : pass.cell_ms) cell_ms.push_back(ms * factor);
  }
  if (opt.trace) workload->probe_layers(checks, *spans, layers);

  const double fail_frac =
      ratio(static_cast<double>(checks.failed()),
            static_cast<double>(checks.attempted()));
  std::cout << "perfbench workload=" << opt.workload << " seed=" << opt.seed
            << " trace=" << (opt.trace ? 1 : 0) << " jobs=" << kJobs
            << " passes=" << walls.size() + traced_walls.size()
            << " output=" << hex_digest(first_output) << "\n";

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (opt.trace) {
    layers.add("trace.overhead_s", median(traced_walls) - median(walls));
    for (const auto& def : kLayerMetrics) {
      metrics.push_back({def.name, {layers.value(def.name), def.unit}});
    }
    const auto trace_path = opt.work_dir / (opt.workload + ".trace.json");
    std::filesystem::create_directories(opt.work_dir);
    std::ofstream{trace_path} << spans->to_chrome_trace();
    std::cout << "spans " << spans->span_count() << " written to "
              << trace_path.string() << "\n";
  } else {
    const std::size_t n = cell_ms.size();
    metrics = {
        {"setup_s", {median(setups), "s"}},
        {"wall_s", {median(walls), "s"}},
        {"cell_ms_p50", {sim::percentile(cell_ms, 50.0), "ms"}},
        {"cell_ms_p90", {sim::percentile(cell_ms, 90.0), "ms"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
    };
    std::cout << "samples: " << kSetups << " set-ups, " << walls.size()
              << " passes, " << n << " cells (" << n / 10
              << " above p90)\n"
              << "host seconds: reference loop median "
              << obs::fmt_double(norm.median_reference_s()) << " s (nominal "
              << obs::fmt_double(kReferenceNominalS) << "), raw setup_s "
              << obs::fmt_double(median(setups_raw)) << ", raw wall_s "
              << obs::fmt_double(median(walls_raw)) << "\n";
  }
  for (const auto& [name, vu] : metrics) {
    std::cout << std::left << std::setw(32) << name << std::right << " "
              << obs::fmt_double(vu.first) << " " << vu.second << "\n";
  }
  std::cout << "fail_frac " << obs::fmt_double(fail_frac) << " ratio  ("
            << checks.failed() << " failed of " << checks.attempted()
            << " cells and output checks)\n";
  if (!opt.trace) workload->print_extra(std::cout);

  std::cout << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << name
              << "\": {\"value\": " << obs::fmt_double(vu.first)
              << ", \"unit\": \"" << vu.second << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n" << kUsage;
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
