// michican_cli — drive the library from the command line.
//
// Subcommands are one table handed to runner::dispatch(): the shared
// runner flags (--jobs, --seeds, --report, --trace-out, --progress,
// --no-fast-path) are extracted once, `--help` and the usage text are
// generated from the table, and an unknown subcommand is named explicitly
// (exit 2).  Per-subcommand flags are declared as runner::ArgTable rows —
// one declaration drives parsing, the usage text and the near-miss
// diagnostics, so no subcommand grows its own drifting argument loop.
// Scenario operands — `experiment`, `campaign`, `trace`, `fault-sweep` —
// resolve through analysis::ScenarioRegistry, the same registry
// `list-scenarios` enumerates and perfbench draws from, so a name means the
// same spec everywhere.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/scenarios.hpp"
#include "analysis/table.hpp"
#include "obs/timeline.hpp"
#include "attack/profiles.hpp"
#include "restbus/candump.hpp"
#include "restbus/dbc.hpp"
#include "restbus/schedulability.hpp"
#include "restbus/vehicles.hpp"
#include "runner/argspec.hpp"
#include "runner/campaign.hpp"
#include "runner/cli.hpp"
#include "runner/fault_sweep.hpp"
#include "runner/fuzz.hpp"
#include "runner/report.hpp"
#include "runner/report_writer.hpp"
#include "runner/reproduce.hpp"
#include "serve/disk_store.hpp"

namespace {

using namespace mcan;
using analysis::fmt;
using runner::ArgTable;
using runner::ReportWriter;

const analysis::ScenarioRegistry& registry() {
  return analysis::ScenarioRegistry::built_in();
}

double parse_double_arg(const std::string& text, const char* what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw std::invalid_argument(std::string{what} + ": malformed number '" +
                                text + "'");
  }
  return v;
}

/// `--replay` trace ingestion, shared by the experiment and campaign
/// subcommands: a captured log (candump -L or toolkit CSV) drives either
/// the rest-bus or a Replay-profile attacker in every selected scenario.
struct ReplayFlags {
  std::string file;
  std::string target{"restbus"};  // restbus | attacker
  std::string format{"auto"};     // auto | candump | csv
  double time_scale{1.0};
};

void add_replay_flags(ArgTable& table, ReplayFlags& rf) {
  table
      .str("--replay", "FILE",
           "replay a captured trace (candump -L or CSV) in every scenario",
           &rf.file)
      .str("--replay-target", "T",
           "what the trace drives: restbus (default) or attacker",
           &rf.target)
      .str("--replay-format", "F",
           "trace encoding: auto (default, sniffed), candump or csv",
           &rf.format)
      .value("--replay-time-scale", "X",
             "dilate the recorded timestamps by X (default 1)",
             [&rf](const std::string& v) {
               rf.time_scale = parse_double_arg(v, "--replay-time-scale");
             });
}

void apply_replay(const ReplayFlags& rf, analysis::ExperimentSpec& spec) {
  if (rf.file.empty()) return;
  std::ifstream in{rf.file, std::ios::binary};
  if (!in) {
    throw std::invalid_argument("--replay: cannot read '" + rf.file + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  restbus::TraceFormat format{};
  if (rf.format == "candump") {
    format = restbus::TraceFormat::Candump;
  } else if (rf.format == "csv") {
    format = restbus::TraceFormat::Csv;
  } else if (rf.format == "auto") {
    format = restbus::sniff_trace_format(text.str());
  } else {
    throw std::invalid_argument(
        "--replay-format: expected auto, candump or csv, got '" + rf.format +
        "'");
  }
  if (rf.target == "attacker") {
    attack::AttackerConfig a;
    a.profile = attack::AttackProfile::Replay;
    a.replay_trace = text.str();
    a.replay_format = format;
    a.replay_time_scale = rf.time_scale;
    spec.attackers.push_back(std::move(a));
  } else if (rf.target == "restbus") {
    spec.trace_replay.text = text.str();
    spec.trace_replay.format = format;
    spec.trace_replay.time_scale = rf.time_scale;
  } else {
    throw std::invalid_argument(
        "--replay-target: expected restbus or attacker, got '" + rf.target +
        "'");
  }
}

int cmd_experiment(const runner::CliOptions& opts,
                   const std::vector<std::string>& args) {
  ReplayFlags rf;
  ArgTable table;
  add_replay_flags(table, rf);
  const auto pos = table.parse(args, ArgTable::Unknown::Reject, "experiment");
  if (pos.empty() || pos.size() > 3) {
    throw std::invalid_argument(
        "experiment: expected <scenario> [seed] [duration_ms]");
  }
  auto spec = registry().make(pos[0]);
  apply_replay(rf, spec);
  spec.seed = pos.size() > 1 ? runner::parse_u64_arg(pos[1], "seed") : 42ull;
  const double duration_ms = pos.size() > 2
                                 ? parse_double_arg(pos[2], "duration_ms")
                                 : spec.duration.value();
  spec.duration = sim::Millis{duration_ms};
  spec.fast_path = opts.fast_path;
  const auto res = analysis::run_experiment(spec);

  analysis::AsciiTable t{{"Attacker", "Cycles", "mu (ms)", "sigma (ms)",
                          "Max (ms)", "Final state"}};
  for (const auto& a : res.attackers) {
    t.add_row({analysis::fmt_hex(a.primary_id),
               std::to_string(a.busoff_count), fmt(a.busoff_ms.mean, 1),
               fmt(a.busoff_ms.stddev, 2), fmt(a.busoff_ms.max, 1),
               a.ended_bus_off ? "bus-off" : "active"});
  }
  const std::string which =
      spec.number > 0 ? std::to_string(spec.number) : pos[0];
  t.print(std::cout, "Experiment " + which + " (" + spec.label + ", seed " +
                         std::to_string(spec.seed) + ", " +
                         fmt(duration_ms, 0) + " ms):");
  std::cout << "counterattacks: " << res.counterattacks
            << ", mean detection bit: " << fmt(res.mean_detection_bit, 1)
            << ", defender TEC: " << res.defender_tec
            << ", bus busy: " << analysis::fmt_pct(res.busy_fraction) << "\n";
  return 0;
}

/// "foo.trace.json" -> "foo.trace.jsonl"; otherwise append ".jsonl".
std::string sibling_jsonl_path(const std::string& trace_path) {
  const std::string suffix = ".json";
  if (trace_path.size() > suffix.size() &&
      trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return trace_path + "l";
  }
  return trace_path + ".jsonl";
}

int write_trace_outputs(const analysis::ExperimentResult& res,
                        const std::string& trace_path,
                        const std::string& jsonl_path) {
  if (!obs::write_text_file(trace_path, res.timeline_json)) {
    std::cerr << "error: could not write " << trace_path << "\n";
    return 1;
  }
  std::cout << "trace: " << trace_path
            << " (open in Perfetto / chrome://tracing)\n";
  if (!jsonl_path.empty()) {
    if (!obs::write_text_file(jsonl_path, res.events_jsonl)) {
      std::cerr << "error: could not write " << jsonl_path << "\n";
      return 1;
    }
    std::cout << "events: " << jsonl_path << "\n";
  }
  return 0;
}

/// --trace-out for the campaign drivers: re-simulate the first grid cell
/// with timeline capture and write the trace plus a sibling .jsonl dump.
int write_campaign_trace(const runner::CampaignConfig& cfg,
                         const std::string& trace_path) {
  const auto res = runner::rerun_cell(cfg, 0, cfg.seeds.begin);
  return write_trace_outputs(res, trace_path, sibling_jsonl_path(trace_path));
}

int cmd_campaign(const runner::CliOptions& opts,
                 const std::vector<std::string>& args) {
  ReplayFlags rf;
  bool runtime_block = true;
  std::string cache_dir;
  ArgTable table;
  add_replay_flags(table, rf);
  table
      .flag("--no-runtime",
            "omit the runtime block (wall clocks, jobs) so reports are "
            "byte-comparable across --jobs values",
            &runtime_block, false)
      .str("--cache-dir", "PATH",
           "content-addressed cell cache: replay unchanged cells, store new "
           "ones (a killed run resumes from it)",
           &cache_dir);
  std::vector<std::string> names =
      table.parse(args, ArgTable::Unknown::Reject, "campaign");
  if (names.empty()) names = {"1", "2", "3", "4", "5", "6"};
  runner::CampaignConfig cfg;
  for (const auto& name : names) {
    auto spec = registry().make(name);
    apply_replay(rf, spec);
    spec.fast_path = opts.fast_path;
    cfg.specs.push_back(std::move(spec));
  }
  cfg.seeds = opts.seeds;
  cfg.jobs = opts.jobs;
  if (opts.progress) cfg.progress = runner::print_progress;
  std::optional<serve::DiskStore> store;
  // A torn tail the store cut at open, left by a killed run, happens
  // before the campaign, so the report does not count it.
  std::uint64_t corrupt_at_open = 0;
  if (!cache_dir.empty()) {
    cfg.cells = &store.emplace(cache_dir);
    corrupt_at_open = store->stats().corrupt;
  }
  const auto rep = runner::run_campaign(cfg);

  analysis::AsciiTable t{{"Exp", "Attacker", "Seeds", "Failed", "Cycles",
                          "mu (ms)", "sigma (ms)", "Max (ms)", "p50", "p99",
                          "Det. bit"}};
  for (const auto& spec : rep.specs) {
    for (const auto& a : spec.attackers) {
      t.add_row({std::to_string(spec.number), analysis::fmt_hex(a.primary_id),
                 std::to_string(spec.tasks), std::to_string(spec.failed),
                 std::to_string(a.cycles), fmt(a.busoff_ms.mean, 1),
                 fmt(a.busoff_ms.stddev, 2), fmt(a.busoff_ms.max, 1),
                 fmt(a.busoff_ms_pct.p50, 1), fmt(a.busoff_ms_pct.p99, 1),
                 fmt(spec.mean_detection_bit.mean, 1)});
    }
  }
  t.print(std::cout, "Campaign over seeds [" +
                         std::to_string(rep.seeds.begin) + ", " +
                         std::to_string(rep.seeds.end) + "), jobs=" +
                         std::to_string(rep.jobs_used) + ", " +
                         fmt(rep.wall_ms, 0) + " ms wall:");
  if (store) {
    std::cout << "cache: " << rep.cache_hits << " hits, " << rep.cache_misses
              << " misses, " << corrupt_at_open + rep.cache_corrupt
              << " corrupt (" << cache_dir << ")\n";
  }

  runner::JsonOptions jopts;
  jopts.include_runtime = runtime_block;
  const ReportWriter report{opts.report_path};
  if (!report.write(runner::to_json(rep, jopts))) return 1;
  if (!opts.trace_path.empty()) {
    if (const int rc = write_campaign_trace(cfg, opts.trace_path); rc != 0) {
      return rc;
    }
  }
  return rep.failed_tasks() == 0 ? 0 : 1;
}

std::vector<double> parse_ber_list(const std::string& text) {
  std::vector<double> bers;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto item = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (item.empty()) {
      throw std::invalid_argument("--bers: empty entry in '" + text + "'");
    }
    std::size_t used = 0;
    double ber = 0.0;
    try {
      ber = std::stod(item, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != item.size()) {
      throw std::invalid_argument("--bers: malformed rate '" + item + "'");
    }
    bers.push_back(ber);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return bers;
}

int cmd_fault_sweep(const runner::CliOptions& opts,
                    const std::vector<std::string>& args) {
  std::vector<double> bers;
  ArgTable table;
  table.value("--bers", "B1,B2,..", "comma-separated bit-error rates",
              [&bers](const std::string& v) { bers = parse_ber_list(v); });
  auto scenarios = table.parse(args, ArgTable::Unknown::Reject, "fault-sweep");
  if (scenarios.empty()) scenarios = {"spoof", "dos", "ef"};

  runner::FaultSweepConfig cfg;
  for (const auto& s : scenarios) {
    auto spec = registry().make(s);
    spec.fast_path = opts.fast_path;
    cfg.base_specs.push_back(std::move(spec));
  }
  if (!bers.empty()) cfg.bers = bers;
  cfg.seeds = opts.seeds;
  cfg.jobs = opts.jobs;
  if (opts.progress) cfg.progress = runner::print_progress;
  const auto rep = runner::run_fault_sweep(cfg);

  std::cout << "Fault sweep over seeds [" << rep.campaign.seeds.begin << ", "
            << rep.campaign.seeds.end << "), jobs="
            << rep.campaign.jobs_used << ", " << fmt(rep.campaign.wall_ms, 0)
            << " ms wall:\n"
            << runner::format_table(rep);

  runner::JsonOptions jopts;
  jopts.include_runtime = true;
  const ReportWriter report{opts.report_path};
  if (!report.write(runner::to_json(rep, jopts))) return 1;
  if (!opts.trace_path.empty()) {
    if (const int rc = write_campaign_trace(runner::fault_sweep_campaign(cfg),
                                            opts.trace_path);
        rc != 0) {
      return rc;
    }
  }
  return rep.campaign.failed_tasks() == 0 ? 0 : 1;
}

int cmd_fuzz(const runner::CliOptions& opts,
             const std::vector<std::string>& args) {
  runner::FuzzConfig cfg;
  std::string repro_dir;
  ArgTable table;
  table
      .value("--cases", "N", "conformance cases to generate",
             [&cfg](const std::string& v) {
               cfg.cases = static_cast<std::size_t>(
                   runner::parse_int_arg(v, 1, 10'000'000, "--cases"));
             })
      .str("--repro-dir", "PATH", "write repro .json/.cpp pairs here",
           &repro_dir)
      .flag("--no-shrink", "keep divergences unshrunk", &cfg.shrink, false);
  const auto rest = table.parse(args, ArgTable::Unknown::Reject, "fuzz");
  if (!rest.empty()) {
    throw std::invalid_argument("fuzz: unexpected argument '" + rest.front() +
                                "'");
  }
  // The differ always runs both kernels (that is the point), so
  // --no-fast-path does not apply here; --seeds picks the case population.
  cfg.seeds = opts.seeds;
  cfg.jobs = opts.jobs;
  if (opts.progress) cfg.progress = runner::print_progress;
  const auto rep = runner::run_fuzz(cfg);

  std::cout << runner::format_summary(rep);

  runner::JsonOptions jopts;
  jopts.include_runtime = true;
  const ReportWriter report{opts.report_path};
  if (!report.write(runner::to_json(rep, jopts))) return 1;
  if (!repro_dir.empty()) {
    for (const auto& d : rep.divergences) {
      const auto stem =
          repro_dir + "/fuzz_repro_" + std::to_string(d.derived_seed);
      if (!ReportWriter::write_file(stem + ".json", d.repro_json) ||
          !ReportWriter::write_file(stem + ".cpp", d.repro_test)) {
        std::cerr << "error: could not write repro files at " << stem
                  << ".{json,cpp}\n";
        return 1;
      }
      std::cout << "repro: " << stem << ".json / .cpp\n";
    }
  }
  return rep.divergences.empty() ? 0 : 1;
}

int cmd_trace(const runner::CliOptions& opts,
              const std::vector<std::string>& args) {
  std::string out_path = "michican_trace.json";
  std::string jsonl_path;
  ArgTable table;
  table.str("--out", "PATH", "trace output path", &out_path)
      .str("--jsonl", "PATH", "also dump raw events as JSONL here",
           &jsonl_path);
  const auto positional = table.parse(args, ArgTable::Unknown::Reject, "trace");
  if (positional.empty() || positional.size() > 3) {
    throw std::invalid_argument(
        "trace: expected <scenario> [seed] [duration_ms]");
  }
  auto spec = registry().make(positional[0]);
  spec.seed = positional.size() > 1
                  ? runner::parse_u64_arg(positional[1], "seed")
                  : 42ull;
  // 120 ms covers several bus-off cycles at 50 kbit/s while keeping the
  // trace small enough for an instant Perfetto load.
  const double duration_ms =
      positional.size() > 2 ? parse_double_arg(positional[2], "duration_ms")
                            : 120.0;
  spec.duration = sim::Millis{duration_ms};
  spec.capture_timeline = true;
  spec.fast_path = opts.fast_path;
  const auto res = analysis::run_experiment(spec);
  std::cout << "scenario: " << spec.label << ", seed " << spec.seed << ", "
            << fmt(duration_ms, 0) << " ms, "
            << res.metrics.counter_value("bus.events") << " events, "
            << res.attacks_detected << " attacks detected\n";
  return write_trace_outputs(res, out_path, jsonl_path);
}

int cmd_reproduce(const runner::CliOptions& opts,
                  const std::vector<std::string>& args) {
  if (!args.empty()) {
    throw std::invalid_argument("reproduce: unexpected argument '" +
                                args.front() + "'");
  }
  // Like fuzz, it ignores --no-fast-path (the engine tiers are
  // byte-identical by the equivalence gates) and --trace-out.
  runner::ReproduceConfig cfg;
  cfg.seeds = opts.seeds;
  cfg.jobs = opts.jobs;
  if (opts.progress) cfg.progress = runner::print_progress;
  const auto rep = runner::run_reproduce(cfg);
  std::cout << runner::format_table(rep);
  const ReportWriter report{opts.report_path};
  if (!report.write(runner::to_json(rep))) return 1;
  return rep.failed() == 0 ? 0 : 1;
}

int cmd_rta(const runner::CliOptions&, const std::vector<std::string>& args) {
  if (args.empty()) {
    throw std::invalid_argument("rta: expected <bus_index 0..7>");
  }
  const int bus_index = runner::parse_int_arg(args[0], 0, 7, "bus index");
  const double attack_bits =
      args.size() > 1 ? parse_double_arg(args[1], "attack_blocking_bits")
                      : 0.0;
  const auto matrices = restbus::all_vehicle_matrices();
  const auto& m = matrices[static_cast<std::size_t>(bus_index)];
  restbus::RtaConfig cfg;
  cfg.attack_blocking_bits = attack_bits;
  const auto rep = restbus::response_time_analysis(m, cfg);
  analysis::AsciiTable t{{"ID", "T (ms)", "R (ms)", "D (ms)", "OK?"}};
  for (const auto& r : rep.results) {
    t.add_row({analysis::fmt_hex(r.message.id), fmt(r.message.period_ms, 0),
               fmt(r.response_ms, 2), fmt(r.deadline_ms, 0),
               r.schedulable ? "yes" : "NO"});
  }
  t.print(std::cout, m.bus_name() + " response-time analysis (attack blocking " +
                         fmt(attack_bits, 0) + " bits):");
  std::cout << "utilization: " << analysis::fmt_pct(rep.total_utilization)
            << ", all schedulable: " << (rep.all_schedulable ? "yes" : "NO")
            << "\n";
  return rep.all_schedulable ? 0 : 1;
}

int cmd_dbc(const runner::CliOptions&, const std::vector<std::string>& args) {
  if (args.empty()) {
    throw std::invalid_argument("dbc: expected <bus_index 0..7>");
  }
  const int bus_index = runner::parse_int_arg(args[0], 0, 7, "bus index");
  std::cout << restbus::to_dbc(
      restbus::all_vehicle_matrices()[static_cast<std::size_t>(bus_index)]);
  return 0;
}

int cmd_list_scenarios(const runner::CliOptions&,
                       const std::vector<std::string>&) {
  analysis::AsciiTable t{{"Name", "Aliases", "Buses", "Description"}};
  for (const auto& s : registry().all()) {
    std::string aliases;
    for (const auto& a : s.aliases) {
      if (!aliases.empty()) aliases += ", ";
      aliases += a;
    }
    t.add_row({s.name, aliases, std::to_string(s.make().topology.buses),
               s.description});
  }
  t.print(std::cout, "Registered scenarios:");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<runner::Subcommand> table{
      {"experiment", "<scenario> [seed] [duration_ms] [--replay FILE ...]",
       "run one named scenario (e.g. a Table II experiment) and print the "
       "outcome",
       cmd_experiment},
      {"campaign",
       "[scenario...] [--replay FILE ...] [--no-runtime] [--cache-dir PATH]",
       "fan scenarios (default: exp1..exp6) over a seed range across a "
       "worker pool; results are bit-identical for any --jobs value and "
       "for a cold, warm or resumed --cache-dir",
       cmd_campaign},
      {"reproduce", "",
       "regenerate every paper claim (Tables I-III, Secs. V-B..V-E, Fig. 6, "
       "Parrot) and check it against its declared band; exit 1 if any "
       "claim fails",
       cmd_reproduce},
      {"fault-sweep", "[scenario...] [--bers B1,B2,..]",
       "robustness campaign: bit-error rate x attacker scenario "
       "(default: spoof dos ef)",
       cmd_fault_sweep},
      {"fuzz", "[--cases N] [--no-shrink] [--repro-dir PATH]",
       "differential ISO 11898-1 conformance fuzzer: simulator vs "
       "independent oracle, fast path on vs off; shrinks any divergence",
       cmd_fuzz},
      {"trace", "<scenario> [seed] [duration_ms] [--out PATH] [--jsonl PATH]",
       "run one recording with timeline capture and write a Chrome "
       "trace-event JSON",
       cmd_trace},
      {"rta", "<bus 0..7> [attack_blocking_bits]",
       "response-time analysis of a vehicle bus, optionally under attack",
       cmd_rta},
      {"dbc", "<bus 0..7>", "print a vehicle matrix in DBC-subset format",
       cmd_dbc},
      {"list-scenarios", "",
       "enumerate the named scenario registry with bus topology",
       cmd_list_scenarios},
  };
  mcan::runner::CliOptions defaults;
  defaults.jobs = 0;  // hardware concurrency
  defaults.seeds = {0, 32};
  return mcan::runner::dispatch(argc, argv, "michican_cli", table, defaults);
}
