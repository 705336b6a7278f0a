// michican_cli — drive the library from the command line.
//
// Subcommands are one table handed to runner::dispatch(): the shared
// runner flags (--jobs, --seeds, --report, --trace-out, --progress,
// --no-fast-path) are extracted once, `--help` and the usage text are
// generated from the table, and an unknown subcommand is named explicitly
// (exit 2).  Per-subcommand flags are declared as runner::ArgTable rows —
// one declaration drives parsing, the usage text and the near-miss
// diagnostics, so no subcommand grows its own drifting argument loop.
// Scenario operands — `experiment`, `campaign`, `trace`, `fault-sweep`,
// `fleet` — resolve through analysis::ScenarioRegistry, the same registry
// `list-scenarios` enumerates and bench_throughput draws from, so a name
// means the same spec everywhere.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/experiments.hpp"
#include "analysis/latency.hpp"
#include "analysis/scenarios.hpp"
#include "analysis/table.hpp"
#include "obs/jsonfmt.hpp"
#include "obs/log.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_context.hpp"
#include "attack/profiles.hpp"
#include "restbus/candump.hpp"
#include "restbus/dbc.hpp"
#include "restbus/schedulability.hpp"
#include "restbus/vehicles.hpp"
#include "runner/argspec.hpp"
#include "runner/campaign.hpp"
#include "runner/cli.hpp"
#include "runner/fault_sweep.hpp"
#include "runner/fleet.hpp"
#include "runner/fuzz.hpp"
#include "runner/report.hpp"
#include "runner/report_writer.hpp"
#include "runner/schemas.hpp"
#include "serve/client.hpp"
#include "serve/disk_store.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace {

using namespace mcan;
using analysis::fmt;
using runner::ArgTable;
using runner::ReportWriter;

const analysis::ScenarioRegistry& registry() {
  return analysis::ScenarioRegistry::built_in();
}

std::uint64_t parse_seed(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 10);
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
  spec.seed = pos.size() > 1 ? parse_seed(pos[1]) : 42ull;
  const double duration_ms =
      pos.size() > 2 ? std::atof(pos[2].c_str()) : spec.duration.value();
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
  ArgTable table;
  add_replay_flags(table, rf);
  table.flag("--no-runtime",
             "omit the runtime block (wall clocks, jobs) so reports are "
             "byte-comparable across --jobs values",
             &runtime_block, false);
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
  spec.seed = positional.size() > 1 ? parse_seed(positional[1]) : 42ull;
  // 120 ms covers several bus-off cycles at 50 kbit/s while keeping the
  // trace small enough for an instant Perfetto load.
  const double duration_ms =
      positional.size() > 2 ? std::atof(positional[2].c_str()) : 120.0;
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

int cmd_sweep(const runner::CliOptions& opts,
              const std::vector<std::string>& args) {
  const int max_attackers =
      args.empty() ? 4 : runner::parse_int_arg(args[0], 1, 16, "max_attackers");
  analysis::AsciiTable t{{"Attackers", "Total bus-off (bits)", "ms @50k"}};
  const sim::BusSpeed speed{50'000};
  for (int a = 1; a <= max_attackers; ++a) {
    auto spec = analysis::multi_attacker_spec(a);
    spec.duration = sim::Millis{3000};
    spec.fast_path = opts.fast_path;
    const auto res = analysis::run_experiment(spec);
    t.add_row({std::to_string(a), fmt(res.first_cycle_total_bits, 0),
               fmt(speed.bits_to_ms(res.first_cycle_total_bits), 1)});
  }
  t.print(std::cout, "Multi-attacker sweep:");
  return 0;
}

int cmd_latency(const runner::CliOptions&,
                const std::vector<std::string>& args) {
  const int num_fsms =
      args.empty() ? 10'000
                   : runner::parse_int_arg(args[0], 1, 10'000'000, "num_fsms");
  analysis::LatencyStudyConfig cfg;
  cfg.num_fsms = num_fsms;
  cfg.verify_fsms = std::min(num_fsms, 200);
  const auto res = analysis::run_latency_study(cfg);
  std::cout << "FSMs: " << res.fsms_built
            << ", mean detection bit: " << fmt(res.mean_detection_bit, 2)
            << ", detection rate: "
            << analysis::fmt_pct(res.detection_rate, 2)
            << ", false positives: "
            << analysis::fmt_pct(res.false_positive_rate, 2) << "\n";
  return 0;
}

int cmd_rta(const runner::CliOptions&, const std::vector<std::string>& args) {
  if (args.empty()) {
    throw std::invalid_argument("rta: expected <bus_index 0..7>");
  }
  const int bus_index = runner::parse_int_arg(args[0], 0, 7, "bus index");
  const double attack_bits = args.size() > 1 ? std::atof(args[1].c_str()) : 0.0;
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

int cmd_serve(const runner::CliOptions& opts,
              const std::vector<std::string>& args) {
  serve::ServerConfig cfg;
  cfg.socket_path = "michican.sock";
  cfg.cache_dir = ".michican-cache";
  cfg.jobs = opts.jobs;
  obs::LogConfig log_cfg;  // stderr, info, no rotation
  ArgTable table;
  table.str("--socket", "PATH", "Unix socket path", &cfg.socket_path)
      .str("--cache-dir", "PATH", "cell-cache directory", &cfg.cache_dir)
      .value("--cache-cap-mb", "N", "cache size cap in MiB",
             [&cfg](const std::string& v) {
               const int mb =
                   runner::parse_int_arg(v, 1, 1 << 20, "--cache-cap-mb");
               cfg.cache_cap_bytes = static_cast<std::uint64_t>(mb) << 20;
             })
      .str("--log", "PATH", "structured JSONL log path (default stderr)",
           &log_cfg.path)
      .value("--log-level", "LVL", "debug|info|warn|error|fatal",
             [&log_cfg](const std::string& v) {
               const auto level = obs::parse_log_level(v);
               if (!level) {
                 throw std::invalid_argument(
                     "--log-level: expected debug|info|warn|error|fatal, "
                     "got '" +
                     v + "'");
               }
               log_cfg.level = *level;
             })
      .value("--log-rotate-mb", "N", "rotate the log past N MiB",
             [&log_cfg](const std::string& v) {
               const int mb =
                   runner::parse_int_arg(v, 1, 1 << 20, "--log-rotate-mb");
               log_cfg.rotate_bytes = static_cast<std::uint64_t>(mb) << 20;
             });
  const auto rest = table.parse(args, ArgTable::Unknown::Reject, "serve");
  if (!rest.empty()) {
    throw std::invalid_argument("serve: unexpected argument '" + rest.front() +
                                "'");
  }
  std::optional<obs::Log> log;
  try {
    log.emplace(log_cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  cfg.log = &*log;
  serve::install_stop_signal_handlers();
  cfg.stop = &serve::stop_flag();
  return serve::run_server(cfg);
}

int cmd_submit(const runner::CliOptions& opts,
               const std::vector<std::string>& args) {
  std::string socket_path = "michican.sock";
  std::string cache_stats_path;
  std::string op = "campaign";
  int wait_ms = 0;
  std::size_t cases = 200;
  ArgTable table;
  table.str("--socket", "PATH", "Unix socket path", &socket_path)
      .str("--cache-stats", "PATH", "write the cache stats JSON here",
           &cache_stats_path)
      .int_in("--wait-ms", "N", "wait for the socket to appear", 0, 600'000,
              &wait_ms)
      .value("--cases", "N", "fuzz cases",
             [&cases](const std::string& v) {
               cases = static_cast<std::size_t>(
                   runner::parse_int_arg(v, 1, 10'000'000, "--cases"));
             })
      .flag("--fuzz", "submit a fuzz run", [&op] { op = "fuzz"; })
      .flag("--ping", "liveness probe", [&op] { op = "ping"; })
      .flag("--stats", "fetch cache statistics", [&op] { op = "stats"; })
      .flag("--health", "readiness probe", [&op] { op = "health"; })
      .flag("--shutdown", "ask the daemon to exit", [&op] { op = "shutdown"; });
  const auto scenarios =
      table.parse(args, ArgTable::Unknown::Reject, "submit");

  std::ostringstream req;
  req << "{\"schema\":\"" << runner::kServeSchema << "\",\"op\":\"" << op
      << "\"";
  if (op == "campaign") {
    req << ",\"scenarios\":[";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (i != 0) req << ",";
      req << "\"" << obs::json_escape(scenarios[i]) << "\"";
    }
    req << "]";
  }
  if (op == "campaign" || op == "fuzz") {
    req << ",\"seeds\":{\"begin\":" << opts.seeds.begin
        << ",\"end\":" << opts.seeds.end << "},\"jobs\":" << opts.jobs;
    if (op == "fuzz") req << ",\"cases\":" << cases;
    if (!opts.trace_path.empty()) {
      // Trace id derived from the request's seed material, so the same
      // submit carries the same id on every run — spans in the server log
      // and the exported document correlate by construction.
      obs::TraceIdBuilder id;
      id.mix(runner::kServeSchema);
      id.mix(op);
      id.mix_u64(opts.seeds.begin);
      id.mix_u64(opts.seeds.end);
      for (const auto& s : scenarios) id.mix(s);
      if (op == "fuzz") id.mix_u64(cases);
      req << ",\"trace\":{\"id\":\"" << obs::hex16(id.id())
          << "\",\"export\":true}";
    }
  }
  req << "}";

  const auto res = serve::submit_request(
      socket_path, req.str(), wait_ms,
      opts.progress ? runner::print_progress
                    : std::function<void(std::size_t, std::size_t)>{});
  if (!res.ok) {
    std::cerr << "error: " << res.error << "\n";
    return 1;
  }
  if (!res.table.empty()) std::cout << res.table;
  if (op == "ping") std::cout << "pong\n";
  if (op == "shutdown") std::cout << "server shutting down\n";
  if (op == "stats" && !res.cache_stats_json.empty()) {
    std::cout << res.cache_stats_json << "\n";
  }
  if (op == "health") {
    std::cout << (res.health_json.empty() ? "{}" : res.health_json) << "\n"
              << (res.ready ? "ready" : "NOT READY") << "\n";
  }
  if (!opts.report_path.empty()) {
    if (res.report_json.empty()) {
      std::cerr << "error: server response carried no report\n";
      return 1;
    }
    const ReportWriter report{opts.report_path};
    if (!report.write(res.report_json)) return 1;
  }
  const ReportWriter cache_stats{cache_stats_path, "cache stats"};
  if (!cache_stats.write(res.cache_stats_json + "\n")) return 1;
  if (!opts.trace_path.empty() && (op == "campaign" || op == "fuzz")) {
    if (res.trace_json.empty()) {
      std::cerr << "error: server response carried no trace\n";
      return 1;
    }
    if (!obs::write_text_file(opts.trace_path, res.trace_json)) {
      std::cerr << "error: could not write " << opts.trace_path << "\n";
      return 1;
    }
    std::cout << "trace: " << opts.trace_path
              << " (open in Perfetto / chrome://tracing)\n";
  }
  return res.exit_code;
}

double jnum(const serve::JsonValue* obj, std::string_view key,
            double fallback = 0) {
  if (obj == nullptr) return fallback;
  const auto* v = obj->find(key);
  return v != nullptr ? v->get_number(fallback) : fallback;
}

/// One-screen ASCII dashboard from a stats reply: service totals, latency
/// percentiles, cache counters, and a latency-histogram bar chart.
std::string render_stats_dashboard(const serve::SubmitResult& res) {
  const auto svc_doc = serve::parse_json(res.service_json);
  const auto cs_doc = serve::parse_json(res.cache_stats_json);
  const auto met_doc = serve::parse_json(res.metrics_json);
  const serve::JsonValue* svc = svc_doc ? &*svc_doc : nullptr;
  const serve::JsonValue* store =
      cs_doc ? cs_doc->find("store") : nullptr;
  const serve::JsonValue* lat = svc ? svc->find("latency_ms") : nullptr;

  std::ostringstream os;
  os << "michican serve  |  uptime " << fmt(jnum(svc, "uptime_ms") / 1000.0, 1)
     << " s\n"
     << "requests: " << jnum(svc, "requests")
     << "  errors: " << jnum(svc, "errors") << " ("
     << analysis::fmt_pct(jnum(svc, "error_rate"))
     << " of last window)  queue: " << jnum(svc, "queue_depth") << " (peak "
     << jnum(svc, "queue_depth_peak") << ")\n";
  if (lat != nullptr && jnum(lat, "count") > 0) {
    os << "latency ms: p50 " << fmt(jnum(lat, "p50"), 2) << "  p95 "
       << fmt(jnum(lat, "p95"), 2) << "  p99 " << fmt(jnum(lat, "p99"), 2)
       << "  mean " << fmt(jnum(lat, "mean"), 2) << "  (n="
       << jnum(lat, "count") << ")\n";
  }
  os << "cache: " << jnum(store, "hits") << " hits / "
     << jnum(store, "misses") << " misses, " << jnum(store, "entries")
     << " entries, " << fmt(jnum(store, "bytes") / 1024.0, 1) << " KiB, "
     << jnum(store, "evictions") << " evicted, " << jnum(store, "corrupt")
     << " corrupt\n";

  // Latency histogram bars, scaled to the fullest bucket.
  const serve::JsonValue* hists =
      met_doc ? met_doc->find("histograms") : nullptr;
  const serve::JsonValue* h =
      hists != nullptr ? hists->find("serve.request_ms") : nullptr;
  const serve::JsonValue* bounds = h != nullptr ? h->find("bounds") : nullptr;
  const serve::JsonValue* buckets =
      h != nullptr ? h->find("buckets") : nullptr;
  if (bounds != nullptr && buckets != nullptr &&
      bounds->kind == serve::JsonValue::Kind::Array &&
      buckets->kind == serve::JsonValue::Kind::Array &&
      buckets->array.size() == bounds->array.size() + 1) {
    double peak = 0;
    for (const auto& b : buckets->array) peak = std::max(peak, b.get_number());
    if (peak > 0) {
      os << "request latency histogram (ms):\n";
      for (std::size_t i = 0; i < buckets->array.size(); ++i) {
        const double n = buckets->array[i].get_number();
        if (n <= 0) continue;
        std::string label =
            i < bounds->array.size()
                ? "<= " + fmt(bounds->array[i].get_number(), 1)
                : "> " + fmt(bounds->array.back().get_number(), 1);
        label.resize(12, ' ');
        const int width = static_cast<int>(n / peak * 40.0 + 0.5);
        os << "  " << label << std::string(static_cast<std::size_t>(
                                  std::max(width, 1)), '#')
           << " " << n << "\n";
      }
    }
  }
  return os.str();
}

int cmd_stats(const runner::CliOptions&,
              const std::vector<std::string>& args) {
  std::string socket_path = "michican.sock";
  int wait_ms = 0;
  int interval_ms = 1000;
  int count = 0;  // 0 = until interrupted
  bool prom = false;
  bool json = false;
  bool watch = false;
  ArgTable table;
  table.str("--socket", "PATH", "Unix socket path", &socket_path)
      .int_in("--wait-ms", "N", "wait for the socket to appear", 0, 600'000,
              &wait_ms)
      .int_in("--interval-ms", "N", "refresh interval for --watch", 50,
              600'000, &interval_ms)
      .int_in("--count", "N", "stop --watch after N refreshes", 1, 1'000'000,
              &count)
      .flag("--prom", "Prometheus text exposition format", &prom)
      .flag("--json", "raw JSON snapshot", &json)
      .flag("--watch", "refresh the dashboard in place", &watch);
  const auto rest = table.parse(args, ArgTable::Unknown::Reject, "stats");
  if (!rest.empty()) {
    throw std::invalid_argument("stats: unexpected argument '" + rest.front() +
                                "'");
  }
  const std::string req = "{\"schema\":\"" +
                          std::string{runner::kServeSchema} +
                          "\",\"op\":\"stats\"}";
  int done = 0;
  while (true) {
    const auto res = serve::submit_request(socket_path, req, wait_ms);
    if (!res.ok) {
      std::cerr << "error: " << res.error << "\n";
      return 1;
    }
    if (prom) {
      std::cout << res.prom_text;
    } else if (json) {
      std::cout << "{\"service\":" << res.service_json << ",\"cache_stats\":"
                << res.cache_stats_json << ",\"metrics\":" << res.metrics_json
                << "}\n";
    } else {
      if (watch) std::cout << "\x1b[H\x1b[2J";  // home + clear
      std::cout << render_stats_dashboard(res);
    }
    std::cout.flush();
    if (!watch || (count > 0 && ++done >= count)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{interval_ms});
  }
  return 0;
}

/// Path of this binary for fork/exec re-invocation.  /proc/self/exe is
/// itself a valid execv() target, so the fallback stays functional even if
/// the readlink fails.
std::string self_exe_path() {
  std::array<char, 4096> buf{};
  const ssize_t n = ::readlink("/proc/self/exe", buf.data(), buf.size() - 1);
  if (n > 0) return std::string(buf.data(), static_cast<std::size_t>(n));
  return "/proc/self/exe";
}

/// Declarations shared by `fleet` (spawner side) and `fleet-worker`.
ArgTable fleet_shared_table(runner::FleetConfig& cfg) {
  ArgTable table;
  table
      .u64("--vehicles", "N", "vehicle instances: seeds [0, N) per scenario",
           &cfg.vehicles)
      .u64("--base-seed", "S", "root of the two-level seed split",
           &cfg.base_seed)
      .value("--duration-ms", "MS",
             "recording duration override (0 = scenario default)",
             [&cfg](const std::string& v) {
               cfg.duration_ms = parse_double_arg(v, "--duration-ms");
             })
      .str("--cache-dir", "PATH", "shared content-addressed cell cache",
           &cfg.cache_dir);
  return table;
}

int cmd_fleet(const runner::CliOptions& opts,
              const std::vector<std::string>& args) {
  runner::FleetConfig cfg;
  cfg.jobs = opts.jobs;
  cfg.fast_path = opts.fast_path;
  cfg.cache_dir = ".michican-fleet-cache";
  std::string fleet_stats_path;
  ArgTable table = fleet_shared_table(cfg);
  table
      .value("--shards", "K", "worker processes (clamped to [1, vehicles])",
             [&cfg](const std::string& v) {
               cfg.shards = static_cast<std::size_t>(
                   runner::parse_u64_arg(v, "--shards"));
             })
      .str("--checkpoint", "PATH",
           "progress manifest, refreshed every interval; validates resumes",
           &cfg.checkpoint_path)
      .value("--checkpoint-interval-ms", "MS", "manifest refresh period",
             [&cfg](const std::string& v) {
               cfg.checkpoint_interval_ms =
                   parse_double_arg(v, "--checkpoint-interval-ms");
             })
      .str("--fleet-stats", "PATH",
           "write the runtime shard/cache stats JSON here",
           &fleet_stats_path);
  cfg.scenarios = table.parse(args, ArgTable::Unknown::Reject, "fleet");
  if (cfg.scenarios.empty()) {
    cfg.scenarios = {"1", "2", "3", "4", "5", "6"};
  }
  cfg.self_exe = self_exe_path();
  cfg.open_store = [](const std::string& dir) {
    return std::unique_ptr<runner::CellStore>{new serve::DiskStore{dir}};
  };
  if (opts.progress) {
    cfg.log = [](const std::string& line) { std::cerr << line << "\n"; };
  }
  const auto rep = runner::run_fleet(cfg);

  std::cout << "Fleet: " << rep.vehicles << " vehicles x "
            << rep.scenarios.size() << " scenarios over " << rep.shards_used
            << " shards, " << fmt(rep.wall_ms, 0) << " ms wall\n"
            << "merge pass: " << rep.merged.cache_hits << " cells cached, "
            << rep.merged.cache_misses << " recomputed, "
            << rep.failed_tasks() << " failed ("
            << rep.cells_at_start << " cells warm at start)\n";

  const ReportWriter report{opts.report_path, "fleet report"};
  if (!report.write(runner::to_json(rep))) return 1;
  const ReportWriter stats{fleet_stats_path, "fleet stats"};
  if (!stats.write(runner::fleet_stats_json(rep))) return 1;
  return rep.failed_tasks() == 0 ? 0 : 1;
}

int cmd_fleet_worker(const runner::CliOptions& opts,
                     const std::vector<std::string>& args) {
  runner::FleetConfig cfg;
  cfg.jobs = opts.jobs;
  cfg.fast_path = opts.fast_path;
  std::uint64_t shard = 0;
  std::uint64_t shards = 1;
  std::string summary_path;
  ArgTable table = fleet_shared_table(cfg);
  table.u64("--shard", "K", "this worker's shard index", &shard)
      .u64("--shards", "K", "total shard count", &shards)
      .str("--summary", "PATH", "write this shard's campaign report here",
           &summary_path);
  cfg.scenarios = table.parse(args, ArgTable::Unknown::Reject, "fleet-worker");
  cfg.shards = static_cast<std::size_t>(shards);
  if (cfg.cache_dir.empty()) {
    throw std::invalid_argument("fleet-worker: --cache-dir is required");
  }
  serve::DiskStore store{cfg.cache_dir};
  const auto rep =
      runner::run_fleet_shard(cfg, static_cast<std::size_t>(shard), &store);
  if (!summary_path.empty()) {
    runner::JsonOptions jopts;
    jopts.include_runtime = true;
    jopts.include_tasks = false;
    if (!runner::write_json_file(summary_path, rep, jopts)) {
      std::cerr << "error: could not write " << summary_path << "\n";
      return 1;
    }
  }
  return rep.failed_tasks() == 0 ? 0 : 1;
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
      {"campaign", "[scenario...] [--replay FILE ...]",
       "fan scenarios (default: exp1..exp6) over a seed range across a "
       "worker pool; results are bit-identical for any --jobs value",
       cmd_campaign},
      {"sweep", "[max_attackers]",
       "multi-attacker total-bus-off sweep (Sec. V-C)", cmd_sweep},
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
      {"latency", "[num_fsms]", "detection-latency study (Sec. V-B)",
       cmd_latency},
      {"rta", "<bus 0..7> [attack_blocking_bits]",
       "response-time analysis of a vehicle bus, optionally under attack",
       cmd_rta},
      {"dbc", "<bus 0..7>", "print a vehicle matrix in DBC-subset format",
       cmd_dbc},
      {"serve",
       "[--socket PATH] [--cache-dir PATH] [--cache-cap-mb N] [--log PATH] "
       "[--log-level LVL] [--log-rotate-mb N]",
       "run the campaign daemon: a Unix-socket job queue over a "
       "content-addressed result cache (warm submits replay cached cells); "
       "logs are structured JSONL",
       cmd_serve},
      {"submit",
       "[scenario...] [--socket PATH] [--fuzz] [--cases N] [--ping] "
       "[--stats] [--health] [--shutdown] [--wait-ms N] "
       "[--cache-stats PATH]",
       "submit a campaign (default) or fuzz run to a `serve` daemon and "
       "stream its progress; --report writes the byte-stable report, "
       "--trace-out exports the request's service spans over the first "
       "cell's sim tracks",
       cmd_submit},
      {"stats",
       "[--socket PATH] [--wait-ms N] [--prom] [--json] [--watch] "
       "[--interval-ms N] [--count N]",
       "snapshot a `serve` daemon's live metrics as an ASCII dashboard "
       "(default), Prometheus text (--prom), or JSON (--json); --watch "
       "refreshes in place",
       cmd_stats},
      {"fleet",
       "[scenario...] [--vehicles N] [--shards K] [--cache-dir PATH] "
       "[--checkpoint PATH] [--duration-ms MS] [--fleet-stats PATH]",
       "shard a vehicle-fleet campaign across worker processes over a "
       "shared cell cache; the merged report is byte-identical for any "
       "--shards value, and a killed run resumes from the cache "
       "(--checkpoint tracks progress); --report writes the deterministic "
       "report",
       cmd_fleet},
      {"fleet-worker",
       "--shard K --shards K --vehicles N --cache-dir PATH [scenario...]",
       "internal: one fleet shard, fork/exec'd by `fleet` (runs its seed "
       "sub-range against the shared cache and writes a summary report)",
       cmd_fleet_worker},
      {"list-scenarios", "",
       "enumerate the named scenario registry with bus topology",
       cmd_list_scenarios},
  };
  mcan::runner::CliOptions defaults;
  defaults.jobs = 0;  // hardware concurrency
  defaults.seeds = {0, 32};
  return mcan::runner::dispatch(argc, argv, "michican_cli", table, defaults);
}
