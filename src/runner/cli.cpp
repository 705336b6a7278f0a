#include "runner/cli.hpp"

#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "runner/argspec.hpp"

namespace mcan::runner {
namespace {

/// The one declaration of the shared runner flags (cli.hpp file comment).
/// parse_cli() extracts through it and usage_text() renders it, so the
/// accepted flags and the documented flags cannot drift apart.
ArgTable shared_cli_table(CliOptions& opts) {
  ArgTable table;
  table
      .value("--jobs", "N", "worker threads (0 = hardware concurrency)",
             [&opts](const std::string& v) {
               opts.jobs = static_cast<unsigned>(parse_u64_arg(v, "--jobs"));
             })
      .value("--seeds", "A..B",
             "half-open seed range [A, B); \"--seeds N\" means [0, N)",
             [&opts](const std::string& v) { opts.seeds = parse_seed_range(v); })
      .str("--report", "PATH", "write the JSON report here",
           &opts.report_path)
      .str("--trace-out", "P",
           "write a Chrome trace-event JSON of the first grid cell",
           &opts.trace_path)
      .flag("--progress", "stream per-task progress to stderr",
            &opts.progress)
      .flag("--no-fast-path",
            "pin the naive per-bit kernel (disable the batch-window engine)",
            &opts.fast_path, false);
  return table;
}

}  // namespace

SeedRange parse_seed_range(const std::string& text) {
  SeedRange range;
  const auto dots = text.find("..");
  if (dots == std::string::npos) {
    range.begin = 0;
    range.end = parse_u64_arg(text, "seed count");
  } else {
    range.begin = parse_u64_arg(text.substr(0, dots), "seed range begin");
    range.end = parse_u64_arg(text.substr(dots + 2), "seed range end");
  }
  if (range.size() == 0) {
    throw std::invalid_argument("empty seed range: '" + text + "'");
  }
  return range;
}

CliOptions parse_cli(int& argc, char** argv, CliOptions defaults) {
  CliOptions opts = defaults;
  shared_cli_table(opts).extract_argv(argc, argv);
  return opts;
}

void print_progress(std::size_t done, std::size_t total) {
  std::fprintf(stderr, "\r  [%zu/%zu] campaign tasks done%s", done, total,
               done == total ? "\n" : "");
  std::fflush(stderr);
}

std::function<void(std::size_t, std::size_t)> log_progress(obs::Log& log) {
  return [&log](std::size_t done, std::size_t total) {
    if (!log.enabled(obs::LogLevel::Debug)) return;
    log.debug("progress", "\"done\":" + std::to_string(done) +
                              ",\"total\":" + std::to_string(total));
  };
}

std::string usage_text(std::string_view prog,
                       const std::vector<Subcommand>& table) {
  std::ostringstream os;
  os << "usage:\n";
  for (const auto& sub : table) {
    os << "  " << prog << " " << sub.name;
    if (!sub.operands.empty()) os << " " << sub.operands;
    os << "\n      " << sub.help << "\n";
  }
  CliOptions dummy;
  os << "shared flags (any subcommand):\n"
     << shared_cli_table(dummy).help_text();
  return os.str();
}

int dispatch(int argc, char** argv, std::string_view prog,
             const std::vector<Subcommand>& table, CliOptions defaults) {
  CliOptions opts;
  try {
    opts = parse_cli(argc, argv, defaults);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << usage_text(prog, table);
    return 2;
  }
  if (argc < 2) {
    std::cerr << usage_text(prog, table);
    return 2;
  }
  const std::string_view cmd{argv[1]};
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    std::cout << usage_text(prog, table);
    return 0;
  }
  const Subcommand* sub = nullptr;
  for (const auto& s : table) {
    if (cmd == s.name) {
      sub = &s;
      break;
    }
  }
  if (sub == nullptr) {
    std::cerr << "error: unknown subcommand '" << cmd
              << "'\navailable subcommands:";
    for (const auto& s : table) std::cerr << " " << s.name;
    std::cerr << "\n";
    return 2;
  }
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 2 ? argc - 2 : 0));
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    return sub->run(opts, args);
  } catch (const std::invalid_argument& e) {
    // Bad operands are usage errors: name the problem, then show how this
    // one subcommand is called.
    std::cerr << "error: " << e.what() << "\nusage: " << prog << " "
              << sub->name;
    if (!sub->operands.empty()) std::cerr << " " << sub->operands;
    std::cerr << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mcan::runner
