// Shared command-line flags for campaign-driven binaries.
//
// parse_cli() consumes the runner flags it understands and *removes* them
// from argv, so the leftover arguments can be handed to another parser
// (e.g. benchmark::Initialize in the bench drivers, or the subcommand
// dispatch of michican_cli).
//
// Recognized flags ("--flag value" and "--flag=value" both work):
//   --jobs N        worker threads (0 = hardware concurrency)
//   --seeds A..B    half-open seed range [A, B); "--seeds N" means [0, N)
//   --report PATH   write the JSON report here
//   --trace-out P   after the run, re-simulate the first grid cell with
//                   timeline capture and write a Chrome trace-event JSON
//                   there (plus a sibling .jsonl event dump)
//   --progress      stream per-task progress to stderr
//   --no-fast-path  pin the naive per-bit kernel (disable the batch-window
//                   engine); the recording is byte-identical either way,
//                   so this exists for bisecting and perf comparison
//
// dispatch() is the shared subcommand front end: a driver hands it a table
// of (name, operand summary, help line, handler) rows and gets uniform
// behaviour — flag extraction via parse_cli(), a generated usage/--help
// text, exit 2 with a named "unknown subcommand" diagnostic, and exception
// mapping (std::invalid_argument -> usage error 2, anything else -> 1).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/log.hpp"
#include "runner/campaign.hpp"

namespace mcan::runner {

struct CliOptions {
  unsigned jobs{1};
  SeedRange seeds{0, 8};
  std::string report_path;
  std::string trace_path;
  bool progress{false};
  /// Batch-window engine; --no-fast-path clears it (naive per-bit kernel).
  bool fast_path{true};
};

/// Parse "A..B" or "N" into a half-open seed range.
/// Throws std::invalid_argument on malformed input or an empty range.
[[nodiscard]] SeedRange parse_seed_range(const std::string& text);

/// Extract runner flags from argv (compacting argc/argv in place), starting
/// the scan at argv[1].  Unrecognized arguments are kept in order.
/// Throws std::invalid_argument on a malformed value or a missing operand.
[[nodiscard]] CliOptions parse_cli(int& argc, char** argv,
                                   CliOptions defaults = {});

/// A progress sink for CliOptions::progress: rewrites one stderr line as
/// "  [done/total] campaign ...".
void print_progress(std::size_t done, std::size_t total);

/// Structured-log progress sink: one debug-level {"event":"progress",
/// "done":N,"total":M} JSONL line per finished task, throttled to nothing
/// when the logger's level filter is above Debug.  The serve daemon wires
/// this in so long campaigns are observable from the log alone; `log` must
/// outlive the returned closure.
[[nodiscard]] std::function<void(std::size_t, std::size_t)> log_progress(
    obs::Log& log);

/// One row of a driver's subcommand table.
struct Subcommand {
  /// Name as typed on the command line ("campaign", "fault-sweep", ...).
  std::string name;
  /// Operand summary for the usage text ("<1..6> [seed] [duration_ms]");
  /// empty when the subcommand takes none.
  std::string operands;
  /// One help line shown by --help.
  std::string help;
  /// Handler: shared runner flags (already extracted) plus the remaining
  /// positional/flag arguments after the subcommand name.  Throw
  /// std::invalid_argument for a usage error (dispatch maps it to exit 2
  /// plus the subcommand's usage line); return the process exit code.
  std::function<int(const CliOptions&, const std::vector<std::string>&)> run;
};

/// Generated usage text: one "prog name operands" line plus the help line
/// per table row, followed by the shared runner flags.
[[nodiscard]] std::string usage_text(std::string_view prog,
                                     const std::vector<Subcommand>& table);

/// Shared subcommand front end.  Extracts runner flags with parse_cli(),
/// resolves argv[1] against the table and invokes the handler with the
/// leftover arguments.  "--help"/"-h"/"help" prints the usage text to
/// stdout (exit 0); a missing subcommand prints it to stderr (exit 2); an
/// unknown one is named explicitly alongside the available names (exit 2).
int dispatch(int argc, char** argv, std::string_view prog,
             const std::vector<Subcommand>& table, CliOptions defaults = {});

}  // namespace mcan::runner
