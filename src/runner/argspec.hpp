// Declarative command-line flag tables shared by every CLI subcommand.
//
// Before ArgTable each subcommand grew its own hand-rolled loop over
// `args` — local `take` lambdas, rfind-prefix matching, per-flag error
// strings — and the loops drifted (some accepted "--flag=v", some only
// "--flag v"; unknown flags were sometimes errors, sometimes silently
// treated as scenario names).  One ArgTable declaration per flag now
// drives all three consumers:
//
//   * parsing       — "--name value" and "--name=value", typed sinks with
//                     range checks, std::invalid_argument on bad input
//                     (dispatch maps that to a usage error, exit 2);
//   * --help text   — usage() renders the one-line operand summary,
//                     help_text() the indented per-flag reference;
//   * diagnostics   — an unknown dash-argument names itself *and* the
//                     nearest declared flag (edit-distance near-miss).
//
// Two parse entry points cover the two historical styles: parse() takes
// the subcommand's argument vector and returns the positional operands
// (Unknown::Reject) or keeps unrecognized arguments in order for a later
// parser (Unknown::Keep); extract_argv() compacts argc/argv in place, the
// parse_cli() contract used by drivers that hand leftovers to another
// front end (subcommand dispatch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mcan::runner {

/// One declared flag: name, optional value placeholder, help line, and
/// exactly one of `sink` (value flags) or `action` (boolean flags).
struct ArgSpec {
  std::string name;        // "--jobs"
  std::string value_name;  // "N"; empty means a boolean flag
  std::string help;        // one line for help_text()
  std::function<void(const std::string&)> sink;
  std::function<void()> action;

  [[nodiscard]] bool takes_value() const noexcept { return !value_name.empty(); }
};

class ArgTable {
 public:
  /// What to do with an argument no declaration matches.
  enum class Unknown {
    Reject,  // dash-prefixed: throw with a near-miss suggestion
    Keep,    // return it (in order) for a later parser
  };

  /// Boolean flag that runs `act` when present.
  ArgTable& flag(std::string name, std::string help,
                 std::function<void()> act);
  /// Boolean flag that assigns `value` to *target when present (the
  /// default covers "--progress"; value=false covers "--no-fast-path").
  ArgTable& flag(std::string name, std::string help, bool* target,
                 bool value = true);
  /// Value flag with a custom sink (throw std::invalid_argument on bad
  /// input; the message should name the flag).
  ArgTable& value(std::string name, std::string value_name, std::string help,
                  std::function<void(const std::string&)> sink);
  /// Value flag writing the raw string to *out.
  ArgTable& str(std::string name, std::string value_name, std::string help,
                std::string* out);
  /// Value flag parsing a base-10 unsigned 64-bit integer into *out.
  ArgTable& u64(std::string name, std::string value_name, std::string help,
                std::uint64_t* out);
  /// Value flag parsing an int constrained to [lo, hi] into *out.
  ArgTable& int_in(std::string name, std::string value_name, std::string help,
                   int lo, int hi, int* out);

  /// Parse a subcommand argument vector.  Both "--name value" and
  /// "--name=value" are accepted for value flags; boolean flags match the
  /// exact name.  Returns the arguments no declaration consumed, in their
  /// original order: with Unknown::Reject a dash-prefixed survivor throws
  /// std::invalid_argument (prefixed by `context` when non-empty, with a
  /// near-miss suggestion), so the survivors are exactly the positional
  /// operands; with Unknown::Keep everything unrecognized flows through.
  std::vector<std::string> parse(const std::vector<std::string>& args,
                                 Unknown policy = Unknown::Reject,
                                 std::string_view context = {}) const;

  /// In-place argv extraction (the parse_cli() contract): scan argv[1..),
  /// consume declared flags and their values, compact the survivors —
  /// argv[0] included — and update argc.  Unknown arguments always
  /// survive; argv[argc] is left as nullptr.
  void extract_argv(int& argc, char** argv) const;

  /// One-line operand summary: "[--jobs N] [--progress] ...".
  [[nodiscard]] std::string usage() const;
  /// Indented per-flag reference, one line each, aligned like the
  /// historical usage text ("  --jobs N        worker threads ...").
  [[nodiscard]] std::string help_text() const;

  [[nodiscard]] const std::vector<ArgSpec>& specs() const noexcept {
    return specs_;
  }

 private:
  std::vector<ArgSpec> specs_;
};

/// Parse a base-10 unsigned integer; throws std::invalid_argument naming
/// `what` on malformed input (shared by ArgTable::u64 and the seed-range
/// parser).
[[nodiscard]] std::uint64_t parse_u64_arg(const std::string& text,
                                          std::string_view what);

/// Parse an int constrained to [lo, hi]; throws std::invalid_argument
/// naming `what` when malformed or out of range.
[[nodiscard]] int parse_int_arg(const std::string& text, int lo, int hi,
                                std::string_view what);

}  // namespace mcan::runner
