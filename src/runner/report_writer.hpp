// One report-emission path for every subcommand.
//
// The "--report bug" (PR 7): a buffered ofstream only surfaces a failed
// write at flush/close time, and a destructor-time failure is silently
// dropped — so a subcommand could exit 0 with no report on disk (/dev/full,
// unwritable path).  The fix — flush *before* the stream check, print a
// diagnostic, propagate a nonzero exit — had been re-implemented per
// subcommand before this class; ReportWriter is the single copy.
#pragma once

#include <string>
#include <string_view>

namespace mcan::runner {

class ReportWriter {
 public:
  /// An empty path makes the writer disabled: write() succeeds without
  /// touching disk, so callers can write unconditionally and let
  /// --report's absence be a no-op.
  explicit ReportWriter(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Write `text`, flushing before the stream check.  On success prints
  /// "JSON report: <path>" to stdout and returns true; on failure prints
  /// "error: could not write <path>" to stderr and returns false — the
  /// caller turns that into a nonzero exit.
  [[nodiscard]] bool write(std::string_view text) const;

  /// The silent primitive behind write(): flush-before-check file write
  /// with no console output (used by write_json_file and anything that
  /// wants its own messaging).
  [[nodiscard]] static bool write_file(const std::string& path,
                                       std::string_view text);

 private:
  std::string path_;
};

}  // namespace mcan::runner
