#include "runner/report_writer.hpp"

#include <fstream>
#include <iostream>

namespace mcan::runner {

bool ReportWriter::write_file(const std::string& path, std::string_view text) {
  std::ofstream out{path, std::ios::binary};
  if (!out) return false;
  out << text;
  // Flush before checking: a report smaller than the stream buffer would
  // otherwise only hit the device at destruction, after the error check —
  // the "exit 0 on a failed --report write" bug (e.g. /dev/full).
  out.flush();
  return static_cast<bool>(out);
}

bool ReportWriter::write(std::string_view text) const {
  if (!enabled()) return true;
  if (!write_file(path_, text)) {
    std::cerr << "error: could not write " << path_ << "\n";
    return false;
  }
  std::cout << "JSON report: " << path_ << "\n";
  return true;
}

}  // namespace mcan::runner
