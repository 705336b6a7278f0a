#include "restbus/candump.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace mcan::restbus {

namespace {

// Locale-independent numeric parsing: std::stod/std::stoul honor LC_NUMERIC
// (a comma-decimal locale mis-parses "1436509052.249713"), std::from_chars
// never does.  Both reject stray sign/whitespace and require the whole
// field to be consumed.
bool parse_seconds(std::string_view s, double& out) {
  const auto* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && ptr == end && out >= 0.0;
}

bool parse_hex(std::string_view s, std::uint32_t& out) {
  if (s.empty()) return false;
  const auto* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, out, 16);
  return ec == std::errc{} && ptr == end;
}

// Locale-independent fixed-point seconds with microsecond precision —
// snprintf("%.6f") would honor LC_NUMERIC, so compose from integers.
std::string format_seconds(double t) {
  long long micros = std::llround(t * 1e6);
  if (micros < 0) micros = 0;
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%lld.%06lld", micros / 1000000,
                              micros % 1000000);
  return {buf, static_cast<std::size_t>(n)};
}

// Parses the DATA part of a frame spec (`DEADBEEF`, or `R`/`R4` for remote
// frames) into `f`.  Returns false when malformed.
bool parse_data_field(std::string_view data_str, can::CanFrame& f) {
  if (!data_str.empty() && (data_str[0] == 'R' || data_str[0] == 'r')) {
    f.rtr = true;
    if (data_str.size() > 1) {
      if (data_str.size() > 2 || data_str[1] < '0' || data_str[1] > '8') {
        return false;
      }
      f.dlc = static_cast<std::uint8_t>(data_str[1] - '0');
    }
    return true;
  }
  if (data_str.size() % 2 != 0 || data_str.size() > 16) return false;
  f.dlc = static_cast<std::uint8_t>(data_str.size() / 2);
  for (int i = 0; i < f.dlc; ++i) {
    std::uint32_t byte = 0;
    if (!parse_hex(data_str.substr(static_cast<std::size_t>(2 * i), 2), byte)) {
      return false;
    }
    f.data[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(byte);
  }
  return true;
}

// Parses an identifier field.  candump encodes framing in the digit count
// (3 = standard, 8 = extended); toolkit CSV is looser, so there a value
// above 0x7FF also promotes to extended (`promote_by_value`).
bool parse_id_field(std::string_view id_str, can::CanFrame& f,
                    bool promote_by_value) {
  if (id_str.size() > 1 && id_str[0] == '0' &&
      (id_str[1] == 'x' || id_str[1] == 'X')) {
    id_str.remove_prefix(2);
  }
  if (id_str.empty() || id_str.size() > 8) return false;
  std::uint32_t id = 0;
  if (!parse_hex(id_str, id)) return false;
  f.id = static_cast<can::CanId>(id);
  f.extended =
      id_str.size() > 3 || (promote_by_value && id > can::kMaxStdId);
  return f.extended ? can::is_valid_ext_id(f.id) : can::is_valid_id(f.id);
}

}  // namespace

std::string to_candump_line(const CandumpEntry& e) {
  char buf[128];
  const auto& f = e.frame;
  int n = std::snprintf(buf, sizeof buf, "(%s) %s %0*X#",
                        format_seconds(e.t_seconds).c_str(),
                        e.interface.c_str(), f.extended ? 8 : 3, f.id);
  std::string out{buf, static_cast<std::size_t>(n)};
  if (f.rtr) {
    out += 'R';
    return out;
  }
  for (int i = 0; i < f.dlc; ++i) {
    std::snprintf(buf, sizeof buf, "%02X",
                  f.data[static_cast<std::size_t>(i)]);
    out += buf;
  }
  return out;
}

std::string to_candump(const std::vector<CandumpEntry>& trace) {
  std::string out;
  for (const auto& e : trace) {
    out += to_candump_line(e);
    out += '\n';
  }
  return out;
}

std::string to_csv(const std::vector<CandumpEntry>& trace) {
  std::string out{"timestamp,id,dlc,data\n"};
  char buf[64];
  for (const auto& e : trace) {
    const auto& f = e.frame;
    int n = std::snprintf(buf, sizeof buf, "%s,%0*X,%u,",
                          format_seconds(e.t_seconds).c_str(),
                          f.extended ? 8 : 3, f.id, unsigned{f.dlc});
    out.append(buf, static_cast<std::size_t>(n));
    if (f.rtr) {
      out += 'R';
    } else {
      for (int i = 0; i < f.dlc; ++i) {
        std::snprintf(buf, sizeof buf, "%02X",
                      f.data[static_cast<std::size_t>(i)]);
        out += buf;
      }
    }
    out += '\n';
  }
  return out;
}

std::vector<CandumpEntry> parse_candump(std::string_view text) {
  std::vector<CandumpEntry> out;
  std::istringstream in{std::string{text}};
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto fail = [&](const char* what) {
      throw std::runtime_error("candump line " + std::to_string(lineno) +
                               ": " + what + ": " + line);
    };
    CandumpEntry e;
    std::istringstream ls{line};
    std::string ts, payload;
    if (!(ls >> ts >> e.interface >> payload)) fail("malformed line");
    if (ts.size() < 3 || ts.front() != '(' || ts.back() != ')') {
      fail("malformed timestamp");
    }
    if (!parse_seconds({ts.data() + 1, ts.size() - 2}, e.t_seconds)) {
      fail("malformed timestamp");
    }

    const auto hash = payload.find('#');
    if (hash == std::string::npos) fail("missing '#'");
    if (!parse_id_field(std::string_view{payload}.substr(0, hash), e.frame,
                        /*promote_by_value=*/false)) {
      fail("bad identifier");
    }
    if (!parse_data_field(std::string_view{payload}.substr(hash + 1),
                          e.frame)) {
      fail("bad data field");
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<CandumpEntry> parse_csv_trace(std::string_view text) {
  std::vector<CandumpEntry> out;
  std::istringstream in{std::string{text}};
  std::string line;
  int lineno = 0;
  bool first_record = true;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    auto fail = [&](const char* what) {
      throw std::runtime_error("csv trace line " + std::to_string(lineno) +
                               ": " + what + ": " + line);
    };
    std::vector<std::string_view> fields;
    std::string_view rest{line};
    while (true) {
      const auto comma = rest.find(',');
      fields.push_back(rest.substr(0, comma));
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
    double t = 0.0;
    if (first_record && !parse_seconds(fields[0], t)) {
      // A header row like "timestamp,id,dlc,data" — skip it once.
      first_record = false;
      continue;
    }
    first_record = false;
    if (fields.size() != 4) fail("expected timestamp,id,dlc,data");
    CandumpEntry e;
    if (!parse_seconds(fields[0], e.t_seconds)) fail("malformed timestamp");
    if (!parse_id_field(fields[1], e.frame, /*promote_by_value=*/true)) {
      fail("bad identifier");
    }
    std::uint32_t dlc = 0;
    {
      const auto* end = fields[2].data() + fields[2].size();
      auto [ptr, ec] = std::from_chars(fields[2].data(), end, dlc, 10);
      if (ec != std::errc{} || ptr != end || dlc > 8) fail("bad dlc");
    }
    if (!parse_data_field(fields[3], e.frame)) fail("bad data field");
    if (!e.frame.rtr && e.frame.dlc != dlc) fail("dlc/data length mismatch");
    e.frame.dlc = static_cast<std::uint8_t>(dlc);
    out.push_back(std::move(e));
  }
  return out;
}

TraceFormat sniff_trace_format(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto eol = text.find('\n', pos);
    auto line = text.substr(pos, eol == std::string_view::npos ? eol
                                                               : eol - pos);
    const auto first = line.find_first_not_of(" \t\r");
    if (first != std::string_view::npos) {
      return line[first] == '(' ? TraceFormat::Candump : TraceFormat::Csv;
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return TraceFormat::Candump;
}

std::vector<CandumpEntry> parse_trace(std::string_view text,
                                      TraceFormat format) {
  return format == TraceFormat::Candump ? parse_candump(text)
                                        : parse_csv_trace(text);
}

CandumpRecorder::CandumpRecorder(std::string interface)
    : interface_(std::move(interface)), rx_("candump/" + interface_) {
  rx_.set_rx_callback([this](const can::CanFrame& f, sim::BitTime now) {
    trace_.push_back(
        {static_cast<double>(now) * bit_seconds_, interface_, f});
  });
}

void CandumpRecorder::attach_to(can::WiredAndBus& bus) {
  bit_seconds_ = 1.0 / bus.speed().bits_per_second;
  rx_.attach_to(bus);
}

void attach_candump_replay(can::BitController& ctrl,
                           std::vector<CandumpEntry> trace,
                           sim::BusSpeed speed, double time_scale,
                           std::function<void(const can::CanFrame&)>
                               on_enqueue) {
  // stable_sort: entries sharing a timestamp keep their original trace
  // order, so the replayed schedule is identical across stdlibs.
  std::stable_sort(trace.begin(), trace.end(),
                   [](const CandumpEntry& a, const CandumpEntry& b) {
                     return a.t_seconds < b.t_seconds;
                   });
  const double t0 = trace.empty() ? 0.0 : trace.front().t_seconds;
  auto pending = std::make_shared<std::vector<CandumpEntry>>(std::move(trace));
  auto next = std::make_shared<std::size_t>(0);
  const double bps = speed.bits_per_second;
  ctrl.add_app(
      [pending, next, t0, bps, time_scale,
       on_enqueue = std::move(on_enqueue)](sim::BitTime now,
                                           can::BitController& c) {
        while (*next < pending->size()) {
          const auto& e = (*pending)[*next];
          const double due_bits = (e.t_seconds - t0) * time_scale * bps;
          if (static_cast<double>(now) < due_bits) break;
          if (c.enqueue(e.frame) && on_enqueue) on_enqueue(e.frame);
          ++*next;
        }
      },
      [pending, next, t0, bps, time_scale](sim::BitTime now) -> sim::BitTime {
        if (*next >= pending->size()) return can::kNever;
        const double due_bits =
            ((*pending)[*next].t_seconds - t0) * time_scale * bps;
        if (static_cast<double>(now) >= due_bits) return can::kAlways;
        // The replay cursor only advances inside the hook itself.
        return static_cast<sim::BitTime>(std::ceil(due_bits));
      });
}

}  // namespace mcan::restbus
