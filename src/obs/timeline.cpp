#include "obs/timeline.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "obs/jsonfmt.hpp"

namespace mcan::obs {
namespace {

using sim::Event;
using sim::EventKind;

/// The injector logs wire-level faults under this pseudo-node; they belong
/// on the bus track, not on a node track of their own.
constexpr std::string_view kFaultNode = "fault";
constexpr int kBusTid = 0;

std::string fmt_id(std::uint32_t id) {
  std::array<char, 16> buf{};
  std::snprintf(buf.data(), buf.size(), "0x%03X", id);
  return std::string{buf.data()};
}

std::string_view error_state_name(std::int64_t state) {
  switch (state) {
    case 0: return "error-active";
    case 1: return "error-passive";
    case 2: return "bus-off";
    default: return "error-state?";
  }
}

class TraceWriter {
 public:
  explicit TraceWriter(const TimelineOptions& opts) : opts_(opts) {}

  void meta(int tid, const std::string& name) {
    begin();
    os_ << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }

  void process_meta() {
    begin();
    os_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
           "\"args\":{\"name\":\"michican-sim\"}}";
  }

  void slice(int tid, const char* cat, const std::string& name,
             sim::BitTime from, sim::BitTime to, const std::string& args = {}) {
    begin();
    os_ << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"X\",\"ts\":"
        << ts(from) << ",\"dur\":" << ts(to > from ? to - from : 0)
        << ",\"pid\":0,\"tid\":" << tid << ",\"cat\":\"" << cat << "\"";
    if (!args.empty()) os_ << ",\"args\":{" << args << "}";
    os_ << "}";
  }

  void instant(int tid, const char* cat, const std::string& name,
               sim::BitTime at, const std::string& args = {}) {
    begin();
    os_ << "{\"name\":\"" << json_escape(name)
        << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts(at)
        << ",\"pid\":0,\"tid\":" << tid << ",\"cat\":\"" << cat << "\"";
    if (!args.empty()) os_ << ",\"args\":{" << args << "}";
    os_ << "}";
  }

  void counter(const std::string& name, sim::BitTime at,
               const std::string& series, const std::string& value) {
    begin();
    os_ << "{\"name\":\"" << json_escape(name)
        << "\",\"ph\":\"C\",\"ts\":" << ts(at) << ",\"pid\":0,\"args\":{\""
        << series << "\":" << value << "}}";
  }

  [[nodiscard]] std::string finish(sim::BusSpeed speed) {
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
           "\"michican.trace.v1\",\"bits_per_second\":"
        << speed.bits_per_second << ",\"bit_time_us\":"
        << fmt_double(speed.bit_time_us()) << "},\"traceEvents\":[\n"
        << os_.str() << "\n]}\n";
    return out.str();
  }

 private:
  void begin() {
    if (!first_) os_ << ",\n";
    first_ = false;
  }

  [[nodiscard]] std::string ts(sim::BitTime bits) const {
    return fmt_double(static_cast<double>(bits) * opts_.speed.bit_time_us());
  }

  TimelineOptions opts_;
  std::ostringstream os_;
  bool first_{true};
};

struct NodeState {
  int tid{};
  std::optional<std::pair<sim::BitTime, std::uint32_t>> open_frame;
  std::optional<sim::BitTime> open_attack;
  std::optional<sim::BitTime> open_busoff;
};

}  // namespace

std::string to_chrome_trace(const sim::EventLog& log,
                            const sim::LogicAnalyzer* trace,
                            const TimelineOptions& opts) {
  TraceWriter w{opts};
  w.process_meta();
  w.meta(kBusTid, "bus");

  // Tracks in first-appearance order; the injector's pseudo-node maps onto
  // the bus track.
  std::map<std::string, NodeState, std::less<>> nodes;
  std::vector<std::string> order;
  for (const auto& e : log.events()) {
    if (e.node == kFaultNode || e.node.empty()) continue;
    if (nodes.emplace(e.node, NodeState{}).second) order.push_back(e.node);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    nodes[order[i]].tid = static_cast<int>(i) + 1;
    w.meta(nodes[order[i]].tid, order[i]);
  }

  sim::BitTime end = trace != nullptr ? trace->size() : 0;
  if (!log.events().empty()) {
    end = std::max<sim::BitTime>(end, log.events().back().at + 1);
  }

  // Bus-load counter track from the logic analyzer.
  if (trace != nullptr && opts.load_window > 0 && trace->size() > 0) {
    for (sim::BitTime at = 0; at < trace->size(); at += opts.load_window) {
      const auto to = std::min<sim::BitTime>(at + opts.load_window,
                                             trace->size());
      w.counter("bus load %", at, "load",
                fmt_double(100.0 * trace->busy_fraction(at, to)));
    }
    for (const auto& a : trace->annotations()) {
      w.instant(kBusTid, "bus", a.text, a.at);
    }
  }

  // Idle slices: long recessive stretches on the bus track, straight from
  // the run-length-encoded trace.  These are the all-recessive windows the
  // engine skips in one step — but they render identically for a per-bit
  // recording of the same bus.
  if (trace != nullptr && opts.idle_min_bits > 0) {
    for (const auto& r : trace->runs()) {
      if (r.level == sim::BitLevel::Recessive && r.length >= opts.idle_min_bits) {
        w.slice(kBusTid, "idle", "idle", r.start, r.start + r.length,
                "\"bits\":" + std::to_string(r.length));
      }
    }
  }

  const auto close_frame = [&](NodeState& n, sim::BitTime at,
                               const char* how, std::uint32_t id) {
    if (!n.open_frame) return;
    const auto [from, open_id] = *n.open_frame;
    n.open_frame.reset();
    w.slice(n.tid, "frame",
            std::string{how} + " " + fmt_id(id != 0 ? id : open_id), from,
            at);
  };

  for (const auto& e : log.events()) {
    if (e.node == kFaultNode || e.node.empty()) {
      w.instant(kBusTid, "fault", "fault",
                e.at, "\"kind\":" + std::to_string(e.a) +
                          ",\"b\":" + std::to_string(e.b) +
                          (e.detail.empty()
                               ? std::string{}
                               : ",\"detail\":\"" + json_escape(e.detail) +
                                     "\""));
      continue;
    }
    auto& n = nodes[e.node];
    switch (e.kind) {
      case EventKind::FrameTxStart:
        close_frame(n, e.at, "tx-aborted", 0);
        n.open_frame = {e.at, e.id};
        break;
      case EventKind::FrameTxSuccess:
        close_frame(n, e.at, "tx", e.id);
        break;
      case EventKind::FrameRxSuccess:
        w.instant(n.tid, "rx", "rx " + fmt_id(e.id), e.at);
        break;
      case EventKind::ArbitrationLost:
        close_frame(n, e.at, "arb-lost", e.id);
        break;
      case EventKind::TxError:
        close_frame(n, e.at, "tx-error", 0);
        w.instant(n.tid, "error", "tx-error", e.at,
                  "\"type\":" + std::to_string(e.a) +
                      ",\"tec\":" + std::to_string(e.b));
        if (opts.counters) {
          w.counter(e.node + " TEC", e.at, "TEC", std::to_string(e.b));
        }
        break;
      case EventKind::RxError:
        w.instant(n.tid, "error", "rx-error", e.at,
                  "\"type\":" + std::to_string(e.a) +
                      ",\"rec\":" + std::to_string(e.b));
        if (opts.counters) {
          w.counter(e.node + " REC", e.at, "REC", std::to_string(e.b));
        }
        break;
      case EventKind::ErrorStateChange:
        w.instant(n.tid, "state", std::string{error_state_name(e.a)}, e.at);
        break;
      case EventKind::BusOff:
        close_frame(n, e.at, "tx-error", 0);
        n.open_busoff = e.at;
        if (opts.counters) {
          w.counter(e.node + " TEC", e.at, "TEC", std::to_string(e.b));
        }
        break;
      case EventKind::BusOffRecovered:
        if (n.open_busoff) {
          w.slice(n.tid, "state", "bus-off", *n.open_busoff, e.at);
          n.open_busoff.reset();
        }
        if (opts.counters) {
          w.counter(e.node + " TEC", e.at, "TEC", "0");
          w.counter(e.node + " REC", e.at, "REC", "0");
        }
        break;
      case EventKind::SuspendStart:
        w.slice(n.tid, "state", "suspend", e.at, e.at + 8);
        break;
      case EventKind::AttackDetected:
        w.instant(n.tid, "defense", "attack detected " + fmt_id(e.id), e.at,
                  "\"decision_bit\":" + std::to_string(e.a));
        break;
      case EventKind::CounterattackStart:
        n.open_attack = e.at;
        break;
      case EventKind::CounterattackEnd:
        if (n.open_attack) {
          w.slice(n.tid, "defense", "counterattack", *n.open_attack, e.at);
          n.open_attack.reset();
        }
        break;
      case EventKind::OverloadFrame:
        w.instant(n.tid, "state", "overload", e.at);
        break;
      case EventKind::FaultInjected:
        // Skew-slip faults are logged under the affected node's name.
        w.instant(n.tid, "fault", "fault", e.at,
                  "\"kind\":" + std::to_string(e.a) +
                      ",\"b\":" + std::to_string(e.b));
        break;
      case EventKind::Custom:
        w.instant(n.tid, "custom",
                  e.detail.empty() ? std::string{"custom"} : e.detail, e.at);
        break;
    }
  }

  // Close slices still open at the end of the recording.
  for (const auto& name : order) {
    auto& n = nodes[name];
    if (n.open_frame) close_frame(n, end, "tx-open", 0);
    if (n.open_attack) {
      w.slice(n.tid, "defense", "counterattack", *n.open_attack, end);
    }
    if (n.open_busoff) w.slice(n.tid, "state", "bus-off", *n.open_busoff, end);
  }

  return w.finish(opts.speed);
}

std::string to_jsonl(const sim::EventLog& log) {
  std::ostringstream os;
  for (const auto& e : log.events()) {
    os << "{\"at\":" << e.at << ",\"node\":\"" << json_escape(e.node)
       << "\",\"kind\":\"" << sim::to_string(e.kind) << "\",\"id\":" << e.id
       << ",\"a\":" << e.a << ",\"b\":" << e.b;
    if (!e.detail.empty()) os << ",\"detail\":\"" << json_escape(e.detail)
                              << "\"";
    os << "}\n";
  }
  return os.str();
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out) return false;
  out << content;
  // Flush before checking so a full device (or any deferred write error)
  // is reported here instead of being swallowed by the destructor.
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace mcan::obs
