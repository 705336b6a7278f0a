// Timeline export: sim::EventLog -> Chrome trace-event JSON (Perfetto).
//
// The paper debugs arbitration-level behaviour off a hardware logic
// analyzer (Fig. 5/6); CANflict's evaluation shows how much a per-bit bus
// timeline reveals about bit-level attacks.  This exporter turns a
// recording's protocol event log into a timeline loadable in
// https://ui.perfetto.dev or chrome://tracing:
//
//   * one track (thread) per node — frame transmissions as slices ("tx
//     0x173", "arb-lost 0x066", "tx-error"), bus-off and suspend windows,
//     counterattack windows on the defender, detection verdicts and error
//     events as instants;
//   * TEC/REC counter tracks per node, sampled at every error event — the
//     error-counter trajectory the bus-off physics is all about;
//   * a "bus" track carrying injected faults, logic-analyzer annotations
//     and a windowed bus-load counter.
//
// Timestamps convert bit times to microseconds at the recording's bus
// speed; rendering is deterministic (map ordering + shortest-round-trip
// doubles), so trace files golden-diff cleanly.
//
// to_jsonl() is the compact line-per-event dump for ad-hoc tooling (jq,
// grep) where the Chrome JSON envelope is in the way.
#pragma once

#include <string>

#include "sim/event_log.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace mcan::obs {

struct TimelineOptions {
  sim::BusSpeed speed{};
  /// Window (bits) for the bus-load counter track; 0 disables it.
  sim::BitTime load_window{500};
  /// Emit TEC/REC counter tracks.
  bool counters{true};
  /// Emit "idle" slices on the bus track for recessive runs of at least
  /// `idle_min_bits` (derived from the logic-analyzer trace, so identical
  /// whether or not the engine skipped them as one window); 0 disables
  /// them.
  sim::BitTime idle_min_bits{64};
};

/// Render the log (plus, optionally, the logic-analyzer trace for the bus
/// track) as a Chrome trace-event JSON document.
[[nodiscard]] std::string to_chrome_trace(const sim::EventLog& log,
                                          const sim::LogicAnalyzer* trace,
                                          const TimelineOptions& opts = {});

/// Compact JSONL: one {"at","node","kind","id","a","b"[,"detail"]} object
/// per event, one event per line.
[[nodiscard]] std::string to_jsonl(const sim::EventLog& log);

/// Write `content` to `path`; returns false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace mcan::obs
