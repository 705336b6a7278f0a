// Span tracing: a 64-bit trace id derived from seed material, plus a
// thread-safe collector of completed spans (plan → per-cell
// cache-probe/compute → aggregate) that renders as a Chrome trace-event
// document, every span tagged with the one trace id.  perfbench's traced
// run hangs a collector off CampaignConfig::spans to split a campaign's
// wall time by phase.
//
// Layering: obs sits below runner, so the id derivation here is a local
// FNV-1a with length-framed parts (runner::Fingerprint is not visible from
// this library; the constants match FNV-1a 64 by construction).
//
// Determinism: spans are runtime telemetry and must never perturb report
// byte-identity — collectors hang off config pointers that default to
// nullptr, and a null collector makes every Scope a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mcan::obs {

/// Lower-case, zero-padded 16-hex-digit rendering of a 64-bit id.
[[nodiscard]] std::string hex16(std::uint64_t v);

/// Accumulates seed material (workload name, scenario list, seed range,
/// ...) into a 64-bit trace id.  Length-framed so that
/// mix("ab").mix("c") != mix("a").mix("bc").
class TraceIdBuilder {
 public:
  TraceIdBuilder& mix(std::string_view part);
  TraceIdBuilder& mix_u64(std::uint64_t v);
  [[nodiscard]] std::uint64_t id() const noexcept { return hash_; }

 private:
  std::uint64_t hash_{0xCBF29CE484222325ull};  // FNV-1a 64 offset basis
};

/// One completed service span.  Times are microseconds on the steady clock
/// relative to the collector's epoch.
struct Span {
  std::uint64_t id{};      // unique within the collector, assigned from 1
  std::uint64_t parent{};  // 0 = root
  std::string name;
  std::string category;
  double start_us{};
  double dur_us{};
  int track{0};  // Chrome-trace tid: 0 = service row, 1+N = cell rows
  std::string args_json;  // extra pre-rendered "key":value pairs (may be "")
};

/// Thread-safe sink for completed spans.  Workers record concurrently; the
/// export sorts by (track, start) so output is stable for rendering.
class SpanCollector {
 public:
  /// Span timestamps count from construction time.
  explicit SpanCollector(std::uint64_t trace_id);

  /// Microseconds since construction (monotonic).
  [[nodiscard]] double now_us() const;

  /// Reserve the next span id (thread-safe).  Lets a parent hand its id to
  /// children before the parent span itself completes.
  [[nodiscard]] std::uint64_t next_id();

  /// Record a completed span (thread-safe).
  void record(Span span);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t span_count() const;

  /// RAII span: reserves an id at construction (children can parent to it
  /// immediately) and records the completed span at destruction.  A null
  /// collector makes every member a no-op, so call sites need no guards.
  class Scope {
   public:
    Scope(SpanCollector* collector, std::string_view name,
          std::string_view category, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    void set_track(int track) noexcept { track_ = track; }
    void set_args(std::string args_json) { args_json_ = std::move(args_json); }

   private:
    SpanCollector* collector_;
    std::uint64_t id_{0};
    std::uint64_t parent_{0};
    std::string name_;
    std::string category_;
    double start_us_{0};
    int track_{0};
    std::string args_json_;
  };

  /// Chrome trace document: process/thread metadata plus one "X" slice per
  /// span, all at `pid`, each tagged "trace_id":"<hex16>"; an empty event
  /// array when no spans were recorded.
  [[nodiscard]] std::string to_chrome_trace(int pid = 1) const;

 private:
  std::uint64_t trace_id_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t next_id_{1};
  std::vector<Span> spans_;
};

}  // namespace mcan::obs
