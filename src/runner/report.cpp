#include "runner/report.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "obs/jsonfmt.hpp"
#include "runner/report_writer.hpp"
#include "runner/schemas.hpp"

namespace mcan::runner {
namespace {

using obs::fmt_double;
using obs::json_escape;

std::string fmt_hex_id(can::CanId id) {
  std::array<char, 16> buf{};
  std::snprintf(buf.data(), buf.size(), "0x%03X", static_cast<unsigned>(id));
  return std::string{buf.data()};
}

void put_summary(std::ostringstream& os, const sim::Summary& s,
                 const PercentileSet* pct = nullptr) {
  os << "{\"count\":" << s.count << ",\"mean\":" << fmt_double(s.mean)
     << ",\"stddev\":" << fmt_double(s.stddev)
     << ",\"min\":" << fmt_double(s.min) << ",\"max\":" << fmt_double(s.max);
  if (pct != nullptr) {
    os << ",\"p50\":" << fmt_double(pct->p50)
       << ",\"p90\":" << fmt_double(pct->p90)
       << ",\"p99\":" << fmt_double(pct->p99);
  }
  os << "}";
}

void put_spec(std::ostringstream& os, const SpecAggregate& spec) {
  os << "{\"number\":" << spec.number << ",\"label\":\""
     << json_escape(spec.label) << "\",\"tasks\":" << spec.tasks
     << ",\"failed\":" << spec.failed << ",\"busoff_ms\":";
  put_summary(os, spec.busoff_ms, &spec.busoff_ms_pct);
  os << ",\"attackers\":[";
  for (std::size_t a = 0; a < spec.attackers.size(); ++a) {
    const auto& aa = spec.attackers[a];
    if (a != 0) os << ",";
    os << "{\"id\":\"" << fmt_hex_id(aa.primary_id)
       << "\",\"cycles\":" << aa.cycles << ",\"busoff_ms\":";
    put_summary(os, aa.busoff_ms, &aa.busoff_ms_pct);
    os << "}";
  }
  os << "],\"first_cycle_total_bits\":";
  put_summary(os, spec.first_cycle_total_bits);
  os << ",\"mean_detection_bit\":";
  put_summary(os, spec.mean_detection_bit);
  os << ",\"busy_fraction\":";
  put_summary(os, spec.busy_fraction);
  os << ",\"counterattacks\":" << spec.counterattacks
     << ",\"attacks_detected\":" << spec.attacks_detected
     << ",\"detection\":{\"attacker_frames\":" << spec.attacker_frames
     << ",\"false_detections\":" << spec.false_detections
     << ",\"error_frame_stomps\":" << spec.error_frame_stomps
     << "},\"faults\":{\"random_flips\":" << spec.faults.random_flips
     << ",\"scheduled_flips\":" << spec.faults.scheduled_flips
     << ",\"stuck_bits\":" << spec.faults.stuck_bits
     << ",\"sample_slips\":" << spec.faults.sample_slips
     << "},\"defender\":{\"bus_off_runs\":" << spec.defender_bus_off_runs
     << ",\"max_tec\":" << spec.max_defender_tec
     << ",\"max_rec\":" << spec.max_defender_rec
     << ",\"frames_sent\":" << spec.defender_frames_sent
     << "},\"restbus\":{\"frames\":" << spec.restbus_frames_delivered
     << ",\"drops\":" << spec.restbus_drops
     << ",\"bus_off_runs\":" << spec.restbus_bus_off_runs
     << "},\"metrics\":" << spec.metrics.to_json() << "}";
}

void put_task(std::ostringstream& os, const TaskResult& task) {
  std::size_t cycles = 0;
  std::uint64_t counterattacks = 0;
  if (task.ok) {
    for (const auto& a : task.result.attackers) cycles += a.busoff_count;
    counterattacks = task.result.counterattacks;
  }
  os << "{\"spec\":" << task.spec_index << ",\"seed\":" << task.seed
     << ",\"derived_seed\":" << task.derived_seed
     << ",\"ok\":" << (task.ok ? "true" : "false");
  if (!task.ok) os << ",\"error\":\"" << json_escape(task.error) << "\"";
  os << ",\"cycles\":" << cycles << ",\"counterattacks\":" << counterattacks
     << "}";
}

}  // namespace

std::string to_json(const CampaignReport& report, JsonOptions opts) {
  const auto serialize_start = std::chrono::steady_clock::now();
  std::ostringstream os;
  os << "{\"schema\":\"" << kCampaignSchema << "\",\"base_seed\":"
     << report.base_seed << ",\"seeds\":{\"begin\":" << report.seeds.begin
     << ",\"end\":" << report.seeds.end << "},\"specs\":[";
  for (std::size_t i = 0; i < report.specs.size(); ++i) {
    if (i != 0) os << ",";
    put_spec(os, report.specs[i]);
  }
  os << "]";
  if (opts.include_tasks) {
    os << ",\"tasks\":[";
    for (std::size_t i = 0; i < report.tasks.size(); ++i) {
      if (i != 0) os << ",";
      put_task(os, report.tasks[i]);
    }
    os << "]";
  }
  if (opts.include_runtime) {
    // Wall clock spent rendering the deterministic section above — the
    // "report serialization" phase of the self-profile.
    const double serialize_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - serialize_start)
            .count();
    std::vector<double> task_wall;
    task_wall.reserve(report.tasks.size());
    for (const auto& t : report.tasks) task_wall.push_back(t.wall_ms);
    const std::uint64_t bits = report.bits_simulated();
    const double sim_ms = report.profile.total_ms("task.sim");
    os << ",\"runtime\":{\"jobs\":" << report.jobs_used
       << ",\"wall_ms\":" << fmt_double(report.wall_ms)
       << ",\"cache\":{\"enabled\":"
       << (report.cache_enabled ? "true" : "false")
       << ",\"hits\":" << report.cache_hits
       << ",\"misses\":" << report.cache_misses
       << ",\"corrupt\":" << report.cache_corrupt
       << "},\"task_wall_ms\":";
    put_summary(os, sim::summarize(task_wall));
    os << ",\"perf\":{\"phases\":" << report.profile.to_json()
       << ",\"serialize_ms\":" << fmt_double(serialize_ms)
       << ",\"bits_simulated\":" << bits
       << ",\"bits_skipped\":" << report.bits_skipped()
       << ",\"bits_batched\":" << report.bits_batched()
       << ",\"bits_per_second\":"
       << fmt_double(sim_ms > 0 ? static_cast<double>(bits) / (sim_ms / 1e3)
                                : 0.0)
       << "}";
    if (opts.baseline_wall_ms > 0) {
      os << ",\"baseline_jobs\":1,\"baseline_wall_ms\":"
         << fmt_double(opts.baseline_wall_ms) << ",\"speedup\":"
         << fmt_double(report.wall_ms > 0
                           ? opts.baseline_wall_ms / report.wall_ms
                           : 0.0);
    }
    os << "}";
  }
  os << "}\n";
  return os.str();
}

bool write_json_file(const std::string& path, const CampaignReport& report,
                     JsonOptions opts) {
  return ReportWriter::write_file(path, to_json(report, opts));
}

}  // namespace mcan::runner
