#include "runner/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "attack/profiles.hpp"
#include "runner/cell_codec.hpp"
#include "runner/thread_pool.hpp"
#include "sim/rng.hpp"

namespace mcan::runner {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

PercentileSet percentiles(const std::vector<double>& xs) {
  PercentileSet p;
  p.p50 = sim::percentile(xs, 50.0);
  p.p90 = sim::percentile(xs, 90.0);
  p.p99 = sim::percentile(xs, 99.0);
  return p;
}

/// Reduce one spec's row of task slots.  Walks seeds in range order, so the
/// floating-point accumulation order is fixed regardless of which worker
/// finished which task first.
SpecAggregate aggregate_spec(const analysis::ExperimentSpec& spec,
                             const std::vector<TaskResult>& tasks,
                             std::size_t spec_index, std::size_t num_seeds) {
  SpecAggregate agg;
  agg.number = spec.number;
  agg.label = spec.label;
  agg.tasks = num_seeds;

  std::vector<double> pooled_cycles;
  std::vector<std::vector<double>> per_attacker(spec.attackers.size());
  std::vector<double> first_cycles;
  std::vector<double> detection_bits;
  std::vector<double> busy;

  for (std::size_t s = 0; s < num_seeds; ++s) {
    const auto& task = tasks[spec_index * num_seeds + s];
    if (!task.ok) {
      ++agg.failed;
      continue;
    }
    const auto& res = task.result;
    for (std::size_t a = 0; a < res.attackers.size(); ++a) {
      const auto& out = res.attackers[a];
      pooled_cycles.insert(pooled_cycles.end(), out.busoff_cycles_ms.begin(),
                           out.busoff_cycles_ms.end());
      if (a < per_attacker.size()) {
        per_attacker[a].insert(per_attacker[a].end(),
                               out.busoff_cycles_ms.begin(),
                               out.busoff_cycles_ms.end());
      }
    }
    if (res.first_cycle_total_bits > 0) {
      first_cycles.push_back(res.first_cycle_total_bits);
    }
    if (res.attacks_detected > 0) {
      detection_bits.push_back(res.mean_detection_bit);
    }
    busy.push_back(res.busy_fraction);
    agg.counterattacks += res.counterattacks;
    agg.attacks_detected += res.attacks_detected;
    if (res.defender_bus_off) ++agg.defender_bus_off_runs;
    agg.max_defender_tec = std::max(agg.max_defender_tec, res.defender_tec);
    agg.max_defender_rec = std::max(agg.max_defender_rec, res.defender_rec);
    agg.defender_frames_sent += res.defender_frames_sent;
    agg.faults.random_flips += res.faults.random_flips;
    agg.faults.scheduled_flips += res.faults.scheduled_flips;
    agg.faults.stuck_bits += res.faults.stuck_bits;
    agg.faults.sample_slips += res.faults.sample_slips;
    agg.false_detections += res.false_detections;
    agg.attacker_frames += res.attacker_frames;
    agg.error_frame_stomps += res.error_frame_stomps;
    agg.restbus_frames_delivered += res.restbus_frames_delivered;
    agg.restbus_drops += res.restbus_drops;
    if (res.restbus_any_bus_off) ++agg.restbus_bus_off_runs;
    agg.metrics.merge(res.metrics);
  }

  agg.busoff_ms = sim::summarize(pooled_cycles);
  agg.busoff_ms_pct = percentiles(pooled_cycles);
  for (std::size_t a = 0; a < per_attacker.size(); ++a) {
    AttackerAggregate aa;
    aa.primary_id = attack::primary_attack_id(spec.attackers[a]);
    aa.cycles = per_attacker[a].size();
    aa.busoff_ms = sim::summarize(per_attacker[a]);
    aa.busoff_ms_pct = percentiles(per_attacker[a]);
    agg.attackers.push_back(std::move(aa));
  }
  agg.first_cycle_total_bits = sim::summarize(first_cycles);
  agg.mean_detection_bit = sim::summarize(detection_bits);
  agg.busy_fraction = sim::summarize(busy);
  return agg;
}

}  // namespace

std::size_t CampaignReport::failed_tasks() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tasks) {
    if (!t.ok) ++n;
  }
  return n;
}

std::uint64_t CampaignReport::bits_simulated() const {
  std::uint64_t bits = 0;
  for (const auto& spec : specs) {
    bits += spec.metrics.counter_value("bus.bits_simulated");
  }
  return bits;
}

std::uint64_t CampaignReport::bits_skipped() const {
  std::uint64_t bits = 0;
  for (const auto& t : tasks) {
    if (t.ok) bits += t.result.bits_skipped;
  }
  return bits;
}

std::uint64_t CampaignReport::bits_batched() const {
  std::uint64_t bits = 0;
  for (const auto& t : tasks) {
    if (t.ok) bits += t.result.bits_batched;
  }
  return bits;
}

std::vector<CellPlan> plan_campaign(const CampaignConfig& cfg) {
  if (cfg.specs.empty()) {
    throw std::invalid_argument("campaign: no experiment specs");
  }
  const std::size_t num_seeds = cfg.seeds.size();
  if (num_seeds == 0) {
    throw std::invalid_argument("campaign: empty seed range");
  }
  std::vector<CellPlan> plan;
  plan.reserve(cfg.specs.size() * num_seeds);
  for (std::size_t si = 0; si < cfg.specs.size(); ++si) {
    const std::uint64_t spec_root = sim::derive_seed(cfg.base_seed, si);
    const std::uint64_t spec_hash = spec_fingerprint(cfg.specs[si]);
    for (std::size_t off = 0; off < num_seeds; ++off) {
      CellPlan cell;
      cell.spec_index = si;
      cell.seed = cfg.seeds.begin + off;
      cell.slot = si * num_seeds + off;
      cell.derived_seed = sim::derive_seed(spec_root, cell.seed);
      cell.key.spec_hash = spec_hash;
      cell.key.seed = cell.derived_seed;
      plan.push_back(std::move(cell));
    }
  }
  return plan;
}

CampaignReport run_campaign(const CampaignConfig& cfg) {
  const auto campaign_start = Clock::now();
  const std::vector<CellPlan> plan = [&cfg] {
    obs::SpanCollector::Scope span{cfg.spans, "plan", "service",
                                   cfg.spans_parent};
    return plan_campaign(cfg);
  }();
  const std::size_t num_seeds = cfg.seeds.size();

  CampaignReport report;
  report.base_seed = cfg.base_seed;
  report.seeds = cfg.seeds;
  report.cache_enabled = cfg.cells != nullptr;
  report.tasks.resize(plan.size());

  std::mutex progress_mu;
  std::size_t done = 0;
  const std::size_t total = report.tasks.size();

  // Records the store itself rejects (a failed checksum) never reach the
  // decoder, so they are counted from the store's own tally.
  const std::uint64_t store_corrupt_before =
      cfg.cells != nullptr ? cfg.cells->stats().corrupt : 0;

  ThreadPool pool{cfg.jobs == 0 ? 0u : cfg.jobs};
  report.jobs_used = pool.jobs();

  for (const CellPlan& cell : plan) {
    pool.submit([&, cell] {
      auto& task = report.tasks[cell.slot];
      task.spec_index = cell.spec_index;
      task.seed = cell.seed;
      task.derived_seed = cell.derived_seed;
      const auto task_start = Clock::now();
      // Fetch-or-compute through the cell store.  A fetched entry that
      // fails to decode is treated exactly like a miss: recompute, then
      // re-store over the bad bytes — but counted as corrupt.  The store's
      // own calls are timed as the task's cache.fetch and cache.store
      // phases (runtime block only; never task.*, which is the cell's
      // compute time).
      double fetch_ms = 0;
      if (cfg.cells != nullptr) {
        obs::SpanCollector::Scope probe{cfg.spans, "cell.probe", "cell",
                                        cfg.spans_parent};
        probe.set_track(1 + static_cast<int>(cell.slot));
        const auto fetch_start = Clock::now();
        const auto bytes = cfg.cells->fetch(cell.key);
        fetch_ms = elapsed_ms(fetch_start);
        if (bytes) {
          if (decode_cell(*bytes, task.result)) {
            task.ok = true;
            task.cached = true;
          } else {
            task.cache_corrupt = true;
          }
        }
      }
      if (!task.cached) {
        obs::SpanCollector::Scope compute{cfg.spans, "cell.compute", "cell",
                                          cfg.spans_parent};
        compute.set_track(1 + static_cast<int>(cell.slot));
        if (cfg.spans != nullptr) {
          compute.set_args("\"spec\":" + std::to_string(cell.spec_index) +
                           ",\"seed\":" + std::to_string(cell.seed));
        }
        try {
          auto spec = cfg.specs[cell.spec_index];
          spec.seed = task.derived_seed;
          analysis::validate(spec);
          task.result = analysis::run_experiment(spec);
          task.ok = true;
        } catch (const std::exception& e) {
          task.ok = false;
          task.error = e.what();
        } catch (...) {
          task.ok = false;
          task.error = "unknown exception";
        }
        if (task.ok && cfg.cells != nullptr) {
          const auto bytes = encode_cell(task.result);
          const auto store_start = Clock::now();
          cfg.cells->store(cell.key, bytes);
          task.result.profile.add("cache.store", elapsed_ms(store_start));
        }
      }
      // Added last: a hit's decode and a miss's compute both overwrite the
      // task's result, profile included.
      if (cfg.cells != nullptr) {
        task.result.profile.add("cache.fetch", fetch_ms);
      }
      task.wall_ms = elapsed_ms(task_start);
      std::lock_guard<std::mutex> lock{progress_mu};
      ++done;
      if (cfg.progress) cfg.progress(done, total);
    });
  }
  pool.wait_idle();

  for (const auto& task : report.tasks) {
    if (task.cached) {
      ++report.cache_hits;
    } else if (report.cache_enabled) {
      ++report.cache_misses;
    }
    if (task.cache_corrupt) ++report.cache_corrupt;
  }
  if (cfg.cells != nullptr) {
    report.cache_corrupt += cfg.cells->stats().corrupt - store_corrupt_before;
  }

  const auto aggregate_start = Clock::now();
  {
    obs::SpanCollector::Scope span{cfg.spans, "aggregate", "service",
                                   cfg.spans_parent};
    report.specs.reserve(cfg.specs.size());
    for (std::size_t si = 0; si < cfg.specs.size(); ++si) {
      report.specs.push_back(
          aggregate_spec(cfg.specs[si], report.tasks, si, num_seeds));
    }
  }
  for (const auto& task : report.tasks) {
    if (task.ok) report.profile.merge(task.result.profile);
  }
  report.profile.add("campaign.aggregate", elapsed_ms(aggregate_start));
  report.wall_ms = elapsed_ms(campaign_start);
  return report;
}

analysis::ExperimentResult rerun_cell(const CampaignConfig& cfg,
                                      std::size_t spec_index,
                                      std::uint64_t seed) {
  if (spec_index >= cfg.specs.size()) {
    throw std::out_of_range("rerun_cell: spec_index out of range");
  }
  if (seed < cfg.seeds.begin || seed >= cfg.seeds.end) {
    throw std::out_of_range("rerun_cell: seed outside the campaign range");
  }
  auto spec = cfg.specs[spec_index];
  spec.seed =
      sim::derive_seed(sim::derive_seed(cfg.base_seed, spec_index), seed);
  spec.capture_timeline = true;
  return analysis::run_experiment(spec);
}

}  // namespace mcan::runner
