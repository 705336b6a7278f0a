#include "runner/fleet.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <csignal>
#include <sys/prctl.h>
#endif

#include "analysis/scenarios.hpp"
#include "obs/jsonfmt.hpp"
#include "runner/report.hpp"
#include "runner/report_writer.hpp"
#include "runner/schemas.hpp"

namespace mcan::runner {
namespace {

namespace fs = std::filesystem;

std::string hex16(std::uint64_t v) {
  std::array<char, 20> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string{buf.data()};
}

/// First value of `"key":<digits>` in a compact JSON document; the key
/// string must include its quotes and colon.  Good enough for the reports
/// this module itself emits — never used on foreign input.
std::optional<std::uint64_t> scan_u64(std::string_view text,
                                      std::string_view key) {
  const auto pos = text.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + key.size();
  if (i >= text.size() ||
      std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  while (i < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    v = v * 10 + static_cast<std::uint64_t>(text[i] - '0');
    ++i;
  }
  return v;
}

std::optional<double> scan_double(std::string_view text,
                                  std::string_view key) {
  const auto pos = text.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string num{text.substr(pos + key.size(), 64)};
  char* end = nullptr;
  const double v = std::strtod(num.c_str(), &end);
  if (end == num.c_str()) return std::nullopt;
  return v;
}

std::uint64_t sum_u64_all(std::string_view text, std::string_view key) {
  std::uint64_t total = 0;
  std::size_t from = 0;
  while (true) {
    const auto pos = text.find(key, from);
    if (pos == std::string_view::npos) break;
    if (const auto v = scan_u64(text.substr(pos), key)) total += *v;
    from = pos + key.size();
  }
  return total;
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  if (!in && !in.eof()) return std::nullopt;
  return os.str();
}

/// The campaign report with its runtime block stripped and the trailing
/// newline trimmed, ready for embedding as a JSON value.
std::string deterministic_campaign_json(const CampaignReport& report) {
  JsonOptions opts;
  opts.include_runtime = false;
  opts.include_tasks = true;
  std::string body = to_json(report, opts);
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.pop_back();
  }
  return body;
}

struct Worker {
  std::size_t shard{};
  pid_t pid{-1};
  bool running{false};
  int exit_code{-1};
  std::string summary_path;
};

void narrate(const FleetConfig& cfg, const std::string& line) {
  if (cfg.log) cfg.log(line);
}

/// Scan the cache directory for planned cell files: the set of done ids,
/// sorted.  `plan_ids` is the deduplicated planned id set.
std::vector<std::string> scan_done(const fs::path& cache_dir,
                                   const std::set<std::string>& plan_ids) {
  std::vector<std::string> done;
  for (const auto& id : plan_ids) {
    std::error_code ec;
    if (fs::exists(cache_dir / (id + ".cell"), ec)) done.push_back(id);
  }
  return done;  // std::set iteration order keeps it sorted
}

void write_checkpoint(const FleetConfig& cfg, const CheckpointManifest& m) {
  if (cfg.checkpoint_path.empty()) return;
  const fs::path path{cfg.checkpoint_path};
  const fs::path tmp{cfg.checkpoint_path + ".tmp"};
  if (!ReportWriter::write_file(tmp.string(), m.to_json())) return;
  std::error_code ec;
  fs::rename(tmp, path, ec);  // atomic on POSIX; never observed half-written
}

[[noreturn]] void exec_worker(const FleetConfig& cfg, std::size_t shard,
                              const std::string& summary_path) {
#ifdef __linux__
  // Die with the parent: a SIGKILLed fleet must not leak detached workers
  // that keep mutating the cache behind the resume.  Re-check the parent
  // afterwards — it may have died between fork() and prctl().
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(125);
#endif
  std::vector<std::string> argv_s;
  argv_s.push_back(cfg.self_exe);
  argv_s.push_back("fleet-worker");
  argv_s.push_back("--shard");
  argv_s.push_back(std::to_string(shard));
  argv_s.push_back("--shards");
  argv_s.push_back(std::to_string(cfg.shards));
  argv_s.push_back("--vehicles");
  argv_s.push_back(std::to_string(cfg.vehicles));
  argv_s.push_back("--base-seed");
  argv_s.push_back(std::to_string(cfg.base_seed));
  argv_s.push_back("--jobs");
  argv_s.push_back(std::to_string(cfg.jobs));
  if (cfg.duration_ms > 0) {
    argv_s.push_back("--duration-ms");
    argv_s.push_back(std::to_string(cfg.duration_ms));
  }
  if (!cfg.fast_path) argv_s.push_back("--no-fast-path");
  argv_s.push_back("--cache-dir");
  argv_s.push_back(cfg.cache_dir);
  argv_s.push_back("--summary");
  argv_s.push_back(summary_path);
  for (const auto& s : cfg.scenarios) argv_s.push_back(s);

  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  ::execv(cfg.self_exe.c_str(), argv.data());
  ::_exit(127);  // exec failed; errno is lost but 127 is the shell idiom
}

}  // namespace

SeedRange shard_seed_range(std::uint64_t vehicles, std::size_t shards,
                           std::size_t k) {
  if (shards == 0) throw std::invalid_argument("shard_seed_range: shards == 0");
  if (k >= shards) throw std::invalid_argument("shard_seed_range: k >= shards");
  // Balanced contiguous partition without a 128-bit multiply: every shard
  // gets floor(vehicles/shards) seeds, the first (vehicles % shards) get one
  // extra.  Equivalent to [vehicles*k/shards, vehicles*(k+1)/shards) and
  // overflow-safe (k*q + min(k, r) <= vehicles).
  const std::uint64_t q = vehicles / shards;
  const std::uint64_t r = vehicles % shards;
  const auto at = [&](std::uint64_t i) { return i * q + std::min(i, r); };
  return SeedRange{at(k), at(k + 1)};
}

CampaignConfig fleet_campaign(const FleetConfig& cfg) {
  if (cfg.vehicles == 0) {
    throw std::invalid_argument("fleet: vehicles must be >= 1");
  }
  if (cfg.scenarios.empty()) {
    throw std::invalid_argument("fleet: no scenarios given");
  }
  const auto& registry = analysis::ScenarioRegistry::built_in();
  CampaignConfig cc;
  cc.specs.reserve(cfg.scenarios.size());
  for (const auto& name : cfg.scenarios) {
    auto spec = registry.make(name);  // throws with suggestions when unknown
    if (cfg.duration_ms > 0) spec.duration = sim::Millis{cfg.duration_ms};
    spec.fast_path = cfg.fast_path;
    cc.specs.push_back(std::move(spec));
  }
  cc.seeds = SeedRange{0, cfg.vehicles};
  cc.base_seed = cfg.base_seed;
  cc.jobs = cfg.jobs;
  return cc;
}

CampaignReport run_fleet_shard(const FleetConfig& cfg, std::size_t k,
                               CellStore* store) {
  CampaignConfig cc = fleet_campaign(cfg);
  const std::size_t shards = std::max<std::size_t>(cfg.shards, 1);
  cc.seeds = shard_seed_range(cfg.vehicles, shards, k);
  cc.cells = store;
  return run_campaign(cc);
}

std::uint64_t fleet_plan_hash(const FleetConfig& cfg) {
  const CampaignConfig cc = fleet_campaign(cfg);
  Fingerprint fp;
  fp.mix_str(kFleetSchema);
  fp.mix_str(kEngineVersion);
  fp.mix_u64(cfg.base_seed);
  fp.mix_u64(cfg.vehicles);
  fp.mix_u64(cfg.scenarios.size());
  for (std::size_t i = 0; i < cfg.scenarios.size(); ++i) {
    fp.mix_str(cfg.scenarios[i]);
    // The resolved spec's content hash covers the duration override and
    // every semantic field; engine toggles are excluded by construction.
    fp.mix_u64(spec_fingerprint(cc.specs[i]));
  }
  return fp.digest();
}

std::string CheckpointManifest::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"" << kFleetCheckpointSchema << "\",\"plan_hash\":\""
     << hex16(plan_hash) << "\",\"total\":" << total << ",\"done\":[";
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << obs::json_escape(done[i]) << "\"";
  }
  os << "]}\n";
  return os.str();
}

std::optional<CheckpointManifest> parse_checkpoint(std::string_view text) {
  const std::string schema_field =
      "\"schema\":\"" + std::string{kFleetCheckpointSchema} + "\"";
  if (text.find(schema_field) == std::string_view::npos) return std::nullopt;

  CheckpointManifest m;
  const std::string_view hash_key = "\"plan_hash\":\"";
  const auto hpos = text.find(hash_key);
  if (hpos == std::string_view::npos) return std::nullopt;
  {
    std::size_t i = hpos + hash_key.size();
    std::uint64_t v = 0;
    std::size_t digits = 0;
    while (i < text.size() && text[i] != '"') {
      const char c = text[i];
      int nibble = -1;
      if (c >= '0' && c <= '9') nibble = c - '0';
      if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
      if (nibble < 0 || ++digits > 16) return std::nullopt;
      v = (v << 4) | static_cast<std::uint64_t>(nibble);
      ++i;
    }
    if (digits == 0) return std::nullopt;
    m.plan_hash = v;
  }
  const auto total = scan_u64(text, "\"total\":");
  if (!total) return std::nullopt;
  m.total = *total;

  const std::string_view done_key = "\"done\":[";
  auto dpos = text.find(done_key);
  if (dpos == std::string_view::npos) return std::nullopt;
  std::size_t i = dpos + done_key.size();
  while (i < text.size() && text[i] != ']') {
    if (text[i] == '"') {
      const auto close = text.find('"', i + 1);
      if (close == std::string_view::npos) return std::nullopt;
      m.done.emplace_back(text.substr(i + 1, close - i - 1));
      i = close + 1;
    } else {
      ++i;
    }
  }
  return m;
}

std::string to_json(const FleetReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kFleetSchema << "\",\"vehicles\":"
     << report.vehicles << ",\"base_seed\":" << report.base_seed
     << ",\"plan_hash\":\"" << hex16(report.plan_hash) << "\",\"scenarios\":[";
  for (std::size_t i = 0; i < report.scenarios.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << obs::json_escape(report.scenarios[i]) << "\"";
  }
  os << "],\"campaign\":" << deterministic_campaign_json(report.merged)
     << "}\n";
  return os.str();
}

std::string fleet_stats_json(const FleetReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kFleetSchema << "\",\"runtime\":{\"shards\":"
     << report.shards_used << ",\"jobs\":" << report.jobs
     << ",\"wall_ms\":" << obs::fmt_double(report.wall_ms)
     << ",\"cells_at_start\":" << report.cells_at_start
     << ",\"merge_cache\":{\"hits\":" << report.merged.cache_hits
     << ",\"misses\":" << report.merged.cache_misses
     << ",\"corrupt\":" << report.merged.cache_corrupt
     << "},\"shard_reports\":[";
  for (std::size_t i = 0; i < report.shard_outcomes.size(); ++i) {
    const auto& s = report.shard_outcomes[i];
    if (i != 0) os << ",";
    os << "{\"shard\":" << s.shard << ",\"seeds\":{\"begin\":"
       << s.seeds.begin << ",\"end\":" << s.seeds.end
       << "},\"exit\":" << s.exit_code
       << ",\"summary_ok\":" << (s.summary_ok ? "true" : "false")
       << ",\"hits\":" << s.cache_hits << ",\"misses\":" << s.cache_misses
       << ",\"wall_ms\":" << obs::fmt_double(s.wall_ms)
       << ",\"failed\":" << s.failed << "}";
  }
  os << "]}}\n";
  return os.str();
}

FleetReport run_fleet(const FleetConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  if (cfg.cache_dir.empty()) {
    throw std::invalid_argument("fleet: --cache-dir is required");
  }
  if (cfg.self_exe.empty()) {
    throw std::invalid_argument("fleet: cannot locate own executable");
  }
  if (!cfg.open_store) {
    throw std::invalid_argument("fleet: no cell-store factory configured");
  }

  const CampaignConfig full = fleet_campaign(cfg);  // validates scenarios
  const auto plan = plan_campaign(full);
  const std::uint64_t plan_hash = fleet_plan_hash(cfg);
  const std::size_t shards = std::min<std::size_t>(
      std::max<std::size_t>(cfg.shards, 1),
      static_cast<std::size_t>(cfg.vehicles));

  std::set<std::string> plan_ids;
  for (const auto& cell : plan) plan_ids.insert(cell.key.id());

  const fs::path cache_dir{cfg.cache_dir};
  fs::create_directories(cache_dir);
  const fs::path summary_dir = cache_dir / "shards";
  fs::create_directories(summary_dir);

  // A pre-existing checkpoint must describe THIS plan; resuming a different
  // plan into the same manifest silently mixes unrelated reports.
  if (!cfg.checkpoint_path.empty()) {
    std::error_code ec;
    if (fs::exists(cfg.checkpoint_path, ec)) {
      const auto text = read_file(cfg.checkpoint_path);
      const auto prior = text ? parse_checkpoint(*text) : std::nullopt;
      if (!prior) {
        throw std::invalid_argument("fleet: unreadable checkpoint manifest " +
                                    cfg.checkpoint_path);
      }
      if (prior->plan_hash != plan_hash) {
        throw std::invalid_argument(
            "fleet: checkpoint " + cfg.checkpoint_path +
            " was written by a different plan (hash " +
            hex16(prior->plan_hash) + ", this run is " + hex16(plan_hash) +
            "); pass a fresh --checkpoint path or delete it");
      }
    }
  }

  FleetReport report;
  report.vehicles = cfg.vehicles;
  report.base_seed = cfg.base_seed;
  report.scenarios = cfg.scenarios;
  report.plan_hash = plan_hash;
  report.shards_used = shards;
  report.jobs = cfg.jobs;
  report.cells_at_start = scan_done(cache_dir, plan_ids).size();
  narrate(cfg, "fleet: " + std::to_string(plan.size()) + " cells over " +
                   std::to_string(shards) + " shards, " +
                   std::to_string(report.cells_at_start) +
                   " already cached");

  CheckpointManifest manifest;
  manifest.plan_hash = plan_hash;
  manifest.total = plan_ids.size();
  manifest.done = scan_done(cache_dir, plan_ids);
  write_checkpoint(cfg, manifest);

  std::vector<Worker> workers;
  workers.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    Worker w;
    w.shard = k;
    w.summary_path =
        (summary_dir / ("shard-" + std::to_string(k) + ".json")).string();
    std::error_code ec;
    fs::remove(w.summary_path, ec);  // a stale summary must not be re-read
    const pid_t pid = ::fork();
    if (pid < 0) {
      // Spawn failure is not fatal: the merge pass recomputes this shard's
      // cells (slower, still correct).
      narrate(cfg, "fleet: fork failed for shard " + std::to_string(k));
      workers.push_back(w);
      continue;
    }
    if (pid == 0) exec_worker(cfg, k, w.summary_path);
    w.pid = pid;
    w.running = true;
    workers.push_back(w);
  }

  const auto interval = std::chrono::duration<double, std::milli>(
      std::max(cfg.checkpoint_interval_ms, 10.0));
  while (true) {
    bool any_running = false;
    for (auto& w : workers) {
      if (!w.running) continue;
      int status = 0;
      const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      if (r == w.pid) {
        w.running = false;
        w.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        narrate(cfg, "fleet: shard " + std::to_string(w.shard) +
                         " exited with code " + std::to_string(w.exit_code));
      } else if (r < 0) {
        w.running = false;  // waitpid error: treat as gone
      } else {
        any_running = true;
      }
    }
    manifest.done = scan_done(cache_dir, plan_ids);
    write_checkpoint(cfg, manifest);
    if (!any_running) break;
    std::this_thread::sleep_for(interval);
  }

  // Merge: re-run the FULL plan against the shared store.  Every cell a
  // worker persisted replays as a hit; anything missing (crashed or
  // fork-failed shard) is recomputed here.  This pass — not any shard
  // arithmetic — is what makes the report shard-count independent.
  const auto store = cfg.open_store(cfg.cache_dir);
  CampaignConfig merge_cfg = full;
  merge_cfg.cells = store.get();
  report.merged = run_campaign(merge_cfg);

  manifest.done = scan_done(cache_dir, plan_ids);
  write_checkpoint(cfg, manifest);

  for (const auto& w : workers) {
    ShardOutcome out;
    out.shard = w.shard;
    out.seeds = shard_seed_range(cfg.vehicles, shards, w.shard);
    out.exit_code = w.exit_code;
    if (const auto text = read_file(w.summary_path)) {
      out.summary_ok = true;
      out.cache_hits = scan_u64(*text, "\"hits\":").value_or(0);
      out.cache_misses = scan_u64(*text, "\"misses\":").value_or(0);
      out.wall_ms = scan_double(*text, "\"wall_ms\":").value_or(0);
      out.failed = sum_u64_all(*text, "\"failed\":");
    }
    report.shard_outcomes.push_back(out);
  }

  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

}  // namespace mcan::runner
