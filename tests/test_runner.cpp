// Campaign-runner properties (DESIGN.md §4.6 extended to parallel runs):
//   * determinism — a campaign aggregated with jobs=1 and jobs=8 produces
//     byte-identical deterministic JSON for the same seed range, because
//     per-task seeds derive from task identity (sim::derive_seed) and the
//     reduction walks result slots in grid order;
//   * crash isolation — an invalid spec fails its own tasks with a recorded
//     error and leaves every other grid cell intact.
#include "runner/campaign.hpp"

#include <gtest/gtest.h>

#include <set>

#include "runner/cli.hpp"
#include "runner/report.hpp"
#include "sim/rng.hpp"

namespace mcan::runner {
namespace {

/// Short recordings keep the grid cheap: 300 ms is enough for ~5 bus-off
/// cycles per attacker.
CampaignConfig small_campaign(unsigned jobs) {
  CampaignConfig cfg;
  for (const int n : {2, 4, 5}) {
    auto spec = analysis::table2_experiment(n);
    spec.duration = sim::Millis{300.0};
    cfg.specs.push_back(std::move(spec));
  }
  cfg.seeds = {3, 9};
  cfg.jobs = jobs;
  return cfg;
}

TEST(CampaignRunner, ResultIsBitIdenticalAcrossWorkerCounts) {
  const auto serial = run_campaign(small_campaign(1));
  const auto parallel = run_campaign(small_campaign(8));

  EXPECT_EQ(serial.jobs_used, 1u);
  EXPECT_EQ(parallel.jobs_used, 8u);
  EXPECT_EQ(serial.failed_tasks(), 0u);

  // The deterministic JSON section must match byte for byte — this covers
  // every aggregate double down to the last ulp.
  EXPECT_EQ(to_json(serial), to_json(parallel));

  // Spot-check a few raw aggregates as well, so a report-writer bug can't
  // mask an aggregation difference.
  ASSERT_EQ(serial.specs.size(), parallel.specs.size());
  for (std::size_t i = 0; i < serial.specs.size(); ++i) {
    const auto& a = serial.specs[i];
    const auto& b = parallel.specs[i];
    EXPECT_EQ(a.busoff_ms.count, b.busoff_ms.count);
    EXPECT_DOUBLE_EQ(a.busoff_ms.mean, b.busoff_ms.mean);
    EXPECT_DOUBLE_EQ(a.busoff_ms.stddev, b.busoff_ms.stddev);
    EXPECT_DOUBLE_EQ(a.busoff_ms_pct.p99, b.busoff_ms_pct.p99);
    EXPECT_EQ(a.counterattacks, b.counterattacks);
  }
}

TEST(CampaignRunner, SeedsProduceDistinctDerivedStreams) {
  auto cfg = small_campaign(2);
  const auto rep = run_campaign(cfg);
  std::set<std::uint64_t> derived;
  for (const auto& task : rep.tasks) {
    EXPECT_TRUE(task.ok) << task.error;
    EXPECT_GE(task.seed, cfg.seeds.begin);
    EXPECT_LT(task.seed, cfg.seeds.end);
    derived.insert(task.derived_seed);
  }
  // Every (spec, seed) cell gets its own RNG stream.
  EXPECT_EQ(derived.size(), rep.tasks.size());
}

TEST(CampaignRunner, InvalidSpecIsIsolatedFromHealthyTasks) {
  auto cfg = small_campaign(4);
  analysis::ExperimentSpec broken;
  broken.label = "broken";
  broken.attackers.push_back(attack::AttackerConfig{});  // empty ID list
  cfg.specs.insert(cfg.specs.begin() + 1, broken);

  const auto rep = run_campaign(cfg);
  const std::size_t seeds = cfg.seeds.size();
  EXPECT_EQ(rep.failed_tasks(), seeds);

  ASSERT_EQ(rep.specs.size(), 4u);
  EXPECT_EQ(rep.specs[1].failed, seeds);
  EXPECT_EQ(rep.specs[1].busoff_ms.count, 0u);
  for (const std::size_t healthy : {0u, 2u, 3u}) {
    EXPECT_EQ(rep.specs[healthy].failed, 0u) << healthy;
    EXPECT_GT(rep.specs[healthy].busoff_ms.count, 0u) << healthy;
  }
  for (const auto& task : rep.tasks) {
    if (task.spec_index == 1) {
      EXPECT_FALSE(task.ok);
      EXPECT_NE(task.error.find("empty ID list"), std::string::npos)
          << task.error;
    } else {
      EXPECT_TRUE(task.ok) << task.error;
    }
  }

  // The report still renders, with the failure visible.
  const auto json = to_json(rep);
  EXPECT_NE(json.find("\"failed\":" + std::to_string(seeds)),
            std::string::npos);
  EXPECT_NE(json.find("empty ID list"), std::string::npos);
}

TEST(CampaignRunner, UnusableConfigThrows) {
  CampaignConfig empty;
  EXPECT_THROW((void)run_campaign(empty), std::invalid_argument);

  auto cfg = small_campaign(1);
  cfg.seeds = {5, 5};
  EXPECT_THROW((void)run_campaign(cfg), std::invalid_argument);
}

TEST(CampaignRunner, ProgressReachesTotalExactlyOnce) {
  auto cfg = small_campaign(4);
  std::size_t calls = 0;
  std::size_t last_done = 0;
  std::size_t completions = 0;
  cfg.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    EXPECT_EQ(total, cfg.specs.size() * cfg.seeds.size());
    EXPECT_EQ(done, last_done + 1);  // serialized, monotone
    last_done = done;
    if (done == total) ++completions;
  };
  (void)run_campaign(cfg);
  EXPECT_EQ(calls, cfg.specs.size() * cfg.seeds.size());
  EXPECT_EQ(completions, 1u);
}

TEST(DeriveSeed, IsPureAndSpreadsStreams) {
  EXPECT_EQ(sim::derive_seed(42, 7), sim::derive_seed(42, 7));
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {0ull, 1ull, 42ull}) {
    for (std::uint64_t stream = 0; stream < 100; ++stream) {
      seen.insert(sim::derive_seed(root, stream));
    }
  }
  EXPECT_EQ(seen.size(), 300u);  // no collisions across roots or streams
}

TEST(RunnerCli, ParsesAndStripsFlags) {
  const char* raw[] = {"prog",          "campaign", "--jobs",  "4",
                       "--seeds=2..10", "5",        "--report", "out.json",
                       "--progress",    nullptr};
  char* argv[10];
  for (int i = 0; i < 9; ++i) argv[i] = const_cast<char*>(raw[i]);
  argv[9] = nullptr;
  int argc = 9;

  const auto opts = parse_cli(argc, argv);
  EXPECT_EQ(opts.jobs, 4u);
  EXPECT_EQ(opts.seeds.begin, 2u);
  EXPECT_EQ(opts.seeds.end, 10u);
  EXPECT_EQ(opts.report_path, "out.json");
  EXPECT_TRUE(opts.progress);

  // Only the positional arguments survive, in order.
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "campaign");
  EXPECT_STREQ(argv[2], "5");
  EXPECT_EQ(argv[3], nullptr);

  // A --jobs value past unsigned must be rejected, not wrapped: 2^32 + 1
  // would run one worker and 2^32 every core.
  for (const char* jobs : {"4294967297", "4294967296"}) {
    const char* big[] = {"prog", "--jobs", jobs, nullptr};
    char* big_argv[4];
    for (int i = 0; i < 4; ++i) big_argv[i] = const_cast<char*>(big[i]);
    int big_argc = 3;
    EXPECT_THROW((void)parse_cli(big_argc, big_argv), std::invalid_argument)
        << jobs;
  }
}

TEST(RunnerCli, SeedRangeForms) {
  const auto full = parse_seed_range("3..11");
  EXPECT_EQ(full.begin, 3u);
  EXPECT_EQ(full.end, 11u);
  const auto count = parse_seed_range("32");
  EXPECT_EQ(count.begin, 0u);
  EXPECT_EQ(count.end, 32u);
  EXPECT_THROW((void)parse_seed_range("5..5"), std::invalid_argument);
  EXPECT_THROW((void)parse_seed_range("a..b"), std::invalid_argument);
  EXPECT_THROW((void)parse_seed_range(""), std::invalid_argument);
}

}  // namespace
}  // namespace mcan::runner
