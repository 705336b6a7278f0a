// Tests for the fuzz campaign runner: determinism across worker counts,
// round-robin stream assignment, report invariants and config validation.
#include "runner/fuzz.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mcan::runner {
namespace {

FuzzConfig small_config() {
  FuzzConfig cfg;
  cfg.cases = 48;
  cfg.seeds = {0, 4};
  cfg.jobs = 1;
  return cfg;
}

TEST(Fuzz, ReportIsByteIdenticalAcrossJobCounts) {
  auto cfg = small_config();
  const auto r1 = run_fuzz(cfg);
  cfg.jobs = 8;
  const auto r8 = run_fuzz(cfg);
  // Default JsonOptions exclude the runtime section, so the deterministic
  // report must match byte for byte regardless of parallelism.
  EXPECT_EQ(to_json(r1), to_json(r8));
  EXPECT_EQ(format_summary(r1), format_summary(r8));
}

TEST(Fuzz, DefaultPopulationHasNoDivergences) {
  auto cfg = small_config();
  cfg.cases = 120;
  cfg.jobs = 0;  // hardware concurrency
  const auto report = run_fuzz(cfg);
  for (const auto& d : report.divergences) {
    ADD_FAILURE() << "case " << d.index << " seed " << d.derived_seed << ": "
                  << report.cells[d.index].divergence;
  }
  EXPECT_GT(report.oracle_checked, 0u);
  EXPECT_GT(report.wire_bits_compared, 0u);
  EXPECT_GT(report.stuff_bits_checked, 0u);
}

TEST(Fuzz, CasesAreAssignedRoundRobinOverSeedStreams) {
  auto cfg = small_config();
  cfg.cases = 10;
  cfg.seeds = {3, 6};
  const auto report = run_fuzz(cfg);
  ASSERT_EQ(report.cells.size(), 10u);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].index, i);
    EXPECT_EQ(report.cells[i].stream, 3 + i % 3);
    EXPECT_NE(report.cells[i].derived_seed, 0u);
  }
  // Same (base_seed, stream, offset) -> same derived seed; different offset
  // -> different case.  Cells 0 and 3 share stream 3 but not the seed.
  EXPECT_EQ(report.cells[0].stream, report.cells[3].stream);
  EXPECT_NE(report.cells[0].derived_seed, report.cells[3].derived_seed);
}

TEST(Fuzz, KindCountsSumToCases) {
  const auto report = run_fuzz(small_config());
  EXPECT_EQ(report.kind_counts[0] + report.kind_counts[1] +
                report.kind_counts[2] + report.kind_counts[3],
            report.cases);
  EXPECT_EQ(report.cells.size(), report.cases);
}

TEST(Fuzz, BatchedPopulationIsGeneratedAndOracleChecked) {
  auto cfg = small_config();
  cfg.cases = 120;
  cfg.jobs = 0;
  const auto report = run_fuzz(cfg);
  // ~15% of cases target the word-level batch engine; they run the full
  // Clean-tier oracle and the batched/naive engine identity comparison.
  EXPECT_GT(report.kind_counts[3], 0u);
  const auto json = to_json(report);
  EXPECT_NE(json.find("\"batched\":"), std::string::npos);
  for (const auto& d : report.divergences) {
    ADD_FAILURE() << "case " << d.index << " seed " << d.derived_seed << ": "
                  << report.cells[d.index].divergence;
  }
}

TEST(Fuzz, ProgressCallbackIsSerializedAndComplete) {
  auto cfg = small_config();
  cfg.cases = 16;
  cfg.jobs = 4;
  std::vector<std::size_t> done;
  cfg.progress = [&](std::size_t d, std::size_t total) {
    EXPECT_EQ(total, 16u);
    done.push_back(d);
  };
  (void)run_fuzz(cfg);
  ASSERT_EQ(done.size(), 16u);
  for (std::size_t i = 0; i < done.size(); ++i) EXPECT_EQ(done[i], i + 1);
}

TEST(Fuzz, InvalidConfigThrows) {
  auto cfg = small_config();
  cfg.cases = 0;
  EXPECT_THROW((void)run_fuzz(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.seeds = {5, 5};
  EXPECT_THROW((void)run_fuzz(cfg), std::invalid_argument);
}

TEST(Fuzz, JsonReportCarriesSchemaAndCheckTotals) {
  const auto report = run_fuzz(small_config());
  const auto json = to_json(report);
  EXPECT_NE(json.find("\"schema\":\"michican.fuzz.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"checks\":"), std::string::npos);
  EXPECT_EQ(json.find("\"runtime\""), std::string::npos);
  JsonOptions with_runtime;
  with_runtime.include_runtime = true;
  EXPECT_NE(to_json(report, with_runtime).find("\"runtime\""),
            std::string::npos);
}

}  // namespace
}  // namespace mcan::runner
