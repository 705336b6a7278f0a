// Every quantitative claim of the paper's evaluation, regenerated by one run
// and checked against a band declared from the paper, never from the
// measurement: simulated quantities get the paper value +-5 %, closed forms
// and zero-counts are exact, inequalities are half-open at the paper's
// bound, and any wider band carries a note naming the known deviation.
//
// The report is a pure function of the seed range — the campaign's
// determinism guarantee makes it byte-identical for any `jobs` value — so
// it has no runtime block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/campaign.hpp"

namespace mcan::runner {

struct ReproduceConfig {
  SeedRange seeds{0, 32};
  unsigned jobs{1};
  std::function<void(std::size_t, std::size_t)> progress;
};

struct Claim {
  std::string id;  // "table2.exp2_mu_ms"
  std::string section;
  std::string quantity;
  std::string unit;
  double paper{};
  /// Declared band, inclusive at both edges; an infinite side is unbounded.
  double lo{};
  double hi{};
  double measured{};
  /// The known deviation a wider band allows for; empty for none.
  std::string note;

  [[nodiscard]] bool in_band() const noexcept;
  /// "failed" outside the band, else "deviation" with a note, else
  /// "reproduced".
  [[nodiscard]] std::string_view verdict() const noexcept;
};

struct ClaimsReport {
  std::uint64_t base_seed{};
  SeedRange seeds;
  std::vector<Claim> claims;

  [[nodiscard]] std::size_t failed() const noexcept;
};

/// The Sec. IV-C/IV-E design ablations, one campaign (Table II's Exps. 1-6,
/// the Sec. V-C sweep at 3-5 attackers, Exp. 3 with the defense off), the
/// Sec. V-B study, the Table III closed forms and the analytic models.  Throws
/// std::invalid_argument on an empty seed range and std::runtime_error
/// when a campaign cell fails.
[[nodiscard]] ClaimsReport run_reproduce(const ReproduceConfig& cfg);

/// Schema "michican.claims.v1"; an unbounded side or a measurement that
/// could not be taken is null, and "note" appears only when set.
[[nodiscard]] std::string to_json(const ClaimsReport& report);

/// One row per claim, FAILED and deviation rows marked, notes below.
[[nodiscard]] std::string format_table(const ClaimsReport& report);

}  // namespace mcan::runner
