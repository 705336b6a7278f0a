// Named experiment scenarios: one registry mapping stable, kebab-case names
// (plus short aliases) to ExperimentSpec factories.
//
// Before this registry every driver grew its own ad-hoc spec builder —
// michican_cli's trace_scenario()/fault_scenario() string switches, the
// bench drivers' hand-rolled spec lists — and the names drifted ("spoof"
// meant Exp. 2 in one place and a fault-sweep cell in another).  The
// registry is the single source of truth: the CLI's `list-scenarios`
// subcommand enumerates it, `trace`/`campaign`/`fault-sweep` resolve
// operands through it, and perfbench draws its workloads from it, so a
// scenario name in a BENCH_*.json report, a campaign invocation and a test
// all mean the same spec.
//
// Factories return a *fresh* spec per call (specs are mutable value types:
// callers override seed/duration/fast_path freely without aliasing).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiments.hpp"

namespace mcan::analysis {

struct Scenario {
  /// Canonical kebab-case name ("exp2", "controllers-only", ...).
  std::string name;
  /// Extra accepted lookup keys ("2", "spoof", ...), shown by list-scenarios.
  std::vector<std::string> aliases;
  /// One help line for `michican_cli list-scenarios`.
  std::string description;
  /// Builds a fresh spec; never returns a shared object.
  std::function<ExperimentSpec()> make;
};

class ScenarioRegistry {
 public:
  /// The built-in registry: the paper's six Table II experiments (with
  /// numeric and spoof/dos aliases), the error-frame stomper, the Fig. 6
  /// waveform recording, the Sec. V-C multi-attacker cells, the
  /// engine-throughput workloads and the canonical fault-sweep cells.
  [[nodiscard]] static const ScenarioRegistry& built_in();

  ScenarioRegistry() = default;

  /// Register a scenario.  Throws std::invalid_argument when the name or an
  /// alias collides with an already-registered lookup key.
  void add(Scenario scenario);

  /// Lookup by canonical name or alias; nullptr when unknown.
  [[nodiscard]] const Scenario* find(std::string_view name) const noexcept;

  /// Build a fresh spec for `name`.  Throws std::invalid_argument naming
  /// near-miss candidates (see suggest()) and the known scenarios when the
  /// lookup fails.
  [[nodiscard]] ExperimentSpec make(std::string_view name) const;

  /// Near-miss lookup keys for an unknown name: small-edit-distance typos
  /// and unique-prefix abbreviations, ranked by distance.  Empty when
  /// nothing plausible is registered.
  [[nodiscard]] std::vector<std::string> suggest(std::string_view name) const;

  /// Registration-order list (stable: drivers and reports iterate it).
  [[nodiscard]] const std::vector<Scenario>& all() const noexcept {
    return scenarios_;
  }

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace mcan::analysis
