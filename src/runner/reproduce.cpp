#include "runner/reproduce.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/latency.hpp"
#include "analysis/table.hpp"
#include "analysis/theory.hpp"
#include "attack/attacker.hpp"
#include "baseline/parrot.hpp"
#include "can/bus.hpp"
#include "core/cpu_model.hpp"
#include "core/michican_node.hpp"
#include "mcu/profile.hpp"
#include "obs/jsonfmt.hpp"
#include "restbus/schedulability.hpp"
#include "restbus/vehicles.hpp"
#include "runner/schemas.hpp"

namespace mcan::runner {
namespace {

namespace th = analysis::theory;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Spec indices of the one campaign.  Exps. 1..6 come first (index n - 1),
// so their cells derive the same seeds as `campaign`'s default grid.
constexpr std::size_t kMultiAttacker = 6;  // A = 3, 4, 5 at 6, 7, 8
constexpr std::size_t kUndefended = 9;     // Exp. 3 with the defense off

struct Band {
  double lo;
  double hi;
};

Band pct(double paper, double frac) {
  return {paper * (1.0 - frac), paper * (1.0 + frac)};
}
Band plus_minus(double paper, double tol) { return {paper - tol, paper + tol}; }
Band exact(double v) { return {v, v}; }
Band at_least(double v) { return {v, kInf}; }
Band at_most(double v) { return {-kInf, v}; }

struct DefenseOutcome {
  double busoff_bits{};             // first malicious SOF -> attacker bus-off
  double busy_during_defense{};     // bus load over that window
  std::uint64_t spoofs_accepted{};  // complete malicious frames on the bus
};

// A persistent 0x173 spoofing flood against the defender `make` builds, run
// for `bits` bit times.  An attacker that never goes bus-off lasts forever,
// over a window with no load (NaN, which no band holds).
template <class MakeDefender>
DefenseOutcome spoof_flood(sim::BitTime bits, MakeDefender make) {
  can::WiredAndBus bus{sim::BusSpeed{50'000}};
  const auto def = make();
  def->attach_to(bus);
  can::BitController quiet{"quiet"};  // a benign ECU providing ACKs
  quiet.attach_to(bus);
  auto acfg = attack::Attacker::spoof(0x173);
  acfg.persistent = false;
  attack::Attacker atk{"attacker", acfg};
  atk.attach_to(bus);
  bus.run(bits);

  DefenseOutcome out{kInf, std::numeric_limits<double>::quiet_NaN(),
                     atk.node().stats().frames_sent};
  const auto* start = bus.log().first(sim::EventKind::FrameTxStart, 0,
                                      "attacker");
  const auto* off = bus.log().first(sim::EventKind::BusOff, 0, "attacker");
  if (start != nullptr && off != nullptr) {
    out.busoff_bits = static_cast<double>(off->at - start->at);
    out.busy_during_defense = bus.trace().busy_fraction(start->at, off->at);
  }
  return out;
}

// Every claim, in the paper's order: the campaign grid run_reproduce() lays
// out, then the Sec. V-B study, the analytic models and the two
// spoofing-flood runs, each computed in its section.
std::vector<Claim> evaluate(const CampaignReport& rep) {
  std::vector<Claim> out;
  std::string section;
  const auto add = [&out, &section](std::string id, std::string quantity,
                                    std::string unit, double paper, Band band,
                                    double measured, std::string note = {}) {
    out.push_back(Claim{std::move(id), section, std::move(quantity),
                        std::move(unit), paper, band.lo, band.hi, measured,
                        std::move(note)});
  };
  const auto table2 = [&rep](int n) -> const SpecAggregate& {
    return rep.specs[static_cast<std::size_t>(n - 1)];
  };

  section = "Table II";
  const std::string restbus_note =
      "the rest-bus replay is scaled to a 12 % analytic load; the paper's "
      "replay load is unknown, and the mean grows with it (Table III row 1)";
  const auto mu = [&table2](int n) { return table2(n).busoff_ms.mean; };
  const auto& exp5 = table2(5).attackers;
  add("table2.exp1_mu_ms", "Exp. 1 mean bus-off, 0x173 spoof, rest bus", "ms",
      24.6, pct(24.6, 0.15), mu(1), restbus_note);
  add("table2.exp2_mu_ms", "Exp. 2 mean bus-off, 0x173 spoof, isolated", "ms",
      24.2, pct(24.2, 0.05), mu(2));
  add("table2.exp3_mu_ms", "Exp. 3 mean bus-off, 0x064 DoS, rest bus", "ms",
      25.1, pct(25.1, 0.15), mu(3), restbus_note);
  add("table2.exp4_mu_ms", "Exp. 4 mean bus-off, 0x064 DoS, isolated", "ms",
      24.9, pct(24.9, 0.05), mu(4));
  add("table2.exp5_0x066_mu_ms", "Exp. 5 mean bus-off of 0x066 (of two)",
      "ms", 39.0, pct(39.0, 0.05), exp5[0].busoff_ms.mean);
  add("table2.exp5_0x067_mu_ms", "Exp. 5 mean bus-off of 0x067 (of two)",
      "ms", 35.4, pct(35.4, 0.05), exp5[1].busoff_ms.mean);
  add("table2.exp6_mu_ms", "Exp. 6 mean bus-off, 0x050/0x051 toggling", "ms",
      24.9, pct(24.9, 0.05), mu(6));

  section = "Table I";
  int max_tec = 0;
  std::uint64_t frames = 0;
  std::size_t bus_off_runs = 0;
  for (int n = 1; n <= 6; ++n) {
    max_tec = std::max(max_tec, table2(n).max_defender_tec);
    frames += table2(n).defender_frames_sent;
    bus_off_runs += table2(n).defender_bus_off_runs;
  }
  add("table1.defender_max_tec", "defender's max TEC, every Table II cell",
      "count", 0, exact(0), max_tec);
  add("table1.defender_frames", "frames the defender added, every cell",
      "frames", 0, exact(0), static_cast<double>(frames));
  add("table1.defender_bus_off_runs", "cells that bused the defender off",
      "cells", 0, exact(0), static_cast<double>(bus_off_runs));
  add("table1.exp4_detection_bit", "Exp. 4 mean detection bit, inside the ID",
      "bit", 11, {1, 11}, table2(4).mean_detection_bit.mean);

  section = "Table III";
  add("table3.worst_case_bits", "isolated bus-off sequence, 16 * (35 + 43)",
      "bits", 1248, exact(1248), th::isolated_total_bits());
  add("table3.best_case_bits", "best-case sequence, 16 * (30 + 38)", "bits",
      1088, exact(1088),
      th::kRetransmissionsPerPhase *
          (th::kBestErrorActiveBits + th::kBestErrorPassiveBits));

  section = "Sec. V-B";
  const auto study = analysis::run_latency_study({});
  add("v_b.mean_detection_bit", "mean detection bit, 160,000 random FSMs",
      "bit", 9, plus_minus(9, 0.5), study.mean_detection_bit);
  add("v_b.detection_rate", "detection rate, 1,000 FSMs x 2,048 IDs", "ratio",
      1, exact(1), study.detection_rate);
  add("v_b.false_positive_rate", "false-positive rate, same check", "ratio",
      0, exact(0), study.false_positive_rate);

  section = "Sec. V-C";
  const auto total = [&rep](std::size_t attackers) {
    return rep.specs[kMultiAttacker + attackers - 3]
        .first_cycle_total_bits.mean;
  };
  // The 10 ms deadline class at 500 kbit/s, scaled to the 50 kbit/s bus.
  const double budget = th::deadline_budget_bits(100.0, 50e3);
  add("v_c.a3_total_bits", "3 attackers, total bus-off (first joint cycle)",
      "bits", 3515, pct(3515, 0.05), total(3));
  add("v_c.a4_total_bits", "4 attackers, total bus-off (first joint cycle)",
      "bits", 4660, pct(4660, 0.05), total(4));
  add("v_c.a5_total_bits", "5 attackers exceed the deadline budget", "bits",
      budget, at_least(budget), total(5));

  section = "Sec. V-D";
  const core::IvnConfig ivn{
      restbus::vehicle_matrix(restbus::Vehicle::D, 1).ecu_ids()};
  const auto load = [&ivn](core::Scenario scenario, const mcu::McuProfile& mcu,
                           double bits_per_s) {
    return core::estimate_cpu(ivn, ivn.highest(), scenario, mcu, bits_per_s)
        .load.active_load;
  };
  using core::Scenario;
  const auto due = mcu::arduino_due();
  add("v_d.due_125k_full", "Arduino Due CPU load, 125 kbit/s, full FSM",
      "load", 0.40, plus_minus(0.40, 0.03), load(Scenario::Full, due, 125e3));
  add("v_d.due_125k_light", "Arduino Due CPU load, 125 kbit/s, light FSM",
      "load", 0.30, plus_minus(0.30, 0.03), load(Scenario::Light, due, 125e3));
  add("v_d.due_250k_full", "Arduino Due CPU load, 250 kbit/s (implied)",
      "load", 0.80, plus_minus(0.80, 0.05), load(Scenario::Full, due, 250e3));
  add("v_d.due_500k_full", "Arduino Due at 500 kbit/s is unreliable", "load",
      1.0, at_least(1.0), load(Scenario::Full, due, 500e3));
  add("v_d.s32k144_500k_full", "NXP S32K144 CPU load, 500 kbit/s, full FSM",
      "load", 0.44, plus_minus(0.44, 0.03),
      load(Scenario::Full, mcu::nxp_s32k144(), 500e3));

  section = "Sec. V-E";
  const double clean_frame_ms =
      sim::BusSpeed{50'000}.bits_to_ms(th::kAvgFrameBits);  // 2.5 ms
  const auto& undefended = rep.specs[kUndefended];
  std::size_t schedulable = 0;
  for (const auto& m : restbus::all_vehicle_matrices()) {
    const auto rta = restbus::response_time_analysis(
        m, {.bits_per_second = 500e3,
            .attack_blocking_bits = th::isolated_total_bits()});
    if (rta.all_schedulable) ++schedulable;
  }
  add("v_e.spike_factor", "Exp. 3 counterattacked message / clean frame", "x",
      10, {8, 12}, table2(3).busoff_ms.mean / clean_frame_ms);
  add("v_e.busy_defended", "Exp. 3 bus load with MichiCAN, under 80 %",
      "load", 0.8, {0, 0.8}, table2(3).busy_fraction.mean);
  add("v_e.busy_undefended", "Exp. 3 bus load with no defense, saturated",
      "load", 0.8, {0.8, 1}, undefended.busy_fraction.mean);
  add("v_e.undefended_bus_offs", "Exp. 3 attacker bus-offs with no defense",
      "cycles", 0, exact(0), static_cast<double>(undefended.busoff_ms.count));
  add("v_e.schedulable_buses", "buses schedulable, 500 kbit/s + 1,248 bits",
      "buses", 8, exact(8), static_cast<double>(schedulable));

  section = "Fig. 6";
  // Exp. 5's higher-priority attacker, 0x066, pooled over every seed.
  std::uint64_t attempts = 0;
  std::uint64_t cycles = 0;
  for (const auto& task : rep.tasks) {
    if (task.spec_index != 4) continue;
    attempts += task.result.attackers[0].retransmissions;
    cycles += task.result.attackers[0].busoff_count;
  }
  add("fig6.hp_attempts_per_cycle", "0x066 attempts per bus-off cycle (Exp. 5)",
      "attempts", 32, plus_minus(32, 0.5),
      static_cast<double>(attempts) / static_cast<double>(cycles));
  add("fig6.two_attacker_growth", "0x066 bus-off over Exp. 4's, minus 1",
      "ratio", 0.5, {0.4, 0.7},
      exp5[0].busoff_ms.mean / table2(4).busoff_ms.mean - 1.0);

  section = "Secs. V-C/V-E";
  const auto mc = spoof_flood(6000, [&ivn] {
    core::MichiCanNodeConfig node;
    node.own_id = 0x173;
    return std::make_unique<core::MichiCanNode>("defender", ivn, node);
  });
  const auto pr = spoof_flood(12'000, [] {
    baseline::ParrotConfig node;
    node.own_id = 0x173;
    return std::make_unique<baseline::ParrotNode>("parrot", node);
  });
  add("parrot.busoff_time_ratio", "MichiCAN / Parrot time to bus-off",
      "ratio", 1, at_most(1), mc.busoff_bits / pr.busoff_bits);
  add("parrot.parrot_load", "bus load during Parrot's flood defense", "load",
      0.977, {0.8, 1}, pr.busy_during_defense,
      "the attacker's error frames and suspend windows leave idle gaps in "
      "the measured window; the paper's 97.7 % is the analytic 125/128 of a "
      "back-to-back flood");
  add("parrot.load_ratio", "Parrot / MichiCAN defense-window load", "x", 2,
      at_least(1.3), pr.busy_during_defense / mc.busy_during_defense,
      "Parrot's measured load sits below the analytic 97.7 % "
      "(parrot.parrot_load), and MichiCAN's own defense window is busy with "
      "error flags and retransmissions");
  add("parrot.michican_spoofs_accepted", "spoofed frames accepted, MichiCAN",
      "frames", 0, exact(0), static_cast<double>(mc.spoofs_accepted));
  add("parrot.parrot_spoofs_accepted", "spoofed frames accepted, Parrot",
      "frames", 1, at_least(1), static_cast<double>(pr.spoofs_accepted));
  return out;
}

std::string json_number(double v) {
  return std::isfinite(v) ? obs::fmt_double(v) : std::string{"null"};
}

std::string fmt_value(double v) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.4g", v);
  return buf.data();
}

std::string fmt_band(const Claim& c) {
  using S = std::string;
  if (c.lo == c.hi) return S{"= "} + fmt_value(c.lo);
  if (std::isinf(c.lo)) return S{"<= "} + fmt_value(c.hi);
  if (std::isinf(c.hi)) return S{">= "} + fmt_value(c.lo);
  return S{"["} + fmt_value(c.lo) + ", " + fmt_value(c.hi) + "]";
}

}  // namespace

bool Claim::in_band() const noexcept {
  return lo <= measured && measured <= hi;
}

std::string_view Claim::verdict() const noexcept {
  if (!in_band()) return "failed";
  return note.empty() ? "reproduced" : "deviation";
}

std::size_t ClaimsReport::failed() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(claims.begin(), claims.end(),
                    [](const Claim& c) { return !c.in_band(); }));
}

ClaimsReport run_reproduce(const ReproduceConfig& cfg) {
  CampaignConfig campaign;
  for (int n = 1; n <= 6; ++n) {
    campaign.specs.push_back(analysis::table2_experiment(n));
  }
  for (int a = 3; a <= 5; ++a) {
    campaign.specs.push_back(analysis::multi_attacker_spec(a));
  }
  auto undefended = analysis::table2_experiment(3);
  undefended.label += ", defense off";
  undefended.defense_enabled = false;
  campaign.specs.push_back(std::move(undefended));
  campaign.seeds = cfg.seeds;
  campaign.jobs = cfg.jobs;
  campaign.progress = cfg.progress;
  const auto rep = run_campaign(campaign);
  for (const auto& task : rep.tasks) {
    if (!task.ok) {
      std::ostringstream msg;
      msg << "reproduce: cell '" << campaign.specs[task.spec_index].label
          << "' seed " << task.seed << " failed: " << task.error;
      throw std::runtime_error(msg.str());
    }
  }
  return ClaimsReport{rep.base_seed, cfg.seeds, evaluate(rep)};
}

std::string to_json(const ClaimsReport& report) {
  using obs::json_escape;
  std::ostringstream os;
  os << "{\"schema\":\"" << kClaimsSchema
     << "\",\"base_seed\":" << report.base_seed
     << ",\"seeds\":{\"begin\":" << report.seeds.begin
     << ",\"end\":" << report.seeds.end << "},\"failed\":" << report.failed()
     << ",\"claims\":[";
  for (std::size_t i = 0; i < report.claims.size(); ++i) {
    const auto& c = report.claims[i];
    if (i != 0) os << ",";
    os << "{\"id\":\"" << json_escape(c.id) << "\",\"section\":\""
       << json_escape(c.section) << "\",\"quantity\":\""
       << json_escape(c.quantity) << "\",\"unit\":\"" << json_escape(c.unit)
       << "\",\"paper\":" << json_number(c.paper)
       << ",\"lo\":" << json_number(c.lo) << ",\"hi\":" << json_number(c.hi)
       << ",\"measured\":" << json_number(c.measured) << ",\"verdict\":\""
       << c.verdict() << "\"";
    if (!c.note.empty()) os << ",\"note\":\"" << json_escape(c.note) << "\"";
    os << "}";
  }
  os << "]}\n";
  return os.str();
}

std::string format_table(const ClaimsReport& report) {
  analysis::AsciiTable t{{"Claim", "Quantity", "Unit", "Paper", "Band",
                          "Measured", "Verdict"}};
  std::size_t deviations = 0;
  std::ostringstream notes;
  for (const auto& c : report.claims) {
    std::string verdict{c.verdict()};
    if (verdict == "failed") verdict = "FAILED";
    if (verdict == "deviation") {
      verdict += " *";
      ++deviations;
      notes << "* " << c.id << ": " << c.note << "\n";
    }
    t.add_row({c.id, c.quantity, c.unit, fmt_value(c.paper), fmt_band(c),
               fmt_value(c.measured), verdict});
  }
  std::ostringstream os;
  os << "Paper claims, campaign seeds " << report.seeds.begin << ".."
     << report.seeds.end << ":\n";
  t.print(os);
  os << notes.str();
  const std::size_t failed = report.failed();
  os << report.claims.size() << " claims: "
     << report.claims.size() - failed - deviations << " reproduced, "
     << deviations << " deviation, " << failed << " failed\n";
  return os.str();
}

}  // namespace mcan::runner
