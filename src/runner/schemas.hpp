// Report schema identifiers, in one place.
//
// Every JSON document the project emits names its schema in a top-level
// "schema" field; downstream tooling (CI byte-identity gates, report
// scrapers) dispatches on these strings.  They used to be string literals
// scattered across report.cpp, fault_sweep.cpp, fuzz.cpp and the CLI — a
// typo in any one site silently forked the format.  Emitters and parsers
// alike must reference these constants.
//
// Versioning: bump the suffix (v1 -> v2) when a document's deterministic
// section changes shape.  The runtime block may grow fields freely.
#pragma once

#include <string_view>

namespace mcan::runner {

/// Campaign report (runner::to_json(CampaignReport)).
inline constexpr std::string_view kCampaignSchema = "michican.campaign.v1";
/// Fault-sweep report (runner::to_json(FaultSweepReport)).
inline constexpr std::string_view kFaultSweepSchema = "michican.fault_sweep.v1";
/// Differential-fuzz report (runner::to_json(FuzzReport)).
inline constexpr std::string_view kFuzzSchema = "michican.fuzz.v1";
/// Paper-claims report (runner::to_json(ClaimsReport)).
inline constexpr std::string_view kClaimsSchema = "michican.claims.v1";

}  // namespace mcan::runner
