// Cell result serialization for the content-addressed cache.
//
// encode_cell() captures exactly the deterministic subset of an
// analysis::ExperimentResult — every field the campaign aggregation and the
// michican.campaign.v1 report read: attacker outcomes (including the raw
// per-cycle samples the pooled percentiles are computed from), defender
// health, detection/fault forensics and the full metrics registry.  Runtime
// facts (profile wall clocks, bits_skipped/bits_batched, timeline exports)
// are deliberately absent: they are not part of the deterministic report
// section, and caching them would make a warm run claim a cold run's wall
// clocks.  So is the rendered Fig. 6 trace: no aggregation or report reads
// it, only tests that call run_experiment directly.
//
// The format is little-endian binary with doubles stored as raw bit
// patterns, so a decode → re-encode round trip is byte-identical and the
// floating-point aggregation over fetched cells reproduces a cold run's
// report bit for bit.  decode_cell() is defensive: any truncation, bad
// magic or inconsistent length returns false (never throws, never reads
// out of bounds) — the caller treats the entry as corrupt and recomputes.
#pragma once

#include <string>
#include <string_view>

#include "analysis/experiments.hpp"

namespace mcan::runner {

/// Serialize the deterministic subset of `res`.
[[nodiscard]] std::string encode_cell(const analysis::ExperimentResult& res);

/// Parse bytes produced by encode_cell() into `out` (fully overwriting the
/// deterministic fields; runtime fields are zeroed).  Returns false on any
/// malformed input, leaving `out` unspecified.
[[nodiscard]] bool decode_cell(std::string_view bytes,
                               analysis::ExperimentResult& out);

}  // namespace mcan::runner
