#include "runner/cell_store.hpp"

#include <array>
#include <cstdio>
#include <cstring>

namespace mcan::runner {

void Fingerprint::mix_bytes(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 0x00000100000001B3ull;  // FNV prime
  }
}

void Fingerprint::mix_u64(std::uint64_t v) noexcept {
  std::array<unsigned char, 8> b{};
  for (std::size_t i = 0; i < 8; ++i) {
    b[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  mix_bytes(b.data(), b.size());
}

void Fingerprint::mix_i64(std::int64_t v) noexcept {
  mix_u64(static_cast<std::uint64_t>(v));
}

void Fingerprint::mix_double(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix_u64(bits);
}

void Fingerprint::mix_str(std::string_view s) noexcept {
  mix_u64(s.size());
  mix_bytes(s.data(), s.size());
}

std::uint64_t spec_fingerprint(const analysis::ExperimentSpec& spec) {
  Fingerprint fp;
  fp.mix_str("michican.spec");
  fp.mix_i64(spec.number);
  fp.mix_str(spec.label);

  fp.mix_u64(spec.attackers.size());
  for (const auto& a : spec.attackers) {
    fp.mix_u64(a.ids.size());
    for (const auto id : a.ids) fp.mix_u64(id);
    fp.mix_u64(a.extended ? 1 : 0);
    fp.mix_u64(a.dlc);
    fp.mix_double(a.period_bits);
    fp.mix_u64(a.random_payload ? 1 : 0);
    fp.mix_u64(a.persistent ? 1 : 0);
    fp.mix_u64(a.clear_queue_on_bus_off ? 1 : 0);
    fp.mix_u64(a.seed);
    // Profile knobs mixed only for non-scripted attackers: a default
    // (Scripted) config is the historical attacker, so its fingerprints —
    // and every cache entry keyed on them — stay valid.
    if (a.profile != attack::AttackProfile::Scripted) {
      fp.mix_str("profile");
      fp.mix_u64(static_cast<std::uint64_t>(a.profile));
      fp.mix_double(a.rate_fps);
      fp.mix_u64(a.fuzz_id_min);
      fp.mix_u64(a.fuzz_id_max);
      fp.mix_u64(a.fuzz_dlc_min);
      fp.mix_u64(a.fuzz_dlc_max);
      fp.mix_str(a.replay_trace);
      fp.mix_u64(static_cast<std::uint64_t>(a.replay_format));
      fp.mix_double(a.replay_time_scale);
    }
  }

  fp.mix_u64(spec.restbus ? 1 : 0);
  fp.mix_u64(spec.defender_id);
  fp.mix_double(spec.defender_period.value());
  fp.mix_u64(spec.speed.bits_per_second);
  fp.mix_double(spec.duration.value());
  fp.mix_double(spec.restbus_target_load);
  fp.mix_u64(static_cast<std::uint64_t>(spec.scenario));
  fp.mix_u64(spec.defense_enabled ? 1 : 0);
  // spec.seed deliberately excluded: the derived task seed is the second
  // cache-key component (see cell_store.hpp).

  const auto& f = spec.fault;
  fp.mix_double(f.bit_error_rate);
  fp.mix_u64(f.flips.size());
  for (const auto& flip : f.flips) {
    fp.mix_u64(flip.frame);
    fp.mix_u64(static_cast<std::uint64_t>(flip.field));
    fp.mix_i64(flip.bit);
  }
  fp.mix_u64(f.stuck.size());
  for (const auto& w : f.stuck) {
    fp.mix_u64(w.start);
    fp.mix_u64(w.len);
    fp.mix_u64(static_cast<std::uint64_t>(w.level));
  }
  fp.mix_u64(f.skews.size());
  for (const auto& s : f.skews) {
    fp.mix_str(s.node);
    fp.mix_double(s.drift_per_bit);
    fp.mix_double(s.sjw);
  }
  fp.mix_u64(f.seed);

  fp.mix_u64(spec.error_attackers.size());
  for (const auto& e : spec.error_attackers) {
    fp.mix_u64(e.victim_id);
    fp.mix_i64(e.stomp_pos);
    fp.mix_i64(e.stomp_bits);
    fp.mix_u64(e.max_stomps);
    fp.mix_u64(e.start);
  }

  // Topology mixed only for genuinely multi-bus specs: the default
  // single-bus wiring is the historical experiment, so its fingerprints —
  // and every cache entry keyed on them — stay valid.
  const auto& topo = spec.topology;
  if (topo.buses > 1) {
    fp.mix_str("topology");
    fp.mix_u64(topo.buses);
    fp.mix_u64(topo.gateway_latency.value());
    fp.mix_u64(topo.attacker_bus);
    fp.mix_u64(topo.defender_bus);
    fp.mix_u64(topo.restbus_bus);
    fp.mix_u64(topo.routes.size());
    for (const auto& r : topo.routes) {
      fp.mix_u64(r.id);
      fp.mix_u64(r.extended ? 1 : 0);
    }
  }
  // Rest-bus trace replay mixed only when configured, same compatibility
  // rationale as topology above.
  if (!spec.trace_replay.text.empty()) {
    fp.mix_str("trace-replay");
    fp.mix_str(spec.trace_replay.text);
    fp.mix_u64(static_cast<std::uint64_t>(spec.trace_replay.format));
    fp.mix_double(spec.trace_replay.time_scale);
  }
  // fast_path / capture_timeline excluded by design: the
  // equivalence gates guarantee they cannot change the result.
  return fp.digest();
}

std::string CellKey::id() const {
  std::array<char, 40> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx-%016llx-",
                static_cast<unsigned long long>(spec_hash),
                static_cast<unsigned long long>(seed));
  return std::string{buf.data()} + engine;
}

std::optional<std::string> MemoryStore::fetch(const CellKey& key) {
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = cells_.find(key.id());
  if (it == cells_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void MemoryStore::store(const CellKey& key, std::string_view bytes) {
  std::lock_guard<std::mutex> lock{mu_};
  auto& slot = cells_[key.id()];
  stats_.bytes += bytes.size();
  stats_.bytes -= slot.size();
  slot.assign(bytes);
  ++stats_.stores;
  stats_.entries = cells_.size();
}

CellStore::Stats MemoryStore::stats() const {
  std::lock_guard<std::mutex> lock{mu_};
  return stats_;
}

}  // namespace mcan::runner
