#include "runner/cell_codec.hpp"

#include <cstring>

namespace mcan::runner {
namespace {

constexpr std::string_view kCellMagic = "MCEL1\n";
/// Upper bound on any serialized collection — rejects absurd counts from a
/// corrupted length field before they turn into a giant allocation.
constexpr std::uint64_t kMaxCount = 1u << 20;

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void raw(std::string_view s) { out_.append(s); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }
  void doubles(const std::vector<double>& xs) {
    u64(xs.size());
    for (const double x : xs) f64(x);
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader: every getter reports success via its return
/// value; after any failure all further reads fail too.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool magic(std::string_view expect) {
    if (bytes_.size() - pos_ < expect.size() ||
        bytes_.compare(pos_, expect.size(), expect) != 0) {
      return fail();
    }
    pos_ += expect.size();
    return true;
  }
  bool u8(std::uint8_t& v) {
    if (!need(1)) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (!need(8)) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool boolean(bool& v) {
    std::uint8_t b = 0;
    if (!u8(b) || b > 1) return fail();
    v = b != 0;
    return true;
  }
  /// A view into the bytes being read: valid as long as they are.
  bool str(std::string_view& s) {
    std::uint64_t len = 0;
    if (!u64(len) || len > bytes_.size() - pos_) return fail();
    s = bytes_.substr(pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }
  bool str(std::string& s) {
    std::string_view view;
    if (!str(view)) return false;
    s.assign(view);
    return true;
  }
  bool count(std::uint64_t& n) { return u64(n) && (n <= kMaxCount || fail()); }
  bool doubles(std::vector<double>& xs) {
    std::uint64_t n = 0;
    if (!count(n)) return false;
    xs.resize(static_cast<std::size_t>(n));
    for (auto& x : xs) {
      if (!f64(x)) return false;
    }
    return true;
  }
  [[nodiscard]] bool done() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool need(std::size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) return fail();
    return true;
  }
  bool fail() {
    ok_ = false;
    return false;
  }

  std::string_view bytes_;
  std::size_t pos_{0};
  bool ok_{true};
};

void put_summary(Writer& w, const sim::Summary& s) {
  w.u64(s.count);
  w.f64(s.mean);
  w.f64(s.stddev);
  w.f64(s.min);
  w.f64(s.max);
}

bool get_summary(Reader& r, sim::Summary& s) {
  std::uint64_t count = 0;
  if (!r.u64(count)) return false;
  s.count = static_cast<std::size_t>(count);
  return r.f64(s.mean) && r.f64(s.stddev) && r.f64(s.min) && r.f64(s.max);
}

void put_registry(Writer& w, const obs::Registry& reg) {
  w.u64(reg.counters().size());
  for (const auto& [name, value] : reg.counters()) {
    w.str(name);
    w.u64(value);
  }
  w.u64(reg.gauges().size());
  for (const auto& [name, value] : reg.gauges()) {
    w.str(name);
    w.i64(value);
  }
  w.u64(reg.histograms().size());
  for (const auto& [name, h] : reg.histograms()) {
    w.str(name);
    w.doubles(h.bounds);
    w.u64(h.buckets.size());
    for (const auto b : h.buckets) w.u64(b);
    w.u64(h.count);
    w.f64(h.sum);
  }
}

/// Each family must arrive in strictly increasing key order, as
/// put_registry() writes it from the registry's maps: then every name is
/// appended at the map's end without a search, and a duplicate or unsorted
/// name is malformed input, so an accepted cell re-encodes to its own bytes.
bool get_registry(Reader& r, obs::Registry& reg) {
  std::uint64_t n = 0;
  std::string_view name;
  // Reads the i-th name of a family into `name`; false unless it sorts
  // strictly after the name before it.
  const auto next_name = [&r, &name](std::uint64_t i) {
    const std::string_view prev = name;
    return r.str(name) && (i == 0 || prev < name);
  };
  if (!r.count(n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t value = 0;
    if (!next_name(i) || !r.u64(value)) return false;
    reg.counter(name) = value;
  }
  if (!r.count(n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int64_t value = 0;
    if (!next_name(i) || !r.i64(value)) return false;
    reg.gauge(name) = value;
  }
  if (!r.count(n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::vector<double> bounds;
    if (!next_name(i) || !r.doubles(bounds)) return false;
    std::uint64_t buckets = 0;
    if (!r.count(buckets) || buckets != bounds.size() + 1) return false;
    auto& h = reg.histogram(name, std::move(bounds));
    h.buckets.resize(static_cast<std::size_t>(buckets));
    for (auto& b : h.buckets) {
      if (!r.u64(b)) return false;
    }
    if (!r.u64(h.count) || !r.f64(h.sum)) return false;
  }
  return true;
}

}  // namespace

std::string encode_cell(const analysis::ExperimentResult& res) {
  Writer w;
  w.raw(kCellMagic);
  w.u64(res.attackers.size());
  for (const auto& a : res.attackers) {
    w.str(a.node);
    w.u64(a.primary_id);
    put_summary(w, a.busoff_bits);
    put_summary(w, a.busoff_ms);
    w.doubles(a.busoff_cycles_ms);
    w.u64(a.busoff_count);
    w.u64(a.retransmissions);
    w.u8(a.ended_bus_off ? 1 : 0);
    w.i64(a.final_tec);
  }
  w.u8(res.defender_bus_off ? 1 : 0);
  w.i64(res.defender_tec);
  w.i64(res.defender_rec);
  w.u64(res.defender_frames_sent);
  w.u64(res.attacks_detected);
  w.u64(res.counterattacks);
  w.f64(res.mean_detection_bit);
  w.u64(res.restbus_frames_delivered);
  w.u64(res.restbus_drops);
  w.u8(res.restbus_any_bus_off ? 1 : 0);
  w.u64(res.faults.random_flips);
  w.u64(res.faults.scheduled_flips);
  w.u64(res.faults.stuck_bits);
  w.u64(res.faults.sample_slips);
  w.u64(res.false_detections);
  w.u64(res.attacker_frames);
  w.u64(res.error_frame_stomps);
  w.f64(res.busy_fraction);
  w.f64(res.first_cycle_total_bits);
  put_registry(w, res.metrics);
  return w.take();
}

bool decode_cell(std::string_view bytes, analysis::ExperimentResult& out) {
  out = analysis::ExperimentResult{};
  Reader r{bytes};
  if (!r.magic(kCellMagic)) return false;
  std::uint64_t attackers = 0;
  if (!r.count(attackers)) return false;
  out.attackers.resize(static_cast<std::size_t>(attackers));
  for (auto& a : out.attackers) {
    std::uint64_t id = 0;
    std::uint64_t busoff_count = 0;
    std::int64_t final_tec = 0;
    if (!r.str(a.node) || !r.u64(id) || !get_summary(r, a.busoff_bits) ||
        !get_summary(r, a.busoff_ms) || !r.doubles(a.busoff_cycles_ms) ||
        !r.u64(busoff_count) || !r.u64(a.retransmissions) ||
        !r.boolean(a.ended_bus_off) || !r.i64(final_tec)) {
      return false;
    }
    a.primary_id = static_cast<can::CanId>(id);
    a.busoff_count = static_cast<std::size_t>(busoff_count);
    a.final_tec = static_cast<int>(final_tec);
  }
  std::int64_t tec = 0;
  std::int64_t rec = 0;
  if (!r.boolean(out.defender_bus_off) || !r.i64(tec) || !r.i64(rec) ||
      !r.u64(out.defender_frames_sent) || !r.u64(out.attacks_detected) ||
      !r.u64(out.counterattacks) || !r.f64(out.mean_detection_bit) ||
      !r.u64(out.restbus_frames_delivered) || !r.u64(out.restbus_drops) ||
      !r.boolean(out.restbus_any_bus_off) || !r.u64(out.faults.random_flips) ||
      !r.u64(out.faults.scheduled_flips) || !r.u64(out.faults.stuck_bits) ||
      !r.u64(out.faults.sample_slips) || !r.u64(out.false_detections) ||
      !r.u64(out.attacker_frames) || !r.u64(out.error_frame_stomps) ||
      !r.f64(out.busy_fraction) || !r.f64(out.first_cycle_total_bits) ||
      !get_registry(r, out.metrics)) {
    return false;
  }
  out.defender_tec = static_cast<int>(tec);
  out.defender_rec = static_cast<int>(rec);
  return r.done();
}

}  // namespace mcan::runner
