#include "obs/trace_context.hpp"

#include <algorithm>
#include <set>

#include "obs/jsonfmt.hpp"

namespace mcan::obs {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

std::uint64_t fnv_mix(std::uint64_t hash, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

TraceIdBuilder& TraceIdBuilder::mix(std::string_view part) {
  const std::uint64_t len = part.size();
  hash_ = fnv_mix(hash_, &len, sizeof len);
  hash_ = fnv_mix(hash_, part.data(), part.size());
  return *this;
}

TraceIdBuilder& TraceIdBuilder::mix_u64(std::uint64_t v) {
  hash_ = fnv_mix(hash_, &v, sizeof v);
  return *this;
}

SpanCollector::SpanCollector(std::uint64_t trace_id)
    : trace_id_(trace_id), epoch_(std::chrono::steady_clock::now()) {}

double SpanCollector::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t SpanCollector::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanCollector::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanCollector::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t SpanCollector::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

SpanCollector::Scope::Scope(SpanCollector* collector, std::string_view name,
                            std::string_view category, std::uint64_t parent)
    : collector_(collector), parent_(parent) {
  if (collector_ == nullptr) return;
  id_ = collector_->next_id();
  name_ = name;
  category_ = category;
  start_us_ = collector_->now_us();
}

SpanCollector::Scope::~Scope() {
  if (collector_ == nullptr) return;
  Span span;
  span.id = id_;
  span.parent = parent_;
  span.name = std::move(name_);
  span.category = std::move(category_);
  span.start_us = start_us_;
  span.dur_us = collector_->now_us() - start_us_;
  span.track = track_;
  span.args_json = std::move(args_json_);
  collector_->record(std::move(span));
}

std::string SpanCollector::to_chrome_trace(int pid) const {
  const std::string id_hex = hex16(trace_id_);
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
      "\"michican.trace.v1\",\"trace_id\":\"";
  out += id_hex;
  out += "\"},\"traceEvents\":[\n";
  auto sorted = spans();
  if (sorted.empty()) return out + "\n]}\n";
  std::sort(sorted.begin(), sorted.end(), [](const Span& a, const Span& b) {
    if (a.track != b.track) return a.track < b.track;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.id < b.id;
  });

  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) +
         ",\"tid\":0,\"args\":{\"name\":\"michican-serve\"}}";
  std::set<int> tracks;
  for (const auto& s : sorted) tracks.insert(s.track);
  for (const int track : tracks) {
    const std::string label =
        track == 0 ? std::string("service")
                   : "cell " + std::to_string(track - 1);
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":" + std::to_string(track) +
           ",\"args\":{\"name\":\"" + label + "\"}}";
  }
  for (const auto& s : sorted) {
    out += ",\n{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
           json_escape(s.category) + "\",\"ph\":\"X\",\"ts\":" +
           fmt_double(s.start_us) + ",\"dur\":" + fmt_double(s.dur_us) +
           ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(s.track) +
           ",\"args\":{\"trace_id\":\"" + id_hex +
           "\",\"span\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent);
    if (!s.args_json.empty()) {
      out += ',';
      out += s.args_json;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace mcan::obs
