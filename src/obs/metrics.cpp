#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/jsonfmt.hpp"

namespace mcan::obs {

void Histogram::observe(double x) noexcept {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), x);
  const auto idx = static_cast<std::size_t>(it - bounds.begin());
  if (buckets.size() != bounds.size() + 1) {
    buckets.assign(bounds.size() + 1, 0);
  }
  ++buckets[idx];
  ++count;
  sum += x;
}

void Histogram::merge(const Histogram& other) {
  if (bounds != other.bounds) {
    throw std::invalid_argument("Histogram::merge: bucket bounds differ");
  }
  if (buckets.size() != bounds.size() + 1) {
    buckets.assign(bounds.size() + 1, 0);
  }
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

namespace {

/// Where `name` sits in `family`, or end() when it is absent.  A name that
/// sorts after every key, as when decode_cell() or merge() fill a registry
/// in key order, needs no search, and end() is then the exact insertion
/// hint; any other absent name gets a wrong hint, and the map searches.
template <typename Map>
typename Map::iterator locate(Map& family, std::string_view name) {
  if (family.empty() || family.rbegin()->first < name) return family.end();
  return family.find(name);
}

}  // namespace

std::uint64_t& Registry::counter(std::string_view name) {
  const auto it = locate(counters_, name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace_hint(it, name, 0u)->second;
}

std::int64_t& Registry::gauge(std::string_view name) {
  const auto it = locate(gauges_, name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace_hint(it, name, 0)->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  const auto it = locate(histograms_, name);
  if (it != histograms_.end()) {
    if (it->second.bounds != bounds) {
      throw std::invalid_argument("Registry::histogram: '" +
                                  std::string{name} +
                                  "' re-registered with different bounds");
    }
    return it->second;
  }
  Histogram h;
  h.bounds = std::move(bounds);
  h.buckets.assign(h.bounds.size() + 1, 0);
  return histograms_.emplace_hint(it, name, std::move(h))->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, v] : other.counters_) counter(name) += v;
  for (const auto& [name, v] : other.gauges_) {
    auto& g = gauge(name);
    g = std::max(g, v);
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h.bounds).merge(h);
  }
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0u : it->second;
}

std::int64_t Registry::gauge_value(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string Registry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << v;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) os << ",";
      os << fmt_double(h.bounds[i]);
    }
    os << "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) os << ",";
      os << h.buckets[i];
    }
    os << "],\"count\":" << h.count << ",\"sum\":" << fmt_double(h.sum)
       << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace mcan::obs
