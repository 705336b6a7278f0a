// Sharded metrics registry: counters, gauges and fixed-bucket histograms.
//
// Concurrency model — shard per worker, merge at join.  A Registry is a
// plain single-threaded value: campaign workers never share one.  Each
// (spec, seed) task populates its own shard while it runs and the campaign
// reduction merges the shards in deterministic grid order after the pool
// drains.  The hot path is therefore lock-free by construction: callers
// cache the `std::uint64_t&` returned by counter() and bump it with an
// ordinary add — no atomics, no mutexes, no hashing per increment.
//
// Determinism: all three metric families live in ordered maps, merge() is
// commutative for the chosen semantics (sum for counters/histograms, max
// for gauges), and to_json() renders doubles shortest-round-trip — so the
// merged registry serializes byte-identically for any worker count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mcan::obs {

/// Fixed-bucket histogram.  `bounds` are ascending inclusive upper bounds;
/// bucket i counts samples x <= bounds[i], the final bucket is overflow.
struct Histogram {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 slots
  std::uint64_t count{};
  double sum{};

  void observe(double x) noexcept;
  /// Throws std::invalid_argument if `other` has different bounds.
  void merge(const Histogram& other);
};

class Registry {
 public:
  // counter(), gauge() and histogram() append a name that sorts after
  // every key of its family at the map's end without a search; any other
  // name is looked up as usual.  merge() and the cell decoder fill each
  // family in key order (the decoder rejects a cell out of that order), so
  // they pay one node per name and no search.

  /// Named monotonically-increasing counter (merge = sum).  The reference
  /// stays valid for the registry's lifetime; cache it on hot paths.
  [[nodiscard]] std::uint64_t& counter(std::string_view name);

  /// Named level gauge (merge = max, for peaks like a TEC high-water mark).
  [[nodiscard]] std::int64_t& gauge(std::string_view name);

  /// Named histogram; `bounds` is only applied on first registration and
  /// must match on every later call (throws std::invalid_argument).
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> bounds);

  /// Fold another shard into this one (sum / max / bucket-wise sum).
  void merge(const Registry& other);

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// 0 / nullptr when the metric was never registered.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
  gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

  /// Deterministic JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{"name":
  ///    {"bounds":[...],"buckets":[...],"count":n,"sum":x}}}
  /// Keys are emitted in lexicographic order (map iteration order).
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace mcan::obs
