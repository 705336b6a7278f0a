#include "core/detection.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace mcan::core {

std::string to_string(AttackClass c) {
  switch (c) {
    case AttackClass::Legitimate: return "legitimate";
    case AttackClass::OwnId: return "spoofing";
    case AttackClass::Dos: return "dos";
    case AttackClass::Miscellaneous: return "miscellaneous";
    case AttackClass::Undecidable: return "undecidable";
  }
  return "?";
}

void IdRangeSet::add(can::CanId lo, can::CanId hi) {
  assert(lo <= hi && can::is_valid_ext_id(hi));
  const bool after_last = ranges_.empty() || lo > ranges_.back().hi + 1;
  ranges_.push_back({lo, hi});
  // A range that starts past the last one (and does not touch it) keeps
  // the set normalized; detection ranges are built this way, in O(1) each.
  if (!after_last) normalize();
}

void IdRangeSet::normalize() {
  std::sort(ranges_.begin(), ranges_.end(),
            [](const IdRange& a, const IdRange& b) { return a.lo < b.lo; });
  std::vector<IdRange> merged;
  for (const auto& r : ranges_) {
    if (!merged.empty() &&
        static_cast<int>(r.lo) <= static_cast<int>(merged.back().hi) + 1) {
      merged.back().hi = std::max(merged.back().hi, r.hi);
    } else {
      merged.push_back(r);
    }
  }
  ranges_ = std::move(merged);
}

bool IdRangeSet::contains(can::CanId id) const noexcept {
  const auto it = std::partition_point(
      ranges_.begin(), ranges_.end(),
      [id](const IdRange& r) { return r.hi < id; });
  return it != ranges_.end() && it->lo <= id;
}

std::size_t IdRangeSet::id_count() const noexcept {
  std::size_t n = 0;
  for (const auto& r : ranges_) n += static_cast<std::size_t>(r.hi - r.lo) + 1;
  return n;
}

std::string IdRangeSet::to_string() const {
  std::ostringstream os;
  os << std::hex;
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    if (i) os << ", ";
    os << "0x" << ranges_[i].lo;
    if (ranges_[i].hi != ranges_[i].lo) os << "-0x" << ranges_[i].hi;
  }
  return os.str();
}

IvnConfig::IvnConfig(std::vector<can::CanId> ecu_ids)
    : ecus_(std::move(ecu_ids)) {
  assert(!ecus_.empty());
  if (!std::is_sorted(ecus_.begin(), ecus_.end())) {
    std::sort(ecus_.begin(), ecus_.end());
  }
  ecus_.erase(std::unique(ecus_.begin(), ecus_.end()), ecus_.end());
  assert(can::is_valid_id(ecus_.back()));
}

bool IvnConfig::is_legitimate(can::CanId id) const noexcept {
  return std::binary_search(ecus_.begin(), ecus_.end(), id);
}

AttackClass IvnConfig::classify(can::CanId own_id, can::CanId observed) const {
  if (observed == own_id) return AttackClass::OwnId;
  if (is_legitimate(observed)) {
    // Another ECU's legitimate ID: from our perspective a transmission with
    // this ID may well be that ECU — only it can decide (paper example with
    // 0x005 / 0x00F).
    return observed < own_id ? AttackClass::Undecidable
                             : AttackClass::Legitimate;
  }
  if (observed < own_id) return AttackClass::Dos;
  if (observed > highest()) return AttackClass::Miscellaneous;
  // Unknown ID between our own and the highest legitimate ID: it cannot
  // block us (it loses arbitration against us), so we leave it to the
  // higher-ID ECUs whose detection ranges cover it.
  return AttackClass::Legitimate;
}

IdRangeSet IvnConfig::detection_ranges(can::CanId own_id) const {
  IdRangeSet d;
  // 𝔻 = [0, own_id] minus legitimate IDs strictly below own_id.
  int lo = 0;
  for (const auto ecu : ecus_) {
    if (ecu >= own_id) break;
    if (static_cast<int>(ecu) > lo) {
      d.add(static_cast<can::CanId>(lo), static_cast<can::CanId>(ecu - 1));
    }
    lo = static_cast<int>(ecu) + 1;
  }
  if (lo <= static_cast<int>(own_id)) {
    d.add(static_cast<can::CanId>(lo), own_id);
  }
  return d;
}

IdRangeSet IvnConfig::detection_ranges(can::CanId own_id,
                                       Scenario scenario) const {
  if (scenario == Scenario::Light) {
    IdRangeSet d;
    d.add(own_id);
    return d;
  }
  return detection_ranges(own_id);
}

void IvnConfig::set_extended_ecus(std::vector<can::CanId> ext_ids) {
  ext_ecus_ = std::move(ext_ids);
  std::sort(ext_ecus_.begin(), ext_ecus_.end());
  ext_ecus_.erase(std::unique(ext_ecus_.begin(), ext_ecus_.end()),
                  ext_ecus_.end());
  assert(ext_ecus_.empty() || can::is_valid_ext_id(ext_ecus_.back()));
}

IdRangeSet IvnConfig::ext_detection_ranges(can::CanId own_id) const {
  IdRangeSet d;
  // Every extended ID whose 11-bit base is strictly below own_id can win
  // arbitration against us: [0, own_id << 18 - 1], minus legitimate
  // extended IDs.
  const std::uint64_t limit = static_cast<std::uint64_t>(own_id) << 18;
  if (limit == 0) return d;
  std::uint64_t lo = 0;
  for (const auto ecu : ext_ecus_) {
    if (ecu >= limit) break;
    if (ecu > lo) {
      d.add(static_cast<can::CanId>(lo), static_cast<can::CanId>(ecu - 1));
    }
    lo = static_cast<std::uint64_t>(ecu) + 1;
  }
  if (lo < limit) {
    d.add(static_cast<can::CanId>(lo), static_cast<can::CanId>(limit - 1));
  }
  return d;
}

bool IvnConfig::in_light_subset(can::CanId own_id) const {
  const auto it = std::lower_bound(ecus_.begin(), ecus_.end(), own_id);
  const auto index = static_cast<std::size_t>(it - ecus_.begin());
  return index < ecus_.size() / 2;
}

}  // namespace mcan::core
