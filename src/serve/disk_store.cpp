#include "serve/disk_store.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace mcan::serve {
namespace {

constexpr std::string_view kHeaderMagic = "MCST1 ";
constexpr std::string_view kEntrySuffix = ".cell";
constexpr std::string_view kTempSuffix = ".tmp";

std::uint64_t payload_hash(std::string_view bytes) {
  runner::Fingerprint fp;
  fp.mix_bytes(bytes.data(), bytes.size());
  return fp.digest();
}

std::string make_header(std::uint64_t hash, std::uint64_t len) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "MCST1 %016" PRIx64 " %" PRIu64 "\n", hash,
                len);
  return buf;
}

/// Parse "MCST1 <hex16> <decimal>\n" at the front of `file`; returns the
/// offset of the payload, or 0 on any malformation.
std::size_t parse_header(std::string_view file, std::uint64_t& hash,
                         std::uint64_t& len) {
  if (file.substr(0, kHeaderMagic.size()) != kHeaderMagic) return 0;
  std::size_t pos = kHeaderMagic.size();
  if (file.size() - pos < 17 || file[pos + 16] != ' ') return 0;
  hash = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = file[pos + i];
    hash <<= 4;
    if (c >= '0' && c <= '9') {
      hash |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      hash |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return 0;
    }
  }
  pos += 17;
  len = 0;
  bool any = false;
  while (pos < file.size() && file[pos] >= '0' && file[pos] <= '9') {
    len = len * 10 + static_cast<std::uint64_t>(file[pos] - '0');
    ++pos;
    any = true;
    if (len > (1ull << 40)) return 0;  // absurd
  }
  if (!any || pos >= file.size() || file[pos] != '\n') return 0;
  return pos + 1;
}

std::optional<std::string> read_file(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  if (!in) return std::nullopt;
  std::string data{std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{}};
  if (in.bad()) return std::nullopt;
  return data;
}

}  // namespace

DiskStore::DiskStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("DiskStore: cannot create cache dir " +
                             dir_.string());
  }

  // Index surviving entries; sweep stray temp files from a crashed store().
  for (const auto& de : std::filesystem::directory_iterator{dir_, ec}) {
    const auto name = de.path().filename().string();
    if (name.size() > kTempSuffix.size() &&
        name.compare(name.size() - kTempSuffix.size(), kTempSuffix.size(),
                     kTempSuffix) == 0) {
      std::filesystem::remove(de.path(), ec);
      continue;
    }
    if (name.size() <= kEntrySuffix.size() ||
        name.compare(name.size() - kEntrySuffix.size(), kEntrySuffix.size(),
                     kEntrySuffix) != 0 ||
        !de.is_regular_file(ec)) {
      continue;
    }
    const auto size = de.file_size(ec);
    if (ec) continue;
    // "MCST1 " + 16-hex hash + space + >=1 length digit + newline.
    const auto header_min = kHeaderMagic.size() + 19;
    if (size < header_min) {
      // Too short to hold even a header: a torn write from a crash.  Sweep
      // it now and count it, instead of indexing it and letting a later
      // fetch trip over it.
      std::filesystem::remove(de.path(), ec);
      ++stats_.corrupt;
      continue;
    }
    const std::uint64_t payload = size - header_min;  // refined on fetch
    index_[name.substr(0, name.size() - kEntrySuffix.size())] = payload;
    stats_.bytes += payload;
  }
  stats_.entries = index_.size();
}

std::filesystem::path DiskStore::path_for(std::string_view id) const {
  return dir_ / (std::string{id} + std::string{kEntrySuffix});
}

std::optional<std::string> DiskStore::fetch(const runner::CellKey& key) {
  const std::string id = key.id();
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = index_.find(id);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  auto file = read_file(path_for(id));
  std::uint64_t hash = 0;
  std::uint64_t len = 0;
  std::size_t offset = 0;
  if (!file || (offset = parse_header(*file, hash, len)) == 0 ||
      file->size() - offset != len ||
      payload_hash(std::string_view{*file}.substr(offset)) != hash) {
    // Torn, truncated, or rotted: discard and report a miss so the caller
    // recomputes.  Never serve bytes that fail their own hash.
    std::error_code ec;
    std::filesystem::remove(path_for(id), ec);
    stats_.bytes -= it->second;
    index_.erase(it);
    stats_.entries = index_.size();
    ++stats_.corrupt;
    ++stats_.misses;
    return std::nullopt;
  }
  // True payload length may differ from the startup scan's estimate; fix
  // the accounting on first touch.
  stats_.bytes = stats_.bytes - it->second + len;
  it->second = len;
  ++stats_.hits;
  return file->substr(offset);
}

void DiskStore::store(const runner::CellKey& key, std::string_view bytes) {
  const std::string id = key.id();
  const auto hash = payload_hash(bytes);
  const auto final_path = path_for(id);
  const auto tmp_path =
      dir_ / (id + std::string{kEntrySuffix} + std::string{kTempSuffix});

  std::lock_guard<std::mutex> lock{mu_};
  {
    std::ofstream out{tmp_path, std::ios::binary | std::ios::trunc};
    if (!out) return;  // cache write failure is non-fatal: next run recomputes
    out << make_header(hash, bytes.size());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return;
  }

  auto& held = index_[id];
  stats_.bytes = stats_.bytes - held + bytes.size();
  held = bytes.size();
  stats_.entries = index_.size();
  ++stats_.stores;
}

runner::CellStore::Stats DiskStore::stats() const {
  std::lock_guard<std::mutex> lock{mu_};
  return stats_;
}

}  // namespace mcan::serve
